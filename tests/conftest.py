"""Shared helpers: independent brute-force oracles and seeded instance supply.

The oracles here deliberately avoid the package's enumeration/DFS code paths:
paths come from permutations of vertex combinations, covers from full subset
scans. They are slow and only meant for desk-scale cross-checks. The
`reference_*` helpers keep earlier, plainer versions of package code that a
faster one replaced; tests require the two to agree.
"""

from __future__ import annotations

import bisect
import itertools
import math

import pytest
from hypothesis import settings
from hypothesis import strategies as st

from pvcover import (
    Graph,
    GeneratorConfig,
    InsertionPatch,
    ParseError,
    PathIndex,
    ReoptInstance,
    WeightMismatch,
    gen_graph,
    gen_patch,
    make_solution,
    solve_exact,
)

# Property tests draw the same examples on every run and never time out on
# a loaded machine; nothing is written to an example database.
settings.register_profile("pvcover", derandomize=True, deadline=None, database=None)
settings.load_profile("pvcover")


SMALL_INTS = st.integers(-2, 6)
_HEADS = st.sampled_from(["p pvc", "p patch", "s pvc"])
_BODY = st.lists(st.tuples(st.sampled_from("veax"), SMALL_INTS, SMALL_INTS), max_size=6)
_OFF = st.none() | SMALL_INTS
# tokens that no line format expects where they land: words, a float, a bare
# sign and an integer past the int() digit limit
_STRAY = st.sampled_from(["p", "pvc", "patch", "s", "v", "x", "1.5", "-", "9" * 5000])
_STRAY_LINES = st.lists(
    st.lists(_STRAY | SMALL_INTS.map(str), min_size=1, max_size=4).map(" ".join), max_size=2
)


@st.composite
def line_format_texts(draw):
    """A graph, patch or solution file of small random numbers and stray tokens.

    Each header count matches the body lines unless a draw replaces it, so
    many texts get past the count checks to the id, weight and size checks.
    Stray lines land at drawn positions, so a malformed line can come before
    or after a line whose fault is its meaning. Strategies that do not depend
    on the drawn lines are built once, outside the draws, which keeps
    examples cheap.
    """
    head = draw(_HEADS)
    lines = [f"x {a}" if kind == "x" else f"{kind} {a} {b}" for kind, a, b in draw(_BODY)]
    count = {kind: sum(line[0] == kind for line in lines) for kind in "veax"}
    numbers = {
        "p pvc": [None, count["e"]],
        "p patch": [None, count["v"], count["e"], count["a"]],
        "s pvc": [None, count["x"], None],
    }[head]
    numbers = [draw(SMALL_INTS) if x is None else x for x in numbers]
    numbers = [x if (y := draw(_OFF)) is None else y for x in numbers]
    for stray in draw(_STRAY_LINES):
        lines.insert(draw(st.integers(0, len(lines))), stray)
    lines.insert(draw(st.integers(0, len(lines))), " ".join([head, *map(str, numbers)]))
    return "\n".join(lines)


def perm_k_paths(g: Graph, k):
    """All k-paths by brute permutation, canonical and sorted."""
    found = set()
    for combo in itertools.combinations(g.vertices(), k):
        for perm in itertools.permutations(combo):
            if perm[0] > perm[-1]:
                continue
            if all(v in g.adj[u - 1] for u, v in zip(perm, perm[1:])):
                found.add(perm)
    return sorted(found)


def bfs_levels(g: Graph, roots):
    """The levels of a breadth-first search seeded with the whole root set:
    the roots are level 1, and each level lists its vertices ascending."""
    seen = set(roots)
    levels = []
    level = sorted(seen)
    while level:
        levels.append(tuple(level))
        level = sorted({u for v in level for u in g.adj[v - 1]} - seen)
        seen.update(level)
    return tuple(levels)


def brute_covers(g: Graph, s, k):
    s = frozenset(s)
    return all(s.intersection(p) for p in perm_k_paths(g, k))


def brute_optima(g: Graph, k, objective="weight"):
    """(optimal value, list of all optimal covers) by full subset scan."""
    paths = perm_k_paths(g, k)
    if not paths:
        return 0, [frozenset()]
    verts = list(g.vertices())
    best = None
    optima = []
    for r in range(g.n + 1):
        for combo in itertools.combinations(verts, r):
            s = frozenset(combo)
            if not all(s.intersection(p) for p in paths):
                continue
            val = g.weight_of(s) if objective == "weight" else len(s)
            if best is None or val < best:
                best = val
                optima = [s]
            elif val == best:
                optima.append(s)
    return best, optima


def reference_ptas(inst, epsilon):
    """The PTAS as an enumeration, the reference for `ptas_unweighted`: the
    first cover among the vertex sets of size at most m = min(ceil(c /
    epsilon), n), by size then lexicographically, or all of V, against
    old_opt plus the inserted vertices. Returns the chosen vertex set."""
    g = inst.g_new
    m = min(math.ceil(inst.patch.size / epsilon), g.n)
    index = PathIndex(g, inst.k)
    s1 = frozenset(g.vertices())
    candidates = (c for r in range(m + 1) for c in itertools.combinations(g.vertices(), r))
    for cand in candidates:
        if index.covers(cand):
            s1 = frozenset(cand)
            break
    s2 = inst.old_opt.vertices | inst.added_ids()
    return s1 if len(s1) <= len(s2) else s2


def reference_local_ratio(g: Graph, ix, below=math.inf, dual_below=math.inf):
    """The earlier local-ratio loop, the reference for `solvers._local_ratio`:
    (cover in join order, Σδ), or None once the cover weighs below or Σδ
    reaches dual_below. It tests each path for the skip set in Python,
    keeps residuals by vertex index and joins the zero-residual vertices of
    sorted(p) that are not yet skipped."""
    if below <= 0 or dual_below <= 0:
        return None
    residual = list(g.weights)
    cover = []
    skip = set(ix.removed)
    weight = total = 0
    for p in ix.base:
        if not skip.isdisjoint(p):
            continue
        delta = min(residual[v - 1] for v in p)
        total += delta
        if total >= dual_below:
            return None
        for v in p:
            residual[v - 1] -= delta
        for v in sorted(p):
            if residual[v - 1] == 0 and v not in skip:
                skip.add(v)
                cover.append(v)
                weight += g.weights[v - 1]
        if weight >= below:
            return None
    return cover, total


def reference_walk(g: Graph, k, alive, after=None):
    """The earlier set-based walker, the reference for `kpaths._walk`: the
    canonical k-paths of g[alive], alive an iterable of vertex ids, in
    lexicographic order, or with after only those that follow it. `free`
    is a set of the alive vertices not on the current path."""
    adj = g.adj
    free = set(alive)
    starts = sorted(free)
    if after is not None:
        starts = starts[bisect.bisect_left(starts, after[0]) :]
    for start in starts:
        resume = after is not None and start == after[0]
        if k == 2:
            lo = after[1] if resume else start
            yield from ((start, u) for u in adj[start - 1] if u > lo and u in free)
            continue
        free.remove(start)
        path = [start]
        stack = [iter(adj[start - 1])]
        if resume:
            for u in after[1:-1]:
                nbrs = adj[path[-1] - 1]
                stack[-1] = iter(nbrs[nbrs.index(u) + 1 :])
                if u not in free:
                    break
                if len(path) == k - 2:
                    for w in adj[u - 1]:
                        if w > after[-1] and w in free:
                            yield (*path, u, w)
                    break
                free.remove(u)
                path.append(u)
                stack.append(iter(adj[u - 1]))
        while stack:
            for u in stack[-1]:
                if u in free:
                    break
            else:
                stack.pop()
                free.add(path.pop())
                continue
            if len(path) < k - 2:
                free.remove(u)
                path.append(u)
                stack.append(iter(adj[u - 1]))
            else:
                for w in adj[u - 1]:
                    if w > start and w in free:
                        yield (*path, u, w)


# The earlier parsers, the references for `instances.parse_graph`,
# `parse_patch` and `parse_solution`: every line is split into a body list
# first, and the header is taken from it.


def _reference_lines(text):
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        yield lineno, line.split()


def _reference_ints(fields, lineno):
    out = []
    for f in fields:
        try:
            out.append(int(f))
        except ValueError:
            shown = repr(f) if len(f) <= 20 else f"{f[:20]!r}... ({len(f)} characters)"
            raise ParseError(f"expected integers, got {shown}", line=lineno)
    return out


def _reference_split_header(text, kind, tag, width, what):
    body = []
    header = None
    for lineno, fields in _reference_lines(text):
        if fields[0] == kind:
            if header is not None:
                raise ParseError(f"duplicate {kind} line", line=lineno)
            if len(fields) != width or fields[1] != tag:
                raise ParseError(f"expected '{what}'", line=lineno)
            header = _reference_ints(fields[2:], lineno)
            head = lineno
        else:
            body.append((lineno, fields))
    if header is None:
        raise ParseError(f"missing {kind} line")
    return header, head, body


def reference_parse_graph(text) -> Graph:
    (n, m), _, body = _reference_split_header(text, "p", "pvc", 4, "p pvc <n> <m>")
    weights = {}
    edges = set()
    for lineno, fields in body:
        kind = fields[0]
        if kind == "v":
            if len(fields) != 3:
                raise ParseError("expected 'v <id> <weight>'", line=lineno)
            vid, w = _reference_ints(fields[1:], lineno)
            if not 1 <= vid <= n:
                raise ParseError(f"vertex id {vid} out of range", line=lineno)
            if vid in weights:
                raise ParseError(f"duplicate v line for {vid}", line=lineno)
            if w < 1:
                raise ParseError(f"weight {w} must be >= 1", line=lineno)
            weights[vid] = w
        elif kind == "e":
            if len(fields) != 3:
                raise ParseError("expected 'e <u> <v>'", line=lineno)
            u, v = _reference_ints(fields[1:], lineno)
            if not (1 <= u <= n and 1 <= v <= n):
                raise ParseError(f"edge ({u},{v}) endpoint out of range", line=lineno)
            if u == v:
                raise ParseError(f"self-loop at {u}", line=lineno)
            key = (min(u, v), max(u, v))
            if key in edges:
                raise ParseError(f"duplicate edge {key}", line=lineno)
            edges.add(key)
        else:
            raise ParseError(f"unknown line type {kind!r}", line=lineno)
    if len(weights) != n:
        raise ParseError(f"expected {n} v lines, got {len(weights)}")
    if len(edges) != m:
        raise ParseError(f"expected {m} e lines, got {len(edges)}")
    adj = [[] for _ in range(n)]
    for u, v in edges:
        adj[u - 1].append(v)
        adj[v - 1].append(u)
    return Graph([weights[v] for v in range(1, n + 1)], adj)


def reference_parse_patch(text) -> InsertionPatch:
    header, head, body = _reference_split_header(
        text, "p", "patch", 6, "p patch <n_old> <c> <mA> <ma>"
    )
    n_old, c, m_a, m_att = header
    if n_old < 0:
        raise ParseError(f"old vertex count {n_old} must be non-negative", line=head)
    weights = {}
    internal = set()
    attach = set()
    for lineno, fields in body:
        kind = fields[0]
        if kind == "v":
            if len(fields) != 3:
                raise ParseError("expected 'v <id> <weight>'", line=lineno)
            vid, w = _reference_ints(fields[1:], lineno)
            if not n_old + 1 <= vid <= n_old + c:
                raise ParseError(f"new vertex id {vid} out of range", line=lineno)
            if vid in weights:
                raise ParseError(f"duplicate v line for {vid}", line=lineno)
            if w < 1:
                raise ParseError(f"weight {w} must be >= 1", line=lineno)
            weights[vid] = w
        elif kind == "e":
            if len(fields) != 3:
                raise ParseError("expected 'e <u> <v>'", line=lineno)
            u, v = _reference_ints(fields[1:], lineno)
            if not (n_old < u <= n_old + c and n_old < v <= n_old + c):
                raise ParseError(f"internal edge ({u},{v}) must join two new vertices", line=lineno)
            if u == v:
                raise ParseError(f"self-loop at {u}", line=lineno)
            key = (min(u, v), max(u, v))
            if key in internal:
                raise ParseError(f"duplicate internal edge {key}", line=lineno)
            internal.add(key)
        elif kind == "a":
            if len(fields) != 3:
                raise ParseError("expected 'a <old> <new>'", line=lineno)
            u, v = _reference_ints(fields[1:], lineno)
            if not (1 <= u <= n_old and n_old < v <= n_old + c):
                raise ParseError(
                    f"attachment edge ({u},{v}) must join an old and a new vertex", line=lineno
                )
            if (u, v) in attach:
                raise ParseError(f"duplicate attachment edge ({u},{v})", line=lineno)
            attach.add((u, v))
        else:
            raise ParseError(f"unknown line type {kind!r}", line=lineno)
    if len(weights) != c:
        raise ParseError(f"expected {c} v lines, got {len(weights)}")
    if len(internal) != m_a:
        raise ParseError(f"expected {m_a} e lines, got {len(internal)}")
    if len(attach) != m_att:
        raise ParseError(f"expected {m_att} a lines, got {len(attach)}")
    return InsertionPatch(
        old_vertex_count=n_old,
        added=tuple((vid, weights[vid]) for vid in sorted(weights)),
        internal_edges=tuple(internal),
        attachment_edges=tuple(attach),
    )


def reference_parse_solution(text, g: Graph):
    (k, size, weight), _, body = _reference_split_header(
        text, "s", "pvc", 5, "s pvc <k> <size> <weight>"
    )
    if k < 2:
        raise ParseError(f"k={k} must be at least 2")
    chosen = []
    seen = set()
    for lineno, fields in body:
        kind = fields[0]
        if kind == "x":
            if len(fields) != 2:
                raise ParseError("expected 'x <id>'", line=lineno)
            (vid,) = _reference_ints(fields[1:], lineno)
            if not 1 <= vid <= g.n:
                raise ParseError(f"vertex id {vid} out of range", line=lineno)
            if vid in seen:
                raise ParseError(f"duplicate x line for {vid}", line=lineno)
            seen.add(vid)
            chosen.append(vid)
        else:
            raise ParseError(f"unknown line type {kind!r}", line=lineno)
    if len(chosen) != size:
        raise ParseError(f"expected {size} x lines, got {len(chosen)}")
    actual = g.weight_of(chosen)
    if actual != weight:
        raise WeightMismatch(f"stated weight {weight}, recomputed {actual}")
    return make_solution(g, chosen, k)


def brute_opt_weight(g: Graph, k):
    return brute_optima(g, k)[0]


def random_graph(seed, n, m=None, weighted=True, max_degree=None):
    if m is None:
        m = min(n + n // 2, n * (n - 1) // 2)
    cfg = GeneratorConfig(
        n=n,
        edge_target=m,
        max_degree=max_degree,
        weight_range=(1, 10) if weighted else (1, 1),
        seed=seed,
    )
    return gen_graph(cfg)


def random_reopt_instance(seed, n_new, k, c, weighted=True, max_degree=None):
    """Seeded instance: old graph, random patch of c vertices, exact old opt."""
    n_old = n_new - c
    g_old = random_graph(seed, n_old, weighted=weighted, max_degree=max_degree)
    patch = gen_patch(
        g_old,
        c,
        attach_prob=min(1.0, 2.0 / max(n_old, 1)),
        internal_prob=0.4,
        seed=seed + 1,
        weight_range=(1, 10) if weighted else (1, 1),
        max_degree=max_degree,
    )
    old_opt = solve_exact(g_old, k)
    return ReoptInstance.create(g_old, patch, old_opt, k)


@pytest.fixture
def path4():
    return Graph.build(4, [(1, 2), (2, 3), (3, 4)])


@pytest.fixture
def weighted_path_fixture():
    """Old path 1-2-3 with weights (1,5,1); patch adds 4 (w=5) attached to 3."""
    from pvcover import InsertionPatch, apply_patch

    g_old = Graph.build(3, [(1, 2), (2, 3)], weights=[1, 5, 1])
    patch = InsertionPatch(3, added=((4, 5),), attachment_edges=((3, 4),))
    return g_old, patch, apply_patch(g_old, patch)


@pytest.fixture
def edge_plus_vertex_fixture():
    """Old edge 1-2 with weights (5,5); patch adds 3 (w=1) attached to 2."""
    from pvcover import InsertionPatch, apply_patch

    g_old = Graph.build(2, [(1, 2)], weights=[5, 5])
    patch = InsertionPatch(2, added=((3, 1),), attachment_edges=((2, 3),))
    return g_old, patch, apply_patch(g_old, patch)
