"""Line-oriented text formats for graphs, patches and solutions, plus seeded
random instance generators.

Graph file:    "c ..." comments, "p pvc <n> <m>", n "v <id> <w>" lines,
               m "e <u> <v>" lines with u < v in canonical files.
Patch file:    "p patch <n_old> <c> <mA> <ma>", c "v" lines for the new ids,
               mA internal "e" lines, ma attachment "a <old> <new>" lines.
Solution file: "s pvc <k> <size> <weight>", size "x <id>" lines.

write(parse(text)) is byte-identical for canonical files. The generators use
Python's random.Random (Mersenne Twister) with a fixed stream order
(weights first, then edges); changing either is a breaking change.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

from .errors import InfeasibleConfig, ParseError, WeightMismatch
from .graph import Graph, InsertionPatch
from .solvers import CoverSolution, make_solution


def read_text(path):
    """The text of an instance file; bytes that are not UTF-8 are a ParseError."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None


def _lines(text):
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        yield lineno, line.split()


def _ints(fields, lineno):
    try:
        return [int(f) for f in fields]
    except ValueError:
        raise ParseError(f"expected integers, got {fields}", line=lineno)


def _split_header(text, kind, tag, width, what):
    """Find the single header line; any line order is accepted.

    Returns (header ints, header line number, body lines).
    """
    body = []
    header = None
    for lineno, fields in _lines(text):
        if fields[0] == kind:
            if header is not None:
                raise ParseError(f"duplicate {kind} line", line=lineno)
            if len(fields) != width or fields[1] != tag:
                raise ParseError(f"expected '{what}'", line=lineno)
            header = _ints(fields[2:], lineno)
            head = lineno
        else:
            body.append((lineno, fields))
    if header is None:
        raise ParseError(f"missing {kind} line")
    return header, head, body


def parse_graph(text) -> Graph:
    (n, m), _, body = _split_header(text, "p", "pvc", 4, "p pvc <n> <m>")
    weights = {}
    edges = set()
    for lineno, fields in body:
        kind = fields[0]
        if kind == "v":
            if len(fields) != 3:
                raise ParseError("expected 'v <id> <weight>'", line=lineno)
            vid, w = _ints(fields[1:], lineno)
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
            u, v = _ints(fields[1:], lineno)
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


def write_graph(g: Graph) -> str:
    out = [f"p pvc {g.n} {g.m}"]
    out.extend(f"v {v} {g.weights[v - 1]}" for v in g.vertices())
    out.extend(f"e {u} {v}" for u, v in sorted(g.edges()))
    return "\n".join(out) + "\n"


def parse_patch(text) -> InsertionPatch:
    """The checked boundary for patches: every fault raises ParseError, with
    its line number when one line is at fault."""
    header, head, body = _split_header(text, "p", "patch", 6, "p patch <n_old> <c> <mA> <ma>")
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
            vid, w = _ints(fields[1:], lineno)
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
            u, v = _ints(fields[1:], lineno)
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
            u, v = _ints(fields[1:], lineno)
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


def write_patch(p: InsertionPatch) -> str:
    out = [
        f"p patch {p.old_vertex_count} {p.size} "
        f"{len(p.internal_edges)} {len(p.attachment_edges)}"
    ]
    out.extend(f"v {vid} {w}" for vid, w in p.added)
    out.extend(f"e {u} {v}" for u, v in sorted((min(e), max(e)) for e in p.internal_edges))
    out.extend(f"a {u} {v}" for u, v in sorted(p.attachment_edges))
    return "\n".join(out) + "\n"


def parse_solution(text, g: Graph) -> CoverSolution:
    """Parse a solution against its companion graph; the stated weight must
    match the recomputed one."""
    (k, size, weight), _, body = _split_header(text, "s", "pvc", 5, "s pvc <k> <size> <weight>")
    if k < 2:
        raise ParseError(f"k={k} must be at least 2")
    chosen = []
    seen = set()
    for lineno, fields in body:
        kind = fields[0]
        if kind == "x":
            if len(fields) != 2:
                raise ParseError("expected 'x <id>'", line=lineno)
            (vid,) = _ints(fields[1:], lineno)
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


def write_solution(sol: CoverSolution) -> str:
    out = [f"s pvc {sol.k} {sol.cardinality} {sol.weight}"]
    out.extend(f"x {v}" for v in sol.sorted_vertices())
    return "\n".join(out) + "\n"


def _check_weight_range(weight_range):
    """Generated weights are drawn from [wmin, wmax] and must be at least 1."""
    wmin, wmax = weight_range
    if wmin < 1 or wmax < wmin:
        raise InfeasibleConfig(f"bad weight range {weight_range}")


@dataclass(frozen=True)
class GeneratorConfig:
    """Seeded random graph parameters; edge_target < 1.0 means density."""

    n: int
    edge_target: float
    max_degree: int | None = None
    weight_range: tuple = (1, 10)
    seed: int = 0

    def __post_init__(self):
        _check_weight_range(self.weight_range)
        if self.n < 0:
            raise InfeasibleConfig("n must be non-negative")
        if self.edge_target < 0:
            raise InfeasibleConfig("edge target must be non-negative")
        if isinstance(self.edge_target, float) and not self.edge_target < 1.0:
            raise InfeasibleConfig(f"density {self.edge_target} is outside [0, 1)")

    def edge_count(self):
        pairs = self.n * (self.n - 1) // 2
        if isinstance(self.edge_target, float):
            return round(pairs * self.edge_target)
        return int(self.edge_target)


def gen_graph(cfg: GeneratorConfig) -> Graph:
    """Deterministic seeded random graph honoring the degree cap exactly."""
    rng = random.Random(cfg.seed)
    wmin, wmax = cfg.weight_range
    weights = [rng.randint(wmin, wmax) for _ in range(cfg.n)]
    target = cfg.edge_count()
    pairs = [(u, v) for u in range(1, cfg.n + 1) for v in range(u + 1, cfg.n + 1)]
    if target > len(pairs):
        raise InfeasibleConfig(f"edge target {target} exceeds {len(pairs)} possible pairs")
    if cfg.max_degree is not None and target > cfg.n * cfg.max_degree // 2:
        raise InfeasibleConfig(
            f"edge target {target} infeasible under max degree {cfg.max_degree}"
        )
    rng.shuffle(pairs)
    degree = [0] * (cfg.n + 1)
    edges = []
    for u, v in pairs:
        if len(edges) == target:
            break
        if cfg.max_degree is not None and (
            degree[u] >= cfg.max_degree or degree[v] >= cfg.max_degree
        ):
            continue
        edges.append((u, v))
        degree[u] += 1
        degree[v] += 1
    if len(edges) < target:
        raise InfeasibleConfig(
            f"could not place {target} edges under max degree {cfg.max_degree}"
        )
    return Graph.build(cfg.n, edges, weights=weights)


def gen_patch(
    g: Graph,
    c,
    attach_prob,
    internal_prob,
    seed=0,
    weight_range=(1, 10),
    max_degree=None,
) -> InsertionPatch:
    """Deterministic seeded random patch for g.

    Stream order: new-vertex weights, then internal edge coin flips (pairs in
    ascending order), then attachment coin flips (old ascending within new
    ascending). The optional degree cap counts existing degrees in g.
    """
    if c < 0:
        raise InfeasibleConfig(f"patch size {c} must be non-negative")
    _check_weight_range(weight_range)
    rng = random.Random(seed)
    wmin, wmax = weight_range
    n_old = g.n
    added = tuple((n_old + i + 1, rng.randint(wmin, wmax)) for i in range(c))
    degree = {v: g.degree(v) for v in g.vertices()}
    degree.update({vid: 0 for vid, _ in added})
    internal = []
    for i in range(c):
        for j in range(i + 1, c):
            u, v = n_old + i + 1, n_old + j + 1
            if rng.random() < internal_prob:
                if max_degree is not None and (
                    degree[u] >= max_degree or degree[v] >= max_degree
                ):
                    continue
                internal.append((u, v))
                degree[u] += 1
                degree[v] += 1
    attach = []
    for i in range(c):
        v = n_old + i + 1
        for u in range(1, n_old + 1):
            if rng.random() < attach_prob:
                if max_degree is not None and (
                    degree[u] >= max_degree or degree[v] >= max_degree
                ):
                    continue
                attach.append((u, v))
                degree[u] += 1
                degree[v] += 1
    return InsertionPatch(
        old_vertex_count=n_old,
        added=added,
        internal_edges=tuple(internal),
        attachment_edges=tuple(attach),
    )
