"""Detection, enumeration and coverage checks for simple paths of order k.

A k-path is stored as a tuple of k distinct vertex ids with consecutive pairs
adjacent, in canonical orientation: first endpoint < last endpoint. One
iterative depth-first walker answers every exhaustive question over a graph
and an alive vertex set, the k-paths of g[alive], without building that
subgraph: enumeration, detection (`has_k_path(g, k, alive)`), coverage (the
alive set is the complement of the cover) and the first path
(`first_k_path`). The walker is the deterministic oracle and decides
whether a k-path exists. Its focus mode (`has_k_path_through`,
`k_paths_through`) yields only the k-paths of g[alive] that meet a focus
set: it grows two arms from each focus vertex and drops that vertex from
the free set once it is done, so each such path comes out once and the work
follows the paths near the focus, not the whole of g[alive]. Color coding,
also over g[alive] without a copy, is a randomized path picker with
one-sided error: a path it returns is verified, but "None" may be a miss,
so a caller that must know asks the walker and keeps its path as the
fallback.

A `PathIndex` keeps the enumerated k-paths of g[alive], with one vertex
bitmask per path (bit v-1 for vertex v) built when a mask test first
asks. Asked many questions about one graph, it enumerates once: "does s
meet every path?" is one scan, and the index of g[alive - s] is a part
that keeps the enumerated list and the removed set, and filters on first
read of its paths. The filter keeps the walker's order, so a part equals a
fresh enumeration of that subgraph.
"""

from __future__ import annotations

import itertools
import math
import random

from .errors import LimitExceeded
from .graph import Graph

DEFAULT_PATH_CAP = 10**7
DEFAULT_DELTA = 0.01
EXHAUSTIVE_N = 16  # greedy uses color coding above this many vertices
COLOR_CODING_GUARD = 10**10  # cap on trials * 2^k * n before color coding starts


def canonical(path):
    """Canonical orientation of an undirected path sequence."""
    path = tuple(path)
    return path if path[0] < path[-1] else path[::-1]


def is_k_path(g: Graph, path, k) -> bool:
    """True iff path is a simple path of order k in g."""
    if len(path) != k or len(set(path)) != k:
        return False
    return all(g.has_edge(u, v) for u, v in zip(path, path[1:]))


def _walk(g: Graph, k, alive):
    """Yield the canonical k-paths of g[alive], alive a set of vertex ids.

    One iterative depth-first search: start vertices ascending, sorted
    adjacency, so sequences come out in lexicographic order. A sequence is
    yielded only when its first vertex is below its last, which keeps one
    orientation of each path. `free` holds the alive vertices not on the
    current path, so the work follows |alive| rather than g.n. The last
    step is taken inline: once path + u has k-1 vertices, every free
    neighbor w of u above the start closes a path.
    """
    adj = g.adj
    free = set(alive)
    for start in sorted(free):
        if k == 2:
            yield from ((start, u) for u in adj[start - 1] if u > start and u in free)
            continue
        free.remove(start)
        path = [start]
        stack = [iter(adj[start - 1])]
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


def first_k_path(g: Graph, k, alive):
    """The lexicographically first k-path of g[alive], or None.

    alive is a set of vertex ids of g and is not checked. The first sequence
    the walker yields is canonical: its reverse is also a valid sequence and
    compares larger.
    """
    return next(_walk(g, k, alive), None)


def _arms(adj, free, root, lo, hi):
    """Yield each tuple (a1, ..., aL), lo <= L <= hi, of vertices in free such
    that root, a1, ..., aL is a simple path; root is not in free.

    Iterative, like `_walk`. While an arm is out, its vertices are not in
    free, so a caller may grow a second, disjoint arm from root before it
    asks for the next one.
    """
    if lo == 0:
        yield ()
    if hi == 0:
        return
    arm = []
    stack = [iter(adj[root - 1])]
    while stack:
        for u in stack[-1]:
            if u in free:
                break
        else:
            stack.pop()
            if arm:
                free.add(arm.pop())
            continue
        free.remove(u)
        arm.append(u)
        if len(arm) >= lo:
            yield tuple(arm)
        if len(arm) < hi:
            stack.append(iter(adj[u - 1]))
        else:
            free.add(arm.pop())


def _walk_through(g: Graph, k, alive, focus):
    """Yield each canonical k-path of g[alive] that meets focus exactly once.

    Focus vertices are taken in ascending order, and a path is yielded from
    the first of them it holds: once a focus vertex f is done it leaves the
    free set, so later ones never see a path through it. At f a path splits
    into two arms with k-1 vertices between them. The long arm has at least
    k//2 = ceil((k-1)/2) of them, and the short arm the rest, grown disjoint
    from it. Arms of equal length come in both orders; the one whose long
    arm ends below the short arm's end is kept. Order of yield is not sorted.
    """
    adj = g.adj
    free = set(alive)
    for f in sorted(free.intersection(focus)):
        free.remove(f)
        for long in _arms(adj, free, f, k // 2, k - 1):
            rest = k - 1 - len(long)
            for short in _arms(adj, free, f, rest, rest):
                if len(long) > rest or long[-1] < short[-1]:
                    yield canonical((*long[::-1], f, *short))


def has_k_path_through(g: Graph, k, alive, focus) -> bool:
    """True iff g[alive] has a k-path that meets focus; neither set is checked."""
    return next(_walk_through(g, k, alive, focus), None) is not None


def enumerate_k_paths(g: Graph, k, alive=None):
    """All k-paths of g[alive] (all of g when alive is None), canonical, sorted.

    More than DEFAULT_PATH_CAP paths raise LimitExceeded.
    """
    if k < 2:
        raise ValueError("k must be at least 2")
    if alive is None:
        alive = g.vertices()
    else:
        g._check_subset(alive)
    cap = DEFAULT_PATH_CAP
    found = list(itertools.islice(_walk(g, k, alive), cap + 1))
    if len(found) > cap:
        raise LimitExceeded(f"more than {cap} {k}-paths")
    return found


class PathIndex:
    """The k-paths of g[alive] in lexicographic order, with their vertex masks.

    Built by one `enumerate_k_paths` call, so the path cap applies. Vertex
    set questions (`covers`, `avoiding`) are answered from the paths; the
    bitmasks, for `covers_mask` and branch and bound, are built on first use.
    `avoiding(s)` returns the index of g[alive - s] without a new walk or a
    filter: the part shares the enumerated list (`base`) and records the
    vertices it drops (`removed`), and `paths`, the paths of `base` that
    avoid `removed`, is built on first read. A pass that walks `base` and
    skips the paths meeting `removed` sees the same sequence, so it can
    filter as it goes and stop early.
    """

    __slots__ = ("g", "k", "alive", "base", "removed", "_paths", "_masks")

    def __init__(self, g: Graph, k, alive=None):
        self.g = g
        self.k = k
        self.alive = frozenset(g.vertices() if alive is None else alive)
        self.base = self._paths = enumerate_k_paths(g, k, alive=self.alive)
        self.removed = frozenset()
        self._masks = None

    @property
    def paths(self):
        """The paths of g[alive], in the walker's order."""
        if self._paths is None:
            self._paths = list(filter(self.removed.isdisjoint, self.base))
        return self._paths

    @property
    def masks(self):
        """One vertex bitmask per path, in order."""
        if self._masks is None:
            # a path's vertices are distinct, so the sum of their bits is their OR
            bit = [0, *(1 << i for i in range(self.g.n))].__getitem__
            self._masks = [sum(map(bit, p)) for p in self.paths]
        return self._masks

    def _vertex_set(self, s):
        s = frozenset(s)
        self.g._check_subset(s)
        return s

    def covers(self, s):
        """True iff the vertex set s meets every path."""
        return not any(map(self._vertex_set(s).isdisjoint, self.paths))

    def covers_mask(self, mask):
        """True iff every path has a vertex in the set with this bitmask."""
        return all(mask & pm for pm in self.masks)

    def avoiding(self, s):
        """The index of g[alive - s]; its paths are filtered on first read."""
        s = self._vertex_set(s)
        sub = object.__new__(PathIndex)
        sub.g = self.g
        sub.k = self.k
        sub.alive = self.alive - s
        sub.base = self.base
        sub.removed = self.removed | s
        sub._paths = None
        sub._masks = None
        return sub


def has_k_path(g: Graph, k, alive=None) -> bool:
    """True iff g[alive] (all of g when alive is None) has a path of order k.

    For k <= 3 no search is needed: g[alive] has a k-path iff some alive
    vertex has k-1 alive neighbors (for k=3 this is the dissociation-set
    characterization: no 3-path iff max degree <= 1).
    """
    if k < 2:
        raise ValueError("k must be at least 2")
    if alive is None:
        alive = frozenset(g.vertices())
    else:
        alive = frozenset(alive)
        g._check_subset(alive)
    if k <= 3:
        return any(len(alive.intersection(g.adj[v - 1])) >= k - 1 for v in alive)
    return first_k_path(g, k, alive) is not None


def covers_all_k_paths(g: Graph, s, k) -> bool:
    """True iff removing s leaves no path of order k."""
    s = frozenset(s)
    g._check_subset(s)
    return not has_k_path(g, k, alive=frozenset(g.vertices()) - s)


def default_trials(k):
    """Trials for a per-path miss rate of at most delta = DEFAULT_DELTA:
    ceil(e^k * ln(1/delta)).

    Raises LimitExceeded when e^k overflows a float (k >= 709).
    """
    try:
        return math.ceil(math.exp(k) * math.log(1.0 / DEFAULT_DELTA))
    except OverflowError:
        raise LimitExceeded(f"color-coding trial count for k={k} is too large") from None


def _trial_colors(k, s, n, draws):
    """The first n values of the stream Random(s).randrange(k).

    draws, a dict the caller may keep across calls or None, maps (k, s) to
    the longest prefix of that stream drawn so far, so a later call that
    needs no more values draws none.
    """
    drawn = None if draws is None else draws.get((k, s))
    if drawn is None or len(drawn) < n:
        rng = random.Random(s)
        drawn = [rng.randrange(k) for _ in range(n)]
        if draws is not None:
            draws[(k, s)] = drawn
    return drawn


def _colorful_path_trial(g: Graph, k, order, colors):
    """One color-coding trial on g[alive]: colorful-path DP under a k-coloring.

    order lists the alive vertices ascending and colors[i] is the color of
    order[i]; colors may run longer. Each vertex's color bit sits in a list indexed by vertex id.
    A vertex off alive holds the full mask, which every state's subset
    meets, so the DP walks g.adj and skips it by the same test that skips a
    used color. A trial thus sees the same colors, states and path as one
    on the subgraph induced by alive, relabeled in ascending id order.
    Returns a verified k-path or None. States are
    (vertex, color-subset) pairs with a parent pointer for reconstruction;
    a state's subset holds its vertex's color, so a trial has at most
    |alive| * 2^(k-1) of them.
    """
    full = (1 << k) - 1
    bit = [full] * (g.n + 1)
    for v, c in zip(order, colors):
        bit[v] = 1 << c
    adj = g.adj
    # parent[(v, mask)] = previous vertex on some colorful path ending at v
    parent = {}
    frontier = []
    for v in order:
        mask = bit[v]
        parent[(v, mask)] = None
        frontier.append((v, mask))
    for _ in range(k - 1):
        nxt = []
        for v, mask in frontier:
            for u in adj[v - 1]:
                b = bit[u]
                if mask & b:
                    continue
                key = (u, mask | b)
                if key not in parent:
                    parent[key] = v
                    nxt.append(key)
        frontier = nxt
    for v in order:
        if (v, full) in parent:
            path = []
            key = (v, full)
            cur = v
            while cur is not None:
                path.append(cur)
                cur = parent[key]
                if cur is not None:
                    key = (cur, key[1] & ~bit[path[-1]])
            path.reverse()
            if is_k_path(g, path, k):
                return canonical(path)
    return None


def find_k_path(g: Graph, k, *, strategy, trials=None, seed=0, alive=None, draws=None):
    """Find one k-path of g[alive] (all of g when alive is None); strategy
    is "exhaustive" or "color-coding".

    exhaustive: lexicographically first k-path or None, never errs.
    color-coding: random trials with derived seeds; trial t colors the
    alive vertices in ascending id order from Random(seed + t).randrange(k),
    which are the colors it gives the subgraph induced by alive, relabeled
    in that order, so both return the same path. Any returned path is
    verified, so only "None" can be wrong. With a draws dict (see
    `_trial_colors`) kept across calls at one k and seed, each stream is
    drawn once and later calls on fewer vertices reuse its prefix. Raises
    LimitExceeded before the first trial when trials * 2^k * |alive|
    exceeds COLOR_CODING_GUARD.
    """
    if k < 2:
        raise ValueError("k must be at least 2")
    if alive is None:
        alive = g.vertices()
    else:
        g._check_subset(alive)
    if strategy == "exhaustive":
        return first_k_path(g, k, alive)
    if strategy != "color-coding":
        raise ValueError(f"unknown strategy {strategy!r}")
    if trials is None:
        trials = default_trials(k)
    if trials < 1:
        raise ValueError("color coding needs at least one trial")
    order = sorted(alive)
    n = len(order)
    if trials * (1 << k) * n > COLOR_CODING_GUARD:
        raise LimitExceeded(
            f"color coding at k={k}, n={n} with {trials} trials exceeds guard {COLOR_CODING_GUARD}"
        )
    for t in range(trials):
        got = _colorful_path_trial(g, k, order, _trial_colors(k, seed + t, n, draws))
        if got is not None:
            return got
    return None


def k_paths_through(g: Graph, k, focus):
    """The k-paths of g that contain a focus vertex, canonical, sorted.

    DEFAULT_PATH_CAP counts only these paths.
    """
    if k < 2:
        raise ValueError("k must be at least 2")
    focus = frozenset(focus)
    g._check_subset(focus)
    cap = DEFAULT_PATH_CAP
    found = list(itertools.islice(_walk_through(g, k, g.vertices(), focus), cap + 1))
    if len(found) > cap:
        raise LimitExceeded(f"more than {cap} {k}-paths through the focus set")
    return sorted(found)
