"""Detection, enumeration and coverage checks for simple paths of order k.

A k-path is stored as a tuple of k distinct vertex ids with consecutive pairs
adjacent, in canonical orientation: first endpoint < last endpoint. One
iterative depth-first walker answers every exhaustive question over a graph
and an alive vertex set, the k-paths of g[alive], without building that
subgraph: enumeration, detection (`has_k_path(g, k, alive)`), coverage (the
alive set is the complement of the cover) and the first path
(`first_k_path`). The walker is the deterministic oracle and decides
whether a k-path exists. Color coding is a randomized path picker with
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


def enumerate_k_paths(g: Graph, k, cap=DEFAULT_PATH_CAP, alive=None):
    """All k-paths of g[alive] (all of g when alive is None), canonical, sorted."""
    if k < 2:
        raise ValueError("k must be at least 2")
    if alive is None:
        alive = g.vertices()
    else:
        g._check_subset(alive)
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

    def __init__(self, g: Graph, k, alive=None, cap=DEFAULT_PATH_CAP):
        self.g = g
        self.k = k
        self.alive = frozenset(g.vertices() if alive is None else alive)
        self.base = self._paths = enumerate_k_paths(g, k, cap=cap, alive=self.alive)
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


def default_trials(k, delta=DEFAULT_DELTA):
    """Trial count giving per-path miss rate <= delta: ceil(e^k * ln(1/delta)).

    Raises LimitExceeded when e^k overflows a float (k >= 709 at the default delta).
    """
    try:
        return math.ceil(math.exp(k) * math.log(1.0 / delta))
    except OverflowError:
        raise LimitExceeded(f"color-coding trial count for k={k} is too large") from None


def _colorful_path_trial(g: Graph, k, rng, state_cap):
    """One color-coding trial: random k-coloring + colorful-path DP.

    Returns a verified k-path or None. States are (vertex, color-subset)
    pairs with a parent pointer for reconstruction.
    """
    color = [rng.randrange(k) for _ in range(g.n)]
    full = (1 << k) - 1
    # parent[(v, mask)] = previous vertex on some colorful path ending at v
    parent = {}
    frontier = []
    for v in g.vertices():
        mask = 1 << color[v - 1]
        parent[(v, mask)] = None
        frontier.append((v, mask))
    for _ in range(k - 1):
        nxt = []
        for v, mask in frontier:
            for u in g.adj[v - 1]:
                bit = 1 << color[u - 1]
                if mask & bit:
                    continue
                key = (u, mask | bit)
                if key not in parent:
                    parent[key] = v
                    nxt.append(key)
                    if len(parent) > state_cap:
                        raise LimitExceeded("colorful-path state cap exceeded")
        frontier = nxt
    for v in g.vertices():
        if (v, full) in parent:
            path = []
            key = (v, full)
            cur = v
            while cur is not None:
                path.append(cur)
                cur = parent[key]
                if cur is not None:
                    key = (cur, key[1] & ~(1 << color[path[-1] - 1]))
            path.reverse()
            if is_k_path(g, path, k):
                return canonical(path)
    return None


def find_k_path(g: Graph, k, *, strategy, trials=None, seed=0, state_cap=None):
    """Find one k-path; strategy is "exhaustive" or "color-coding".

    exhaustive: lexicographically first k-path or None, never errs.
    color-coding: random trials with derived seeds (seed + trial index); any
    returned path is verified, so only "None" can be wrong. Raises
    LimitExceeded before the first trial when trials * 2^k * n exceeds
    COLOR_CODING_GUARD.
    """
    if k < 2:
        raise ValueError("k must be at least 2")
    if strategy == "exhaustive":
        return first_k_path(g, k, g.vertices())
    if strategy != "color-coding":
        raise ValueError(f"unknown strategy {strategy!r}")
    if trials is None:
        trials = default_trials(k)
    if trials < 1:
        raise ValueError("color coding needs at least one trial")
    if state_cap is None:
        state_cap = (1 << k) * max(g.n, 1)
    if trials * (1 << k) * g.n > COLOR_CODING_GUARD:
        raise LimitExceeded(
            f"color coding at k={k}, n={g.n} with {trials} trials exceeds guard {COLOR_CODING_GUARD}"
        )
    for t in range(trials):
        got = _colorful_path_trial(g, k, random.Random(seed + t), state_cap)
        if got is not None:
            return got
    return None


def k_paths_through(g: Graph, k, focus, cap=DEFAULT_PATH_CAP):
    """The enumerated k-paths containing at least one focus vertex."""
    focus = frozenset(focus)
    g._check_subset(focus)
    if not focus:
        return []
    return [p for p in enumerate_k_paths(g, k, cap=cap) if focus.intersection(p)]
