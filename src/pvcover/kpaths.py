"""Detection, enumeration and coverage checks for simple paths of order k.

A k-path is stored as a tuple of k distinct vertex ids with consecutive pairs
adjacent, in canonical orientation: first endpoint < last endpoint. One
iterative depth-first walker answers every exhaustive question over a graph
and an alive vertex set, the k-paths of g[alive], without building that
subgraph: enumeration, detection (`has_k_path(g, k, alive)`) and coverage
(the alive set is the complement of the cover); `find_k_path(g, k)` is its
first k-path of g. The walker takes the alive set as a bytearray of
g.n + 1 flags (`_flags`), which it copies once and then reads and writes
by index as vertices join and leave the current path; greedy keeps its
remaining vertices in such flags and clears one per round. The walker can
also resume just after a given path (`_walk(after=)`). `enumerate_k_paths`
and `construct_f`'s walk of the ball around the inserted vertices both
take their lists from `_walk_capped`, which holds the one path cap.

A `PathIndex` keeps the enumerated k-paths of g. Asked many questions
about one graph, it enumerates once: "does s meet every path?" is one scan,
and `avoiding(s)`, the one way to ask which k-paths survive in g - s, is a
part that keeps the enumerated list and the removed set, and filters it on
each read of its paths. The filter keeps the walker's order, so a part
equals a fresh enumeration of that subgraph.
`region_last(r)` also splits the list once into the paths that avoid r and
those that meet r, which the parts removing vertices of r share.
"""

from __future__ import annotations

import itertools

from .errors import LimitExceeded
from .graph import Graph

DEFAULT_PATH_CAP = 10**7


def _flags(g: Graph, alive=None):
    """The walker's alive set: g.n + 1 flags, set at the ids in alive (every
    vertex of g when alive is None). alive is read once, and an id outside
    g raises UnknownVertex."""
    if alive is None:
        return bytearray(b"\0" + b"\1" * g.n)
    flags = bytearray(g.n + 1)
    for v in alive:
        g._check_vertex(v)
        flags[v] = 1
    return flags


def _walk(g: Graph, k, alive, after=None):
    """Yield the canonical k-paths of g[alive], alive a `_flags` bytearray.

    One iterative depth-first search: start vertices ascending, each once,
    sorted adjacency, so sequences come out in lexicographic order. A
    sequence is yielded only when its first vertex is below its last, which
    keeps one orientation of each path. `free`, a copy of alive, flags the
    alive vertices not on the current path, and a step reads or writes one
    flag by index; the caller's flags are never written. The last step is
    taken inline: once path + u has k-1 vertices, every free neighbor w of
    u above the start closes a path.

    With after, a canonical k-path of g whose vertices need not be alive,
    only the sequences that follow it are yielded: the search starts at its
    first vertex and steps down its deepest alive prefix, each level's
    neighbor iterator placed just past after's next vertex, so nothing
    before after is walked again.
    """
    adj = g.adj
    free = bytearray(alive)
    # Starts are the set flags, ascending, each found by memchr, so a few
    # alive vertices in a long array cost little. Every flag a start's walk
    # clears is set again before the next start is read.
    start = 0 if after is None else after[0] - 1
    while (start := free.find(1, start + 1)) != -1:
        resume = after is not None and start == after[0]
        if k == 2:
            lo = after[1] if resume else start
            yield from ((start, u) for u in adj[start - 1] if u > lo and free[u])
            continue
        free[start] = 0
        path = [start]
        stack = [iter(adj[start - 1])]
        if resume:
            for u in after[1:-1]:
                nbrs = adj[path[-1] - 1]
                stack[-1] = iter(nbrs[nbrs.index(u) + 1 :])
                if not free[u]:
                    break
                if len(path) == k - 2:
                    for w in adj[u - 1]:
                        if w > after[-1] and free[w]:
                            yield (*path, u, w)
                    break
                free[u] = 0
                path.append(u)
                stack.append(iter(adj[u - 1]))
        while stack:
            for u in stack[-1]:
                if free[u]:
                    break
            else:
                stack.pop()
                free[path.pop()] = 1
                continue
            if len(path) < k - 2:
                free[u] = 0
                path.append(u)
                stack.append(iter(adj[u - 1]))
            else:
                for w in adj[u - 1]:
                    if w > start and free[w]:
                        yield (*path, u, w)


def enumerate_k_paths(g: Graph, k):
    """All k-paths of g, canonical, sorted.

    More than DEFAULT_PATH_CAP paths raise LimitExceeded.
    """
    if k < 2:
        raise ValueError("k must be at least 2")
    return _walk_capped(g, k)


def _walk_capped(g: Graph, k, alive=None):
    """The walker's k-paths of g[alive] (all of g when alive is None) as a
    list; more than DEFAULT_PATH_CAP of them raise LimitExceeded."""
    cap = DEFAULT_PATH_CAP
    found = list(itertools.islice(_walk(g, k, _flags(g, alive)), cap + 1))
    if len(found) > cap:
        raise LimitExceeded(f"more than {cap} {k}-paths")
    return found


class FarPaths:
    """The k-paths of a region-last index split by a vertex set, region:
    paths, those that avoid it, and near, those that meet it, each in the
    walker's order. Every part that removes only vertices of region keeps
    all of paths and shares this object. state is None until the
    local-ratio pass over paths first runs (`solvers._local_ratio`), and
    then holds its result for every part that shares them."""

    __slots__ = ("region", "paths", "near", "state")

    def __init__(self, region, paths, near):
        self.region = region
        self.paths = paths
        self.near = near
        self.state = None


class PathIndex:
    """The k-paths of g[alive] in lexicographic order.

    `PathIndex(g, k)` indexes all of g by one `enumerate_k_paths` call, so
    the path cap applies; a smaller alive set comes only from `avoiding`.
    Vertex set questions (`covers`, `avoiding`) are answered from the
    paths. `avoiding(s)` returns the index of g[alive - s] without a new
    walk or a filter: the part shares the enumerated list (`base`) and
    records the vertices it drops (`removed`), and `paths`, the paths of
    `base` that avoid `removed`, is built on each read. A pass that walks
    `base` and skips the paths meeting `removed` sees the same sequence, so
    it can filter as it goes and stop early.

    `region_last(r)` is the same index with its paths also split by r into
    `far` (a `FarPaths`): the far paths, which avoid r, and the near ones.
    A part keeps far while its removed set lies inside r, as it then keeps
    every far path, and the local-ratio pass on it takes the far paths
    first (`solvers._local_ratio`). Every other index has far None.
    """

    __slots__ = ("g", "k", "base", "removed", "far")

    def __init__(self, g: Graph, k):
        self.g = g
        self.k = k
        self.base = enumerate_k_paths(g, k)
        self.removed = frozenset()
        self.far = None

    @property
    def alive(self):
        """The vertices of g not in removed, built on each read."""
        return frozenset(self.g.vertices()) - self.removed

    @property
    def paths(self):
        """The paths of g[alive], in the walker's order: base itself when
        nothing is removed, else a new filtered list on each read."""
        if not self.removed:
            return self.base
        return list(filter(self.removed.isdisjoint, self.base))

    def _vertex_set(self, s):
        s = frozenset(s)
        self.g._check_subset(s)
        return s

    def covers(self, s):
        """True iff the vertex set s meets every path: no path of base
        avoids both removed and s. One read of base, so a part builds no
        path list for it."""
        return not any(map((self.removed | self._vertex_set(s)).isdisjoint, self.base))

    def avoiding(self, s):
        """The index of g[alive - s]; its paths are filtered on each read.
        An s inside far.region keeps far, and `region_last` checked it."""
        s = frozenset(s)
        far = self.far if self.far is not None and s <= self.far.region else None
        if far is None:
            self.g._check_subset(s)
        sub = object.__new__(PathIndex)
        sub.g = self.g
        sub.k = self.k
        sub.base = self.base
        sub.removed = self.removed | s
        sub.far = far
        return sub

    def region_last(self, region):
        """This index with its paths split by region, a vertex set of g, into
        far and near ones (`FarPaths`), in one pass over paths."""
        region = self._vertex_set(region)
        far, near = [], []
        for p in self.paths:
            (far if region.isdisjoint(p) else near).append(p)
        ix = self.avoiding(())
        ix.far = FarPaths(region, far, near)
        return ix


def has_k_path(g: Graph, k, alive=None) -> bool:
    """True iff the walker finds a path of order k in g[alive] (all of g when
    alive is None). alive is read once, and checked before the walk."""
    if k < 2:
        raise ValueError("k must be at least 2")
    return next(_walk(g, k, _flags(g, alive)), None) is not None


def covers_all_k_paths(g: Graph, s, k) -> bool:
    """True iff removing s leaves no path of order k."""
    if k < 2:
        raise ValueError("k must be at least 2")
    s = frozenset(s)
    g._check_subset(s)
    alive = _flags(g)
    for v in s:
        alive[v] = 0
    return next(_walk(g, k, alive), None) is None


def find_k_path(g: Graph, k):
    """The walker's first path, the lexicographically first k-path of g, or None."""
    if k < 2:
        raise ValueError("k must be at least 2")
    return next(_walk(g, k, _flags(g)), None)
