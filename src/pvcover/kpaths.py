"""Detection, enumeration and coverage checks for simple paths of order k.

A k-path is stored as a tuple of k distinct vertex ids with consecutive pairs
adjacent, in canonical orientation: first endpoint < last endpoint. One
iterative depth-first walker, `_walk`, yields the k-paths of g[alive] in
lexicographic order without building that subgraph. It takes the alive set
as a bytearray of g.n + 1 flags (`_flags`), which it copies once and then
reads and writes by index as vertices join and leave the current path.
Greedy, and the local-ratio pass over a region-last index's far paths,
keep their vertices in such flags, clear those that join the cover, and
resume the walk just after the last path (`_walk(after=)`), so every path
the walk yields is one they take.
`enumerate_k_paths` and the walks of a ball around the inserted vertices
(`_ball`; `construct_f`'s and `FarPaths`') take their lists from
`_walk_capped`, which holds the one path cap, and `FarPaths` counts its
other walks against the same cap; `find_k_path(g, k)` is the walker's
first path.

Whether g[alive] has a k-path at all is decided one component at a time
(`_has_path`): a component of fewer than k vertices has none, a tree has
one iff its longest path is long enough, and only the other components are
walked, so proving that no path is left costs about a BFS where the walker
would step from every vertex. `has_k_path` and `covers_all_k_paths` (the
alive set is the complement of the cover) answer from it.

A `PathIndex` keeps the k-paths of g split by a region r into far ones,
which avoid r, and near ones (`FarPaths`). Asked many questions about one
graph, it walks once: "does s meet every path?" is one scan, and
`avoiding(s)`, the one way to ask which k-paths survive in g - s, is a part
that keeps the path list and the removed set, and filters it, in the
walker's order, on each read of its paths. `PathIndex(g, k)` enumerates g
at once and splits it by all of g, so no path is far.
`PathIndex.region_last(g, k, r, va)` walks its paths only as far as they
are read: those through va at once, from a walk of the ball around va; the
far ones only as the local-ratio pass takes them; and every path, for a
read of the whole list, from one walk of g - va. A part that removes only
vertices of r shares the split. `_vertex_bits` gives each vertex the bitset
of the paths of a list that hold it: branch and bound reads those of its
part's paths, and the family property 2 checks those of the paths through
va.
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


def _without(g: Graph, s):
    """The walker's alive set of g - s, s a vertex set of g."""
    alive = _flags(g)
    for v in s:
        alive[v] = 0
    return alive


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


def _has_path(g: Graph, k, alive):
    """True iff g[alive] has a k-path, alive a `_flags` bytearray, decided
    one component at a time by a BFS over the flags.

    A component of fewer than k vertices has none. A tree, whose alive
    degrees sum to twice its vertex count less two, has one iff its longest
    path has at least k vertices: the BFS's last vertex ends a longest
    path, and a second BFS from it reaches k - 1 layers iff that path is
    long enough (the double sweep). The other components are searched by
    one `_walk` over their union, which finds a path iff one of them has one.
    """
    adj = g.adj
    unseen = bytearray(alive)
    cyclic = None
    start = 0
    while (start := unseen.find(1, start + 1)) != -1:
        unseen[start] = 0
        comp = [start]
        ends = 0
        for v in comp:  # the BFS appends to comp as it reads it
            for u in adj[v - 1]:
                if alive[u]:
                    ends += 1
                    if unseen[u]:
                        unseen[u] = 0
                        comp.append(u)
        if len(comp) < k:
            continue
        if ends == 2 * len(comp) - 2:
            layer = [(comp[-1], 0)]  # (vertex, the neighbor it was reached from)
            for _ in range(k - 1):
                layer = [(u, v) for v, back in layer for u in adj[v - 1] if u != back and alive[u]]
            if layer:
                return True
        else:
            if cyclic is None:
                cyclic = bytearray(len(alive))
            for v in comp:
                cyclic[v] = 1
    return cyclic is not None and next(_walk(g, k, cyclic), None) is not None


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


def _vertex_bits(paths):
    """{v: the int whose bit i is set iff paths[i] holds v}, for each vertex
    v on the paths. Path i is byte len(paths) - 1 - i of a column of
    b"0"/b"1" per vertex, read as one base-2 int, so every bitset is built
    in time linear in the paths (`|=` per path would be quadratic)."""
    cols = {v: bytearray(b"0") * len(paths) for v in set().union(*paths)}
    for j, p in enumerate(reversed(paths)):
        for v in p:
            cols[v][j] = 49  # b"1"
    return {v: int(col, 2) for v, col in cols.items()}


def _ball(g: Graph, s, radius):
    """The set of vertices within distance radius of the vertex set s."""
    ball, ring = set(s), s
    for _ in range(radius):
        ring = {u for v in ring for u in g.adj[v - 1]} - ball
        ball |= ring
    return ball


class FarPaths:
    """The k-paths of g split by region, a vertex set that holds va, and
    walked only as far as they are read. Every part that removes only
    vertices of region keeps all the far paths, which avoid region, and
    shares this object. `all_near` is the split by all of g, with no far
    paths.

    - `through`: the paths that meet va, walked at once: the paths of the
      ball of vertices within distance k - 1 of va that meet va.
    - `walk`: the far paths that the shared local-ratio pass takes
      (`solvers._local_ratio`), in the walker's order. Each is the walker's
      first k-path of g[alive] after the one before (`_walk(after=)`), and
      alive, g - region at first, loses each vertex that joins the pass's
      cover, so the walk yields no path that the pass would skip.
    - `base`: every path of g: one walk of g - va merged with through, on
      first read.
    - `near`: None until the far pass ends, and then the paths of base that
      avoid its cover (base itself in `all_near`). Every far path then
      meets that cover, so these all meet region; a near pass would skip
      the others.

    state is None until the far pass first runs, and then holds where it
    stopped. through, the far paths walked and the walk of base count
    against DEFAULT_PATH_CAP; the ball's paths count on their own.
    """

    __slots__ = ("g", "k", "va", "region", "through", "alive", "walk", "near", "state", "room",
                 "_base")

    def __init__(self, g, k, region, va):
        self.g, self.k, self.va, self.region = g, k, va, region
        self.through = [p for p in _walk_capped(g, k, _ball(g, va, k - 1)) if not va.isdisjoint(p)]
        self.room = DEFAULT_PATH_CAP - len(self.through)
        self.alive = _without(g, region)
        self.walk = self._walk_far()
        self.near = self.state = self._base = None

    @classmethod
    def all_near(cls, g, k, base):
        """The split of base, every k-path of g, by region all of g and no va:
        the walk yields no path, and the far pass has ended before it runs."""
        far = object.__new__(cls)
        far.g, far.k, far.va, far.region = g, k, frozenset(), frozenset(g.vertices())
        far.through, far.alive, far.walk, far.state = [], bytearray(g.n + 1), iter(()), None
        far.room, far.near, far._base = DEFAULT_PATH_CAP, base, base
        return far

    def _spend(self, n):
        """Count n more walked paths against the path cap."""
        if n > self.room:
            raise LimitExceeded(f"more than {DEFAULT_PATH_CAP} {self.k}-paths")
        self.room -= n

    def _walk_far(self):
        p = None
        while (p := next(_walk(self.g, self.k, self.alive, after=p), None)) is not None:
            self._spend(1)
            yield p

    @property
    def base(self):
        if self._base is None:
            walk = _walk(self.g, self.k, _without(self.g, self.va))
            rest = list(itertools.islice(walk, self.room + 1))
            self._spend(len(rest))
            self._base = sorted(self.through + rest)
        return self._base


class PathIndex:
    """The k-paths of g[alive] in lexicographic order, split by a region
    into far and near ones (`FarPaths`, far).

    `PathIndex(g, k)` indexes all of g by one `enumerate_k_paths` call, so
    the path cap applies, and splits it by all of g (`FarPaths.all_near`).
    A smaller alive set comes only from `avoiding(s)`, the index of
    g[alive - s], which walks nothing: the part shares the path list
    (`base`) and records the vertices it drops (`removed`), and `paths`, the
    paths of `base` that avoid `removed`, is built on each read. A pass that
    walks `base` and skips the paths meeting `removed` sees the same
    sequence, so it can filter as it goes and stop early. The part shares
    far while its removed set lies inside far.region, as it then keeps every
    far path; else it gets the all-near split of base.

    `PathIndex.region_last(g, k, region, va)` indexes g without enumerating
    it: far is walked only as far as it is read, and base is built on first
    read; until then `covers` answers by the component verdict.
    """

    __slots__ = ("g", "k", "removed", "far")

    def __init__(self, g: Graph, k):
        self.g, self.k, self.removed = g, k, frozenset()
        self.far = FarPaths.all_near(g, k, enumerate_k_paths(g, k))

    @classmethod
    def region_last(cls, g: Graph, k, region, va):
        """The index of all of g with far, its paths split by region | va, a
        vertex set of g. Only the ball around va is walked here."""
        if k < 2:
            raise ValueError("k must be at least 2")
        va = frozenset(va)
        region = frozenset(region) | va
        g._check_subset(region)
        ix = object.__new__(cls)
        ix.g, ix.k, ix.removed = g, k, frozenset()
        ix.far = FarPaths(g, k, region, va)
        return ix

    @property
    def base(self):
        """Every k-path of g in the walker's order."""
        return self.far.base

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

    def covers(self, s):
        """True iff the vertex set s meets every path: no path avoids both
        removed and s. With base built, one read of it, so a part builds no
        path list for it; else the no-path verdict on g[alive - s], which
        reads no path (`covers_all_k_paths`)."""
        s = frozenset(s)
        self.g._check_subset(s)
        gone = self.removed | s
        if self.far._base is None:
            return covers_all_k_paths(self.g, gone, self.k)
        return not any(map(gone.isdisjoint, self.base))

    def avoiding(self, s):
        """The index of g[alive - s]; its paths are filtered on each read.
        An s inside far.region, a vertex set of g, keeps far; any other s is
        checked and gets the all-near split of base."""
        s = frozenset(s)
        far = self.far
        if not s <= far.region:
            self.g._check_subset(s)
            far = FarPaths.all_near(self.g, self.k, self.base)
        sub = object.__new__(PathIndex)
        sub.g, sub.k, sub.removed, sub.far = self.g, self.k, self.removed | s, far
        return sub


def has_k_path(g: Graph, k, alive=None) -> bool:
    """True iff g[alive] (all of g when alive is None) has a path of order
    k: the component verdict (`_has_path`). alive is read once, and checked
    before the BFS."""
    if k < 2:
        raise ValueError("k must be at least 2")
    return _has_path(g, k, _flags(g, alive))


def covers_all_k_paths(g: Graph, s, k) -> bool:
    """True iff removing s leaves no path of order k: the component verdict
    (`_has_path`) on g - s."""
    if k < 2:
        raise ValueError("k must be at least 2")
    s = frozenset(s)
    g._check_subset(s)
    return not _has_path(g, k, _without(g, s))


def find_k_path(g: Graph, k):
    """The walker's first path, the lexicographically first k-path of g, or None."""
    if k < 2:
        raise ValueError("k must be at least 2")
    return next(_walk(g, k, _flags(g)), None)
