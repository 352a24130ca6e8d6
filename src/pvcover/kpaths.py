"""Detection, enumeration and coverage checks for simple paths of order k.

A k-path is stored as a tuple of k distinct vertex ids with consecutive pairs
adjacent, in canonical orientation: first endpoint < last endpoint. One
iterative depth-first walker answers every exhaustive question over a graph
and an alive vertex set, the k-paths of g[alive], without building that
subgraph: enumeration, detection (`has_k_path(g, k, alive)`) and coverage
(the alive set is the complement of the cover). The walker is the
deterministic oracle and decides whether a k-path exists. Its focus mode
(`has_k_path_through`, `k_paths_through`) yields only the k-paths of
g[alive] that meet a focus set: it grows two arms from each focus vertex
and drops that vertex from the free set once it is done, so each such path
comes out once and the work follows the paths near the focus, not the
whole of g[alive]. The walker can also resume just after a given path
(`_walk(after=)`).

A `LivePaths` is the walker's list of g[alive], read only as far as a
caller asks and shrunk by each vertex it loses; its next read resumes the
walk of the smaller g[alive] after the last path read, so it stays a prefix
of a fresh walk's list. `find_k_path` reads one such list, given or made
for the call: exhaustive search returns its first path, and color coding
is a randomized path picker over it, with one-sided error: a path it
returns is verified, but "None" may be a miss, so a caller that must know
asks the walker and keeps its path as the fallback. A trial gives the
path the colorful-path DP of Alon, Yuster and Zwick would: the first
colorful path of the list marks the DP's end vertex, every colorful path
from that vertex lies in the block of the list that starts there, and the
one whose reversal is least is the DP's sequence. The scan reads a
bounded prefix of the list; when that prefix cuts the block, a search
from the end vertex under the coloring finishes it, and when it holds no
colorful path, the DP's forward pass finds the end vertex, so a trial's
reads stay near the DP's cost however many k-paths there are.

A `PathIndex` keeps the enumerated k-paths of g[alive], with one vertex
bitmask per path (bit v-1 for vertex v) built when branch and bound
first asks. Asked many questions about one graph, it enumerates once: "does s
meet every path?" is one scan, and the index of g[alive - s] is a part
that keeps the enumerated list and the removed set, and filters on first
read of its paths. The filter keeps the walker's order, so a part equals a
fresh enumeration of that subgraph.
"""

from __future__ import annotations

import bisect
import itertools
import math
import random

from .errors import LimitExceeded
from .graph import Graph

DEFAULT_PATH_CAP = 10**7
DEFAULT_DELTA = 0.01
COLOR_CODING_GUARD = 10**10  # cap on trials * 2^k * n before color coding starts
SCAN_HITS = 3  # a color-coding trial scans this many times k^k/k! paths before the DP


def canonical(path):
    """Canonical orientation of an undirected path sequence."""
    path = tuple(path)
    return path if path[0] < path[-1] else path[::-1]


def is_k_path(g: Graph, path, k) -> bool:
    """True iff path is a simple path of order k in g."""
    if len(path) != k or len(set(path)) != k:
        return False
    return all(g.has_edge(u, v) for u, v in zip(path, path[1:]))


def _walk(g: Graph, k, alive, after=None):
    """Yield the canonical k-paths of g[alive], alive a set of vertex ids.

    One iterative depth-first search: start vertices ascending, sorted
    adjacency, so sequences come out in lexicographic order. A sequence is
    yielded only when its first vertex is below its last, which keeps one
    orientation of each path. `free` holds the alive vertices not on the
    current path, so the work follows |alive| rather than g.n. The last
    step is taken inline: once path + u has k-1 vertices, every free
    neighbor w of u above the start closes a path.

    With after, a canonical k-path of g whose vertices need not be alive,
    only the sequences that follow it are yielded: the search starts at its
    first vertex and steps down its deepest alive prefix, each level's
    neighbor iterator placed just past after's next vertex, so nothing
    before after is walked again.
    """
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
    bitmasks, which only branch and bound reads, are built on first use.
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
        """True iff the vertex set s meets every path: no path of base
        avoids both removed and s. One read of base, so a part builds no
        path list for it."""
        return not any(map((self.removed | self._vertex_set(s)).isdisjoint, self.base))

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
    return next(_walk(g, k, alive), None) is not None


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


def _trial_colors(live, s, n):
    """The first n or more values of the stream Random(s).randrange(live.k).

    live.streams maps s to the prefix drawn by the first call on the list.
    A list's alive set only shrinks, so that call asked for the most
    values, and later calls draw none.
    """
    drawn = live.streams.get(s)
    if drawn is None:
        rng = random.Random(s)
        drawn = live.streams[s] = [rng.randrange(live.k) for _ in range(n)]
    return drawn


class LivePaths:
    """The k-paths of g[alive] in the walker's order, read only as far as asked.

    `paths` holds the paths read so far, and `more()` reads on. `discard(v)`
    takes v out of `alive` and its paths out of `paths`; the next read
    resumes a walk of the smaller g[alive] just after the last path read
    (`_walk(after=)`). A deletion creates no path, so `paths` is always a
    prefix of what a fresh walk of g[alive] yields. alive is not checked.
    A read that would make `paths` longer than DEFAULT_PATH_CAP raises
    LimitExceeded. `complete` tells whether `paths` is the whole list.
    `streams` keeps the color streams that color coding has drawn on this
    list, keyed by stream seed (`_trial_colors`).
    """

    __slots__ = ("g", "k", "alive", "paths", "streams", "_walker", "_last", "_done")

    def __init__(self, g: Graph, k, alive):
        self.g = g
        self.k = k
        self.alive = set(alive)
        self.paths = []
        self.streams = {}
        self._walker = None
        self._last = None
        self._done = False

    def more(self):
        """Yield the paths of g[alive] that follow paths, each appended to
        paths before it is yielded."""
        if self._done:
            return
        if self._walker is None:
            self._walker = _walk(self.g, self.k, self.alive, after=self._last)
        for p in self._walker:
            if len(self.paths) >= DEFAULT_PATH_CAP:
                raise LimitExceeded(f"more than {DEFAULT_PATH_CAP} {self.k}-paths")
            self._last = p
            self.paths.append(p)
            yield p
        self._done = True

    @property
    def complete(self):
        """True once a read has reached the end of the walk, so that paths
        holds every k-path of g[alive]. A complete list stays complete
        after `discard`, because a deletion creates no path."""
        return self._done

    def first(self):
        """The lexicographically first k-path of g[alive], or None."""
        return self.paths[0] if self.paths else next(self.more(), None)

    def discard(self, v):
        """Take the alive vertex v out of alive and its paths out of paths."""
        self.alive.remove(v)
        self.paths = [p for p in self.paths if v not in p]
        self._walker = None


def _colorful_layers(adj, k, bit, starts):
    """layers[i] holds each (x, colors) such that a colorful sequence of
    i + 1 vertices runs from a vertex of starts to x with those colors.

    bit maps each alive vertex to its color bit; a vertex it lacks is dead.
    From every alive vertex, the last layer is the forward pass of the
    colorful-path DP of Alon, Yuster and Zwick, without parent pointers.
    """
    layers = [{(v, bit[v]) for v in starts}]
    for _ in range(k - 1):
        step = set()
        for x, mask in layers[-1]:
            for u in adj[x - 1]:
                b = bit.get(u)
                if b is not None and not mask & b:
                    step.add((u, mask | b))
        layers.append(step)
    return layers


def _least_colorful_from(adj, k, bit, v):
    """The colorful k-path from v whose reversal is least, as a sequence from v.

    The far end is the least x of the last of v's layers
    (`_colorful_layers`), and each vertex before it the least neighbor
    whose state, with the colors still free, is in the layer before.
    """
    layers = _colorful_layers(adj, k, bit, (v,))
    seq = [min(layers.pop())[0]]
    mask = (1 << k) - 1
    while layers:
        mask ^= bit[seq[-1]]
        layer = layers.pop()
        seq.append(min(x for x in adj[seq[-1] - 1] if (x, mask) in layer))
    return tuple(reversed(seq))


def _color_coding_trial(live, order, colors, limit):
    """One color-coding trial: the path the colorful-path DP would return.

    live is the LivePaths of g[alive] at k and order the alive vertices
    ascending; order[i] has color colors[i], and colors may run longer.
    The DP keeps, for each (vertex, color set) state, its lexicographically
    least colorful sequence, and returns the one ending at the least vertex
    v* that ends any colorful k-sequence, made canonical: of the colorful
    k-paths from v*, the one whose reversal is least. v* is the least first
    vertex of a colorful canonical path, so the first path of live, in
    walker order, whose color bits sum to 2^k - 1 starts at v*. A colorful
    sequence from v* ends above v*, so each one is a canonical path that
    starts at v*, and the walker lists those paths in one block.

    One reader takes at most limit paths of live. It scans to the first
    colorful path, then reads on through its block and returns the
    block's colorful path whose reversal is least. A scan that ends at the
    last path of g[alive] is a miss. When the reader stops at limit, the
    search from v* (`_least_colorful_from`) finishes the block, and a scan
    with no colorful path leaves v* to the DP's forward pass
    (`_colorful_layers`). Returns a verified k-path or None.
    """
    g, k = live.g, live.k
    full = (1 << k) - 1
    bit = {v: 1 << c for v, c in zip(order, colors)}
    color_bit = bit.__getitem__
    reader = enumerate(itertools.islice(itertools.chain(live.paths, live.more()), limit), 1)
    scanned = 0
    hit = None
    for scanned, p in reader:
        if sum(map(color_bit, p)) == full:
            hit = p
            break
    if hit is not None:
        path = hit
        for scanned, p in reader:
            if p[0] != hit[0]:
                break
            if sum(map(color_bit, p)) == full and p[::-1] < path[::-1]:
                path = p
        else:
            if scanned == limit:  # the block may go on past the reader
                path = _least_colorful_from(g.adj, k, bit, hit[0])
    elif scanned < limit:
        return None
    else:
        ends = _colorful_layers(g.adj, k, bit, bit)[-1]
        if not ends:
            return None
        path = _least_colorful_from(g.adj, k, bit, min(ends)[0])
    return path if is_k_path(g, path, k) else None


def find_k_path(g: Graph, k, *, strategy, seed=0, paths=None):
    """Find one k-path of g[alive]; strategy is "exhaustive" or
    "color-coding".

    paths, a LivePaths of g at k that the caller keeps, names g[alive] and
    is the list both strategies read; without it a LivePaths of all of g
    is made for this call.

    exhaustive: the list's first path, the lexicographically first k-path
    of g[alive], or None; never errs.

    color-coding: default_trials(k) random trials with derived seeds; trial
    t colors the alive vertices in ascending id order from
    Random(seed + t).randrange(k), which are the colors it gives the
    subgraph induced by alive, relabeled in that order, so both return the
    same path. Each trial returns the path the colorful-path DP would (see
    `_color_coding_trial`): it scans the list for the first colorful path
    and reads on through the paths that share its first vertex, reading
    at most max(SCAN_HITS * k^k / k!, |alive|) paths. It runs the search
    from that vertex only if the limit cuts those paths, and the DP's
    forward pass only if the paths read hold no colorful one. A uniformly colored
    k-path is colorful with probability k!/k^k, and the DP touches every
    alive vertex, so neither a trial's work nor the list grows with the
    number of k-paths. The list keeps each stream it is colored from, so
    later calls on it, at one seed, draw none twice and reuse its prefix
    once it has lost vertices. Any returned path is verified, so only
    "None" can be wrong. Raises LimitExceeded before the first trial when
    trials * 2^k * |alive| exceeds COLOR_CODING_GUARD, the budget of the
    DP, kept so that the same calls are refused.
    """
    if k < 2:
        raise ValueError("k must be at least 2")
    if strategy not in ("exhaustive", "color-coding"):
        raise ValueError(f"unknown strategy {strategy!r}")
    if paths is None:
        paths = LivePaths(g, k, g.vertices())
    elif paths.g is not g or paths.k != k:
        raise ValueError("paths must be a LivePaths of g at k")
    if strategy == "exhaustive":
        return paths.first()
    trials = default_trials(k)
    order = sorted(paths.alive)
    n = len(order)
    if trials * (1 << k) * n > COLOR_CODING_GUARD:
        raise LimitExceeded(
            f"color coding at k={k}, n={n} with {trials} trials exceeds guard {COLOR_CODING_GUARD}"
        )
    limit = max(-(-SCAN_HITS * k**k // math.factorial(k)), n)
    for t in range(trials):
        got = _color_coding_trial(paths, order, _trial_colors(paths, seed + t, n), limit)
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
