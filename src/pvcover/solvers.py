"""Exact and approximate k-path vertex cover solvers.

The exact branch-and-bound is the oracle every guarantee is measured
against. The two approximations mirror the simple min-weight-vertex loop
(ratio n-k+1) and a local-ratio scheme realizing the frequency-k set-cover
bound (ratio k).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Callable

from .errors import SizeLimitExceeded, UnknownOracle
from .graph import Graph
from .kpaths import PathIndex, _flags, _vertex_bits, _walk, covers_all_k_paths

EXACT_SIZE_LIMIT = 24


@dataclass(frozen=True)
class CoverSolution:
    """A vertex set of a graph, with its weight and whether it covers every
    k-path at this k. Built only through _solution, so feasible is always
    a verdict at k: a walk, an index scan or the walk that ends greedy."""

    vertices: frozenset
    k: int
    weight: int
    cardinality: int
    feasible: bool

    def sorted_vertices(self):
        return tuple(sorted(self.vertices))


def make_solution(g: Graph, vertices, k) -> CoverSolution:
    """Build a CoverSolution, recomputing weight and checking feasibility."""
    vertices = frozenset(vertices)
    return _solution(g, k, vertices, covers_all_k_paths(g, vertices, k))


def _solution(g: Graph, k, vertices, feasible):
    """A CoverSolution of vertices, with the caller's feasibility verdict."""
    vertices = frozenset(vertices)
    return CoverSolution(
        vertices=vertices,
        k=k,
        weight=g.weight_of(vertices),
        cardinality=len(vertices),
        feasible=feasible,
    )


@dataclass(frozen=True)
class ApproxOracle:
    """A pluggable cover algorithm with a declared (untrusted) ratio.

    solve(g, k) covers g. solve(g, k, index=part), with part a PathIndex of
    g[alive] at k, covers only part's paths: the cover is drawn from
    part.alive, in g's vertex ids. With below=b the oracle may return None
    instead, but only when the cover it would return weighs at least b; the
    exact oracle returns None iff no cover of part weighs less than b, and
    the local-ratio oracle on a part returns None as soon as its growing
    cover weighs b. Greedy ignores b. No oracle draws random numbers.
    """

    name: str
    # (Graph, k, index=None, below=math.inf) -> CoverSolution | None
    solve: Callable = field(compare=False)
    declared_ratio: str = "unknown"


def _index_of(g: Graph, k, index):
    """The given index, which must be of g at k, or a new index of all of g."""
    if index is None:
        return PathIndex(g, k)
    if index.g is not g or index.k != k:
        raise ValueError("path index was built for another graph or k")
    return index


def solve_exact(g: Graph, k, index=None, below=math.inf):
    """Minimum-weight cover by branch and bound.

    Branches on the first uncovered path v1 ... vk, in lexicographic order:
    the j-th child takes vj and leaves out v1 ... v(j-1), so no two nodes
    take the same set. Ties resolve to smaller cardinality then
    lexicographically smallest vertex list, so the returned optimum is
    canonical. With an index of g[alive], covers g[alive].

    Returns None iff no cover weighs less than below, and otherwise the
    same optimum. The local-ratio pass runs first: its Σδ, a lower bound on
    the optimum, settles most bounded calls before any branching, as the
    pass stops once Σδ reaches below, and its cover is the incumbent when
    it weighs less than below. The pass takes the index's far paths first
    and resumes from their shared state (`_local_ratio`), so on a
    region-last part the incumbent and Σδ need not be those of the
    lexicographic pass; the optimum, being canonical, is the same.

    The search reads the index's paths once, and builds from that list one
    path bitset per vertex (bit i set iff path i holds it), which only it
    reads. A node keeps the set of paths its chosen vertices miss as one
    int, left: a child that takes v keeps left minus v's paths, and the
    path to branch on is the lowest bit of left.

    EXACT_SIZE_LIMIT bounds the search: the bitsets, and one count per
    node, which is not stored. Up to that many alive vertices there are at
    most 2^EXACT_SIZE_LIMIT nodes. A larger call gets the same budget of
    one-word masks, counting its bitsets as one mask of
    ceil(g.n / EXACT_SIZE_LIMIT) words per path, as g.n bitsets of one bit
    per path hold that many bits: it counts the paths that avoid
    index.removed and raises SizeLimitExceeded, before it reads the path
    list or builds any bitset, if their masks alone pass it, else once one
    more node would, which bounds the time too. A call whose alive vertices
    together weigh less than below, and a search deeper than the recursion
    limit, raise too; the first before the index is built.
    """
    if k < 2:
        raise ValueError("k must be at least 2")
    removed = () if index is None else index.removed
    n = g.n - len(removed)
    if n > EXACT_SIZE_LIMIT and sum(g.weights) - g.weight_of(removed) < below:
        raise SizeLimitExceeded(f"n={n} exceeds exact-solver guard {EXACT_SIZE_LIMIT}")
    ix = _index_of(g, k, index)

    def key(vertices, weight):
        return (weight, len(vertices), tuple(sorted(vertices)))

    found = _local_ratio(g, ix, dual_below=below)
    if found is None:  # Σδ <= OPT reached below
        return None
    cover, _ = found
    # a cover of weight below or more can never replace this incumbent
    best = [(below, -1), None]
    w_cover = g.weight_of(cover)
    if w_cover < below:
        best = [key(cover, w_cover), frozenset(cover)]
    node = itertools.repeat(None).__next__
    if n > EXACT_SIZE_LIMIT:
        words = -(-g.n // EXACT_SIZE_LIMIT)
        n_paths = sum(map(ix.removed.isdisjoint, ix.base))
        room = (1 << EXACT_SIZE_LIMIT) // words - n_paths
        masks_of = f"exact search at n={n}: {n_paths} path masks"
        guard = f"of {words} words exceed guard 2^{EXACT_SIZE_LIMIT} words"
        if room < 1:
            raise SizeLimitExceeded(f"{masks_of} {guard}")
        node = itertools.repeat(None, room).__next__  # StopIteration past the budget
    paths = ix.paths
    # miss[v] clears the bits of the paths through v
    miss = {v: ~bits for v, bits in _vertex_bits(paths).items()}

    def branch(chosen, left, out, weight):
        node()
        if not left:
            cand = key(chosen, weight)
            if cand < best[0]:
                best[:] = cand, frozenset(chosen)
            return
        # any completion adds at least one more positive-weight vertex
        if weight >= best[0][0]:
            return
        # the first path chosen misses: the lowest bit of left
        for v in paths[(left & -left).bit_length() - 1]:
            b = 1 << v
            if not out & b:
                chosen.add(v)
                branch(chosen, left & miss[v], out, weight + g.weights[v - 1])
                chosen.remove(v)
                out |= b

    try:
        branch(set(), (1 << len(paths)) - 1, 0, 0)
    except RecursionError:
        raise SizeLimitExceeded(f"exact search at n={n} passes the recursion limit") from None
    except StopIteration:
        raise SizeLimitExceeded(f"{masks_of} and {room + 1} visited nodes {guard}") from None
    if best[1] is None:
        return None
    return _solution(g, k, best[1], ix.covers(best[1]))


def greedy_approx(g: Graph, k, alive=None):
    """Min-weight-vertex deletion loop; weight at most (n-k+1) times optimal.

    Covers g[alive] (all of g when alive is None). Each round deletes the
    lightest vertex, by (weight, id), of the walker's first k-path of
    g[left]; the ratio holds whichever k-path a round deletes from. A
    deletion creates no path, so the next round's first path follows this
    one, and its walk resumes just after it (`_walk(after=)`). The vertices
    left are walker flags (`_flags`), and a deletion clears one. The loop
    ends when the walk finds no path, so that verdict is the feasible flag.
    """
    if k < 2:
        raise ValueError("k must be at least 2")
    left = _flags(g, alive)
    cover = set()
    p = None
    while (p := next(_walk(g, k, left, after=p), None)) is not None:
        vm = min(p, key=lambda v: (g.weights[v - 1], v))
        cover.add(vm)
        left[vm] = 0
    return _solution(g, k, cover, p is None)


def _local_ratio(g: Graph, ix, below=math.inf, dual_below=math.inf):
    """The local-ratio pass over ix's paths: (cover in join order, Σδ).

    Each path the cover misses loses its minimum residual weight δ on every
    vertex, and zero-residual vertices join the cover. The δs pack the
    path-hitting LP's dual, so Σδ <= OPT, and the cover is within k of OPT;
    both hold in any path order. The cover and Σδ only grow, so the pass
    returns None once the cover weighs below or more, or once Σδ reaches
    dual_below.

    The pass takes ix.far's far paths first, then the near ones, each
    lexicographically; on a whole-graph index, whose split has no far
    paths, it is the lexicographic pass. The far paths avoid ix.removed, so
    every part that shares them shares the pass over them, kept in
    ix.far.state: residuals, cover, weight and Σδ. ix.far.walk yields only
    the far paths that the cover misses, and a call advances the shared
    pass only as far as its bounds need: once the kept cover or Σδ reach a
    bound, the full pass would have stopped too. A call whose bounds the far
    paths do not reach ends them, which sets ix.far.near, and passes the
    near paths from a copy of the kept state, skipping as it goes those that
    meet ix.removed or the cover: ix.paths, without building it.
    """
    if below <= 0 or dual_below <= 0:  # the empty cover and Σδ = 0 reach them
        return None
    far = ix.far
    if far.state is None:
        far.state = [[0, *g.weights], [], 0, 0]  # residual[v] for vertex v
    residual, cover, weight, total = state = far.state
    if far.near is None and weight < below and total < dual_below:
        alive = far.alive

        def leave(v):  # v joined the cover, so the far walk steps over it
            alive[v] = 0

        state[2:] = _pass(g, far.walk, leave, residual, cover, weight, total, below, dual_below)
        weight, total = state[2:]
        if weight < below and total < dual_below:  # the far paths have ended
            far.near = list(filter(set(cover).isdisjoint, far.base))
    if weight >= below or total >= dual_below:
        return None
    residual, cover = residual.copy(), cover.copy()
    skip = set(ix.removed).union(cover)  # the removed vertices, then the cover
    # filter calls skip.isdisjoint on each path as the loop reaches it, so
    # it sees the vertices that earlier paths added to skip
    paths = filter(skip.isdisjoint, far.near)
    weight, total = _pass(g, paths, skip.add, residual, cover, weight, total, below, dual_below)
    if weight >= below or total >= dual_below:
        return None
    return cover, total


def _pass(g, paths, join, residual, cover, weight, total, below, dual_below):
    """The local-ratio loop of `_local_ratio` over paths, each of which the
    cover must miss, from the given state: residual and cover are updated
    in place, and join is called with each vertex that joins the cover.
    Returns (weight, Σδ) once paths end, or once the cover weighs below or
    Σδ reaches dual_below; the path that reached a bound is taken in full,
    so paths resumes just after it.

    Weights are positive, so a vertex reaches residual 0 only on the path
    that joins it to the cover. A path the cover misses thus holds no
    zero-residual vertex, and the vertices it brings to 0 join the cover in
    ascending order.
    """
    for p in paths:
        delta = min(map(residual.__getitem__, p))
        total += delta
        zeros = []
        for v in p:
            residual[v] -= delta
            if not residual[v]:
                zeros.append(v)
        zeros.sort()
        for v in zeros:
            join(v)
            cover.append(v)
            weight += g.weights[v - 1]
        if weight >= below or total >= dual_below:
            break
    return weight, total


def local_ratio_approx(g: Graph, k, prune=True, index=None, below=math.inf):
    """Local-ratio cover; weight at most k times optimal.

    Runs the local-ratio pass; the optional reverse-delete pass then drops
    redundant vertices, latest first. With an index of g[alive], covers
    g[alive].

    Reverse delete keeps, for each path, the count of cover vertices on it,
    and for each cover vertex the paths through it. The cover meets every
    path, so a vertex may leave iff each of its paths has another cover
    vertex, a count above 1; leaving lowers those counts. Building the
    counts is one pass over the paths.

    Without pruning, a weight bound below makes the pass return None as
    soon as its cover weighs below or more; the cover only grows, so it
    would have weighed at least below. Pruning ignores below: reverse
    delete can make a heavy cover light.
    """
    if k < 2:
        raise ValueError("k must be at least 2")
    ix = _index_of(g, k, index)
    found = _local_ratio(g, ix, math.inf if prune else below)
    if found is None:
        return None
    cover, _ = found
    in_cover = set(cover)
    if prune:
        hits = []
        through = {v: [] for v in cover}
        for i, p in enumerate(ix.paths):
            on = [through[v] for v in p if v in through]
            for paths in on:
                paths.append(i)
            hits.append(len(on))
        for v in reversed(cover):
            if all(hits[i] > 1 for i in through[v]):
                for i in through[v]:
                    hits[i] -= 1
                in_cover.remove(v)
    return _solution(g, k, in_cover, ix.covers(in_cover))


class _Registry(dict):
    def __missing__(self, name):
        raise UnknownOracle(name)


def oracle_registry():
    """The named solvers behind `pvc solve`, `pvc bench` and the reoptimizers.

    solve(g, k) covers all of g; solve(g, k, index=part) covers a part
    index from construct_sol. Each takes below=math.inf: exact returns None
    iff no cover of the part is lighter, local-ratio on a part stops its
    pass and returns None once its cover weighs below, and greedy ignores
    it. local-ratio prunes (reverse delete) on a whole-graph solve
    and runs the bare ratio-k scheme on a part index, which it reads
    without building the part's path list. The entries call the solvers
    by module-global name, so a wrapper bound over that name sees every
    call.
    """
    return _Registry(
        {
            "exact": ApproxOracle(
                name="exact",
                solve=lambda g, k, index=None, below=math.inf: solve_exact(
                    g, k, index=index, below=below
                ),
                declared_ratio="1",
            ),
            "greedy": ApproxOracle(
                name="greedy",
                solve=lambda g, k, index=None, below=math.inf: greedy_approx(
                    g, k, alive=None if index is None else index.alive
                ),
                declared_ratio="n-k+1",
            ),
            "local-ratio": ApproxOracle(
                name="local-ratio",
                solve=lambda g, k, index=None, below=math.inf: local_ratio_approx(
                    g, k, prune=index is None, index=index, below=below
                ),
                declared_ratio="k",
            ),
        }
    )
