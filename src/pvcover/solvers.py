"""Exact and approximate k-path vertex cover solvers.

The exact branch-and-bound is the oracle every guarantee is measured
against. The two approximations mirror the simple min-weight-vertex loop
(ratio n-k+1) and a local-ratio scheme realizing the frequency-k set-cover
bound (ratio k).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

from .errors import SizeLimitExceeded, UnknownOracle
from .graph import Graph, induced_subgraph
from .kpaths import (
    DEFAULT_PATH_CAP,
    EXHAUSTIVE_N,
    PathIndex,
    covers_all_k_paths,
    find_k_path,
    first_k_path,
)

EXACT_SIZE_LIMIT = 24
ENUMERATE_SIZE_LIMIT = 14


@dataclass(frozen=True)
class CoverSolution:
    """A vertex set of a graph, with its weight and whether it covers every
    k-path at this k. Built only through _solution, so feasible is always
    a verdict at k: a walk, an index scan or greedy's last walker call."""

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

    solve(g, k, seed) covers g. solve(g, k, seed, index=part), with part a
    PathIndex of g[alive] at k, covers only part's paths: the cover is drawn
    from part.alive, in g's vertex ids. With below=b the oracle may return
    None instead, but only when the cover it would return weighs at least b;
    the exact oracle returns None iff no cover of part weighs less than b,
    and the local-ratio oracle on a part returns None as soon as its growing
    cover weighs b. Greedy ignores b.
    """

    name: str
    # (Graph, k, seed, index=None, below=None) -> CoverSolution | None
    solve: Callable = field(compare=False)
    declared_ratio: str = "unknown"


def _index_of(g: Graph, k, index, cap=DEFAULT_PATH_CAP):
    """The given index, which must be of g at k, or a new index of all of g."""
    if index is None:
        return PathIndex(g, k, cap=cap)
    if index.g is not g or index.k != k:
        raise ValueError("path index was built for another graph or k")
    return index


def solve_exact(g: Graph, k, size_limit=EXACT_SIZE_LIMIT, index=None, below=None):
    """Minimum-weight cover by branch and bound.

    Branches on the k vertices of the first uncovered path in lexicographic
    order; ties resolve to smaller cardinality then lexicographically
    smallest vertex list, so the returned optimum is canonical. With an
    index of g[alive], covers g[alive]; the size guard applies to |alive|.

    With a weight bound below, returns None iff no cover weighs less than
    below, and otherwise the same optimum. The local-ratio Σδ, a lower
    bound on the optimum, settles most such calls before any branching.
    """
    if k < 2:
        raise ValueError("k must be at least 2")
    n = g.n if index is None else len(index.alive)
    if n > size_limit:
        raise SizeLimitExceeded(f"n={n} exceeds exact-solver guard {size_limit}")
    ix = _index_of(g, k, index)

    def key(vertices, weight):
        return (weight, len(vertices), tuple(sorted(vertices)))

    all_v = ix.alive
    best = [key(all_v, g.weight_of(all_v)), all_v]
    if below is not None:
        cover, bound = _local_ratio(g, ix)
        if bound >= below:
            return None
        # a cover of weight below or more can never replace this incumbent
        best = [(below, -1), None]
        w_cover = g.weight_of(cover)
        if w_cover < below:
            best = [key(cover, w_cover), frozenset(cover)]
    masks = ix.masks
    paths = ix.paths
    n_paths = len(masks)
    visited = set()

    def branch(chosen, mask, weight, i):
        if mask in visited:
            return
        visited.add(mask)
        # chosen contains the parent's set, so paths before i are still hit
        while i < n_paths and mask & masks[i]:
            i += 1
        if i == n_paths:
            cand = key(chosen, weight)
            if cand < best[0]:
                best[0] = cand
                best[1] = frozenset(chosen)
            return
        # any completion adds at least one more positive-weight vertex
        if weight >= best[0][0]:
            return
        for v in paths[i]:
            if v in chosen:
                continue
            chosen.add(v)
            branch(chosen, mask | (1 << (v - 1)), weight + g.weights[v - 1], i + 1)
            chosen.remove(v)

    branch(set(), 0, 0, 0)
    if best[1] is None:
        return None
    return _solution(g, k, best[1], ix.covers(best[1]))


def enumerate_optima(g: Graph, k, size_limit=ENUMERATE_SIZE_LIMIT):
    """All minimum-weight covers by full subset enumeration, sorted canonically."""
    if g.n > size_limit:
        raise SizeLimitExceeded(f"n={g.n} exceeds enumeration guard {size_limit}")
    index = PathIndex(g, k)
    if not index.paths:
        return [frozenset()]
    verts = list(g.vertices())
    best_val = None
    optima = []
    for mask in range(1 << g.n):
        if not index.covers_mask(mask):
            continue
        s = frozenset(v for v in verts if mask & (1 << (v - 1)))
        val = g.weight_of(s)
        if best_val is None or val < best_val:
            best_val = val
            optima = [s]
        elif val == best_val:
            optima.append(s)
    optima.sort(key=lambda s: (len(s), tuple(sorted(s))))
    return optima


def greedy_approx(g: Graph, k, seed=0, alive=None):
    """Min-weight-vertex deletion loop; weight at most (n-k+1) times optimal.

    Covers g[alive] (all of g when alive is None). Each round the walker
    decides whether g[left] still has a k-path; the loop ends when it has
    none, so that verdict is the feasible flag. While more than
    EXHAUSTIVE_N vertices are left and k > 3, color coding (seeded by seed)
    picks the path on the relabeled subgraph; on a miss, and outside that
    regime, the walker's lexicographically first path is used.
    """
    if k < 2:
        raise ValueError("k must be at least 2")
    start = frozenset(g.vertices() if alive is None else alive)
    g._check_subset(start)
    left = set(start)
    cover = set()
    while (p := first_k_path(g, k, left)) is not None:
        if len(left) > EXHAUSTIVE_N and k > 3:
            sub, orig = induced_subgraph(g, left)
            found = find_k_path(sub, k, strategy="color-coding", seed=seed)
            if found is not None:
                p = [orig[v - 1] for v in found]
        vm = min(p, key=lambda v: (g.weights[v - 1], v))
        cover.add(vm)
        left.remove(vm)
    return _solution(g, k, cover, p is None)


def _local_ratio(g: Graph, ix, below=math.inf):
    """The local-ratio pass over ix's paths: (cover in join order, Σδ).

    Each path the cover misses, taken lexicographically, loses its minimum
    residual weight δ on every vertex, and zero-residual vertices join the
    cover. The δs pack the path-hitting LP's dual, so Σδ <= OPT.

    The pass walks ix.base and skips the paths that meet ix.removed or the
    cover, which is ix.paths without building that list. The cover only
    grows, so once it weighs below or more the pass returns None.
    """
    if below <= 0:  # the empty cover already weighs below
        return None
    residual = list(g.weights)
    cover = []
    skip = set(ix.removed)  # the removed vertices, then the cover
    weight = total = 0
    for p in ix.base:
        if not skip.isdisjoint(p):
            continue
        delta = min(residual[v - 1] for v in p)
        total += delta
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


def local_ratio_approx(g: Graph, k, prune=True, cap=DEFAULT_PATH_CAP, index=None, below=None):
    """Local-ratio cover; weight at most k times optimal.

    Runs the local-ratio pass; the optional reverse-delete pass then drops
    redundant vertices, latest first. With an index of g[alive], covers
    g[alive].

    Without pruning, a weight bound below makes the pass return None as
    soon as its cover weighs below or more; the cover only grows, so it
    would have weighed at least below. Pruning ignores below: reverse
    delete can make a heavy cover light.
    """
    if k < 2:
        raise ValueError("k must be at least 2")
    ix = _index_of(g, k, index, cap=cap)
    found = _local_ratio(g, ix, math.inf if prune or below is None else below)
    if found is None:
        return None
    cover, _ = found
    in_cover = set(cover)
    if prune:
        mask = sum(1 << (v - 1) for v in in_cover)
        for v in reversed(cover):
            trial = mask & ~(1 << (v - 1))
            if ix.covers_mask(trial):
                mask = trial
                in_cover.remove(v)
    return _solution(g, k, in_cover, ix.covers(in_cover))


class _Registry(dict):
    def __missing__(self, name):
        raise UnknownOracle(name)


def oracle_registry():
    """The named solvers behind `pvc solve`, `pvc bench` and the reoptimizers.

    solve(g, k, seed) covers all of g; solve(g, k, seed, index=part) covers a
    part index from construct_sol. Each takes below=None: exact returns
    None iff no cover of the part is lighter, local-ratio on a part stops
    its pass and returns None once its cover weighs below, and greedy
    ignores it. local-ratio prunes (reverse delete) on a whole-graph solve
    and runs the bare ratio-k scheme on a part index, which it reads
    without building the part's path list. The entries call the solvers
    by module-global name, so a wrapper bound over that name sees every
    call.
    """
    return _Registry(
        {
            "exact": ApproxOracle(
                name="exact",
                solve=lambda g, k, seed, index=None, below=None: solve_exact(
                    g, k, index=index, below=below
                ),
                declared_ratio="1",
            ),
            "greedy": ApproxOracle(
                name="greedy",
                solve=lambda g, k, seed, index=None, below=None: greedy_approx(
                    g, k, seed=seed, alive=None if index is None else index.alive
                ),
                declared_ratio="n-k+1",
            ),
            "local-ratio": ApproxOracle(
                name="local-ratio",
                solve=lambda g, k, seed, index=None, below=None: local_ratio_approx(
                    g, k, prune=index is None, index=index, below=below
                ),
                declared_ratio="k",
            ),
        }
    )
