"""Exact and approximate k-path vertex cover solvers.

The exact branch-and-bound is the oracle every guarantee is measured
against. The two approximations mirror the simple min-weight-vertex loop
(ratio n-k+1) and a local-ratio scheme realizing the frequency-k set-cover
bound (ratio k).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from .errors import SizeLimitExceeded, UnknownOracle
from .graph import Graph, induced_subgraph
from .kpaths import (
    DEFAULT_PATH_CAP,
    EXHAUSTIVE_N,
    covers_all_k_paths,
    enumerate_k_paths,
    find_k_path,
)

EXACT_SIZE_LIMIT = 24
ENUMERATE_SIZE_LIMIT = 14


@dataclass(frozen=True)
class CoverSolution:
    """A vertex set claimed to cover every k-path, with its bookkeeping."""

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
    g._check_subset(vertices)
    return CoverSolution(
        vertices=vertices,
        k=k,
        weight=g.weight_of(vertices),
        cardinality=len(vertices),
        feasible=covers_all_k_paths(g, vertices, k),
    )


@dataclass(frozen=True)
class ApproxOracle:
    """A pluggable cover algorithm with a declared (untrusted) ratio."""

    name: str
    solve: Callable = field(compare=False)  # (Graph, k, seed) -> CoverSolution
    declared_ratio: str = "unknown"


def _path_masks(paths):
    """The given k-paths as vertex bitmasks (bit v-1 set for vertex v), in order."""
    masks = []
    for p in paths:
        m = 0
        for v in p:
            m |= 1 << (v - 1)
        masks.append(m)
    return masks


def _mask_covers(mask, path_masks):
    return all(mask & pm for pm in path_masks)


def solve_exact(g: Graph, k, objective="weight", size_limit=EXACT_SIZE_LIMIT):
    """Minimum-weight (or minimum-cardinality) cover by branch and bound.

    Branches on the k vertices of the first uncovered path in lexicographic
    order; ties resolve to smaller cardinality then lexicographically
    smallest vertex list, so the returned optimum is canonical.
    """
    if k < 2:
        raise ValueError("k must be at least 2")
    if objective not in ("weight", "cardinality"):
        raise ValueError(f"unknown objective {objective!r}")
    if g.n > size_limit:
        raise SizeLimitExceeded(f"n={g.n} exceeds exact-solver guard {size_limit}")
    paths = enumerate_k_paths(g, k)
    if not paths:
        return make_solution(g, frozenset(), k)
    path_masks = _path_masks(paths)

    def key(vertices, weight):
        if objective == "weight":
            return (weight, len(vertices), tuple(sorted(vertices)))
        return (len(vertices), weight, tuple(sorted(vertices)))

    all_v = frozenset(g.vertices())
    best = [key(all_v, g.weight_of(all_v)), all_v]

    def first_uncovered(mask):
        for i, pm in enumerate(path_masks):
            if not mask & pm:
                return paths[i]
        return None

    visited = set()

    def branch(chosen, mask, weight):
        if mask in visited:
            return
        visited.add(mask)
        p = first_uncovered(mask)
        if p is None:
            cand = key(chosen, weight)
            if cand < best[0]:
                best[0] = cand
                best[1] = frozenset(chosen)
            return
        # any completion adds at least one more positive-weight vertex
        if objective == "weight":
            if weight >= best[0][0]:
                return
        else:
            if len(chosen) >= best[0][0]:
                return
        for v in p:
            if v in chosen:
                continue
            chosen.add(v)
            branch(chosen, mask | (1 << (v - 1)), weight + g.weights[v - 1])
            chosen.remove(v)

    branch(set(), 0, 0)
    return make_solution(g, best[1], k)


def enumerate_optima(g: Graph, k, objective="weight", size_limit=ENUMERATE_SIZE_LIMIT):
    """All optimal covers by full subset enumeration, sorted canonically."""
    if g.n > size_limit:
        raise SizeLimitExceeded(f"n={g.n} exceeds enumeration guard {size_limit}")
    path_masks = _path_masks(enumerate_k_paths(g, k))
    if not path_masks:
        return [frozenset()]
    verts = list(g.vertices())
    best_val = None
    optima = []
    for mask in range(1 << g.n):
        if not _mask_covers(mask, path_masks):
            continue
        s = frozenset(v for v in verts if mask & (1 << (v - 1)))
        val = g.weight_of(s) if objective == "weight" else len(s)
        if best_val is None or val < best_val:
            best_val = val
            optima = [s]
        elif val == best_val:
            optima.append(s)
    optima.sort(key=lambda s: (len(s), tuple(sorted(s))))
    return optima


def greedy_approx(g: Graph, k, seed=0):
    """Min-weight-vertex deletion loop; weight at most (n-k+1) times optimal.

    Path detection is exhaustive below the size threshold and color coding
    above it; a "no path" answer from color coding is confirmed exhaustively
    so the output is always feasible.
    """
    if k < 2:
        raise ValueError("k must be at least 2")
    alive = set(g.vertices())
    cover = set()
    while True:
        sub, orig = induced_subgraph(g, alive)
        p = find_k_path(sub, k, strategy="auto", seed=seed)
        if p is None and not (sub.n <= EXHAUSTIVE_N or k <= 3):
            p = find_k_path(sub, k, strategy="exhaustive")
        if p is None:
            break
        path = [orig[v - 1] for v in p]
        vm = min(path, key=lambda v: (g.weights[v - 1], v))
        cover.add(vm)
        alive.remove(vm)
    return make_solution(g, cover, k)


def local_ratio_approx(g: Graph, k, prune=True, cap=DEFAULT_PATH_CAP):
    """Local-ratio cover; weight at most k times optimal.

    Processes uncovered k-paths lexicographically, subtracting the minimum
    residual weight on each; zero-residual vertices join the cover. The
    optional reverse-delete pass drops redundant vertices, latest first.
    """
    if k < 2:
        raise ValueError("k must be at least 2")
    paths = enumerate_k_paths(g, k, cap=cap)
    residual = list(g.weights)
    cover = []
    in_cover = set()
    for p in paths:
        if in_cover.intersection(p):
            continue
        delta = min(residual[v - 1] for v in p)
        for v in p:
            residual[v - 1] -= delta
        for v in sorted(p):
            if residual[v - 1] == 0 and v not in in_cover:
                in_cover.add(v)
                cover.append(v)
    if prune:
        path_masks = _path_masks(paths)
        mask = 0
        for v in in_cover:
            mask |= 1 << (v - 1)
        for v in reversed(cover):
            trial = mask & ~(1 << (v - 1))
            if _mask_covers(trial, path_masks):
                mask = trial
                in_cover.remove(v)
    return make_solution(g, in_cover, k)


class _Registry(dict):
    def __missing__(self, name):
        raise UnknownOracle(name)


def oracle_registry():
    """Stable named oracles for CLI and reoptimizer wiring.

    The local-ratio entry runs without pruning so traces match the declared
    scheme when used as the plug-in approximation inside reoptimizers.
    """
    return _Registry(
        {
            "exact": ApproxOracle(
                name="exact",
                solve=lambda g, k, seed: solve_exact(g, k),
                declared_ratio="1",
            ),
            "greedy": ApproxOracle(
                name="greedy",
                solve=lambda g, k, seed: greedy_approx(g, k, seed=seed),
                declared_ratio="n-k+1",
            ),
            "local-ratio": ApproxOracle(
                name="local-ratio",
                solve=lambda g, k, seed: local_ratio_approx(g, k, prune=False),
                declared_ratio="k",
            ),
        }
    )
