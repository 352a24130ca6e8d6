"""Seeded workloads: instance generation, file writing and reference solves.

Each workload turns a seed into a fixed list of `Op`s. An op is one `pvc`
command line (an argv for `pvcover.cli.main`) plus what the independent
output check needs: the adjacency and weights read back from the files the
command is given, and the reference weight.

A workload is a fixed suite of graph and patch structures: a grid of
parameter cells (k, n, c), each drawn `reps` times by gen_graph/gen_patch
from a stream seeded by the workload name alone, as is the greedy
color-coding seed. The run's seed draws the vertex weights and the op order.
Structure sets the cost of nearly every layer (path enumeration, family
size, oracle calls), and with structure drawn from the seed as well, the
per-seed medians of one workload differed by a quarter or more, so no bound
could hold them.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from pathlib import Path

from pvcover.errors import InfeasibleConfig
from pvcover.graph import Graph, InsertionPatch, apply_patch
from pvcover.instances import (
    GeneratorConfig,
    gen_graph,
    gen_patch,
    write_graph,
    write_patch,
    write_solution,
)
from pvcover.solvers import local_ratio_approx, solve_exact

import outcheck

EDGE_FACTOR = 1.3  # edges per vertex; below the 1.5 that max degree 3 allows
INTERNAL_PROB = 0.5
ATTACH_PER_NEW = 2.0  # expected old neighbours of each inserted vertex
WEIGHTS = (1, 10)


@dataclass(frozen=True)
class Op:
    """One `pvc` command and the data needed to check its stdout."""

    argv: tuple
    k: int
    weights: tuple  # weights[v - 1] of the graph the cover must cover
    adj: tuple  # adj[v - 1]: neighbours of v in that graph
    ref_weight: int
    exact: bool  # output weight must equal ref_weight
    group: tuple  # (n_old or n, k), for the per-size trace groups


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # "reopt" or "solve"
    solver: str  # reference solver; for reopt also the oracle and the old cover
    cells: tuple  # ((k, n, c), ...) drawn `reps` times per seed
    reps: int
    max_degree: int

    def build(self, seed, directory):
        """Generate, write and reference-solve every instance of one seed."""
        structure = random.Random(f"{self.name}:suite")
        rng = random.Random(f"{self.name}:{seed}")
        directory = Path(directory)
        ops = []
        for i, (k, n, c) in enumerate(self.cells * self.reps):
            ops.append(self._make_op(structure, rng, directory / f"i{i:04d}", k, n, c))
        return ops

    def _make_op(self, structure, rng, stem, k, n, c):
        shape = _graph(structure, n, self.max_degree)
        g = Graph.build(n, shape.edges(), weights=[rng.randint(*WEIGHTS) for _ in range(n)])
        graph_path = stem.with_suffix(".graph")
        graph_path.write_text(write_graph(g))
        exact = self.solver == "exact"
        if self.command == "solve":
            argv = ("solve", "-k", str(k), "--alg", "greedy",
                    "--seed", str(structure.randrange(10**6)), str(graph_path))
            weights, adj = outcheck.read_graph(graph_path.read_text())
            return Op(argv, k, weights, adj, _solve(g, k, exact).weight, exact, (n, k))
        shape = gen_patch(
            g,
            c,
            attach_prob=min(1.0, ATTACH_PER_NEW / n),
            internal_prob=INTERNAL_PROB,
            seed=structure.randrange(2**31),
            max_degree=self.max_degree,
        )
        patch = InsertionPatch(
            old_vertex_count=n,
            added=tuple((vid, rng.randint(*WEIGHTS)) for vid, _ in shape.added),
            internal_edges=shape.internal_edges,
            attachment_edges=shape.attachment_edges,
        )
        old = _solve(g, k, exact)
        ref = _solve(apply_patch(g, patch), k, exact).weight
        patch_path = stem.with_suffix(".patch")
        sol_path = stem.with_suffix(".sol")
        patch_path.write_text(write_patch(patch))
        sol_path.write_text(write_solution(old))
        argv = ("reopt", "-k", str(k), "--mode", "w3" if k == 3 else "wk",
                "--oracle", self.solver,
                str(graph_path), str(patch_path), str(sol_path))
        weights, adj = outcheck.read_graph(graph_path.read_text(), patch_path.read_text())
        return Op(argv, k, weights, adj, ref, exact, (n, k))


def _solve(g, k, exact):
    """Exact optimum, or the pruned local-ratio cover where n is past the exact guard."""
    return solve_exact(g, k) if exact else local_ratio_approx(g, k)


def _graph(rng, n, max_degree):
    """Random graph with round(EDGE_FACTOR * n) edges under the degree cap.

    gen_graph can fail to place every edge under the cap; the next seed from
    the same stream is tried, so the result is still a function of the seed.
    """
    while True:
        cfg = GeneratorConfig(
            n=n,
            edge_target=round(EDGE_FACTOR * n),
            max_degree=max_degree,
            seed=rng.randrange(2**31),
        )
        try:
            return gen_graph(cfg)
        except InfeasibleConfig:
            continue


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="reopt_mid",
            command="reopt",
            solver="local-ratio",
            cells=tuple(itertools.product((4, 5), (60, 80, 100, 120, 140), (1, 2, 3))),
            reps=4,
            max_degree=3,
        ),
        Workload(
            name="reopt_desk",
            command="reopt",
            solver="exact",
            cells=tuple(itertools.product((3, 4), (14, 15, 16, 17, 18), (1, 2, 3))),
            reps=8,
            max_degree=4,
        ),
        Workload(
            name="solve_greedy",
            command="solve",
            solver="local-ratio",
            cells=tuple(itertools.product((5, 6), (30, 36, 42, 48, 54, 60), (0,))),
            reps=10,
            max_degree=3,
        ),
    )
}
