"""Incremental insertion driver, solution verification and benchmarking."""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass
from pathlib import Path

from .errors import PvcError
from .graph import Graph, InsertionPatch
from .instances import parse_graph, parse_patch, parse_solution, read_text
from .kpaths import covers_all_k_paths
from .reopt import ReoptInstance, ptas_unweighted, wtd_3path, wtd_kpath
from .solvers import CoverSolution, make_solution, oracle_registry, solve_exact

REOPT_ALGORITHMS = ("reopt-w3", "reopt-wk")


@dataclass
class RunReport:
    """One measured algorithm run; ratio only when the exact solve succeeded."""

    algorithm: str
    n: int
    m: int
    k: int
    size: int
    weight: int
    elapsed_ms: float
    feasible: bool
    exact_weight: int | None = None
    ratio: str | None = None  # decimal string, or "both-zero"
    seed: int | None = None

    def stdout_line(self):
        """Deterministic report line; timings are deliberately excluded."""
        parts = [
            f"alg={self.algorithm}",
            f"n={self.n}",
            f"m={self.m}",
            f"k={self.k}",
            f"feasible={'true' if self.feasible else 'false'}",
            f"size={self.size}",
            f"weight={self.weight}",
        ]
        if self.exact_weight is not None:
            parts.append(f"exact={self.exact_weight}")
        if self.ratio is not None:
            parts.append(f"ratio={self.ratio}")
        if self.seed is not None:
            parts.append(f"seed={self.seed}")
        return " ".join(parts)


def incremental_build(
    g: Graph,
    k,
    reoptimizer="exact",
    epsilon=None,
    order=None,
) -> CoverSolution:
    """Insert vertices one by one, maintaining a solution via a reoptimizer.

    With reoptimizer="exact" the final solution weight equals a direct exact
    solve. order defaults to ascending ids; pass a permutation for stress
    variety.
    """
    if reoptimizer not in ("exact", "ptas"):
        raise ValueError(f"unknown reoptimizer {reoptimizer!r}")
    if reoptimizer == "ptas":
        if epsilon is None:
            raise ValueError("the ptas reoptimizer needs an epsilon")
        if any(w != 1 for w in g.weights):
            raise ValueError("the ptas reoptimizer requires unit weights")
    if order is None:
        order = list(g.vertices())
    if sorted(order) != list(g.vertices()):
        raise ValueError("order must be a permutation of the vertex ids")
    if g.n == 0:
        return make_solution(g, frozenset(), k)
    pos = {v: i + 1 for i, v in enumerate(order)}  # original id -> prefix id
    cur = Graph([g.weights[order[0] - 1]], [[]])
    sol = make_solution(cur, frozenset(), k)
    for i in range(1, g.n):
        v = order[i]
        attach = tuple(
            sorted((pos[u], i + 1) for u in g.adj[v - 1] if pos[u] <= i)
        )
        patch = InsertionPatch(
            old_vertex_count=i,
            added=((i + 1, g.weights[v - 1]),),
            attachment_edges=attach,
        )
        inst = ReoptInstance.create(cur, patch, sol, k)
        cur = inst.g_new
        if reoptimizer == "exact":
            sol = solve_exact(cur, k)
        else:
            sol = ptas_unweighted(inst, epsilon)
    back = {pos[v]: v for v in order}
    return make_solution(g, frozenset(back[v] for v in sol.vertices), k)


def verify(g: Graph, k, sol: CoverSolution, check_optimal=False) -> RunReport:
    """Feasibility check, optionally with the ratio against the exact optimum."""
    start = time.perf_counter()
    feasible = covers_all_k_paths(g, sol.vertices, k)
    exact_weight = None
    ratio = None
    if check_optimal:
        opt = solve_exact(g, k)
        exact_weight = opt.weight
        if sol.weight == 0 and exact_weight == 0:
            ratio = "both-zero"
        elif exact_weight > 0:
            ratio = f"{sol.weight / exact_weight:.6g}"
    elapsed = (time.perf_counter() - start) * 1000.0
    return RunReport(
        algorithm="verify",
        n=g.n,
        m=g.m,
        k=k,
        size=sol.cardinality,
        weight=sol.weight,
        elapsed_ms=elapsed,
        feasible=feasible,
        exact_weight=exact_weight,
        ratio=ratio,
    )


def _run_algorithm(name, g, k, patch=None, old_sol=None):
    if name not in REOPT_ALGORITHMS:
        return oracle_registry()[name].solve(g, k)
    if patch is None or old_sol is None:
        return None
    inst = ReoptInstance.create(g, patch, old_sol, k)
    oracle = oracle_registry()["local-ratio"]
    if name == "reopt-w3":
        return wtd_3path(inst, oracle)
    return wtd_kpath(inst, oracle)


def bench(suite_dir, k, algorithms=("greedy", "local-ratio"), timeout_sec=None, seed=0):
    """Run the algorithm matrix over a suite directory.

    The algorithms are `oracle_registry()` names and REOPT_ALGORITHMS; an
    unknown name, or a suite_dir that is not a directory, is a ValueError
    before the suite is read. The suite holds <name>.graph files with
    optional companion <name>.patch and <name>.sol files (used by the
    reopt algorithms). Returns a list of (name, algorithm, status, detail,
    report) rows, one per (instance, algorithm) in instance order; report
    is a RunReport on an `ok` row and None on every other. Timeouts, parse
    errors and the errors of one run (a `PvcError`, such as
    `UnsupportedInstance` for a reopt algorithm at a k it does not take or
    an old cover that does not cover its graph at k) become rows rather
    than failures, and every other row is kept; any other exception is a
    failure. A k below 2
    is a ValueError before the suite is read. A timeout_sec of None means
    no limit, one of 0 or less marks every row a timeout, and NaN is a
    ValueError before the suite is read. seed is only echoed in each ok
    row's report; no algorithm draws random numbers.
    """
    if k < 2:
        raise ValueError("k must be at least 2")
    if timeout_sec is not None and math.isnan(timeout_sec):
        raise ValueError("timeout must be a number of seconds, not NaN")
    known = set(oracle_registry()).union(REOPT_ALGORITHMS)
    for alg in algorithms:
        if alg not in known:
            raise ValueError(f"unknown algorithm {alg!r}")
    suite = Path(suite_dir)
    if not suite.is_dir():
        raise ValueError(f"suite {suite_dir} is not a directory")
    reports = []
    for path in sorted(suite.glob("*.graph")):
        name = path.stem
        try:
            g = parse_graph(read_text(path))
            patch = None
            old_sol = None
            patch_path = path.with_suffix(".patch")
            sol_path = path.with_suffix(".sol")
            if patch_path.exists():
                patch = parse_patch(read_text(patch_path))
            if sol_path.exists():
                old_sol = parse_solution(read_text(sol_path), g)
        except PvcError as exc:
            for alg in algorithms:
                reports.append((name, alg, "parse-error", str(exc), None))
            continue
        for alg in algorithms:
            if timeout_sec is not None and timeout_sec <= 0:
                reports.append((name, alg, "timeout", None, None))
                continue
            start = time.perf_counter()
            try:
                sol = _run_algorithm(alg, g, k, patch=patch, old_sol=old_sol)
            except PvcError as exc:
                reports.append((name, alg, "error", str(exc), None))
                continue
            elapsed = time.perf_counter() - start
            if sol is None:
                reports.append((name, alg, "skipped", "needs patch+sol", None))
            elif timeout_sec is not None and elapsed > timeout_sec:
                reports.append((name, alg, "timeout", None, None))
            else:
                report = RunReport(
                    algorithm=alg,
                    n=g.n,
                    m=g.m,
                    k=k,
                    size=sol.cardinality,
                    weight=sol.weight,
                    elapsed_ms=elapsed * 1000.0,
                    feasible=sol.feasible,
                    seed=seed,
                )
                reports.append((name, alg, "ok", None, report))
    return reports


def shuffled_order(g: Graph, seed):
    order = list(g.vertices())
    random.Random(seed).shuffle(order)
    return order
