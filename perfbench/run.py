"""Benchmark of the `pvc` command on seeded k-path vertex cover workloads.

Run from the repository root:

    python3 perfbench/run.py --workload reopt_mid --seed 1 --seconds 30 --trace 0

Set-up generates the workload's instances (suite.py), writes them under
.perfbench-out/, solves the references and warms up; it is repeated and its
median reported as setup_s. Each op is then one in-process call of
`pvcover.cli.main(argv, stdout=..., stderr=...)`, which is a `pvc` command
without interpreter start-up. One client runs ops in a closed loop: the next
op starts when the previous one returns. Every op's stdout is checked
independently (outcheck.py).

--trace 0 times at least one full pass and at least MIN_OPS ops, and keeps
going until --seconds have passed; it prints the end-to-end metrics.
--trace 1 runs exactly one untraced and one traced pass, so every count
repeats at a fixed seed; it prints the per-layer metrics and the tracing
overhead, and writes the spans to .perfbench-out/.

The last stdout line is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import random
import resource
import statistics
import sys
import tempfile
import time
from collections import defaultdict
from pathlib import Path

import figures
import outcheck
import spans

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench-out"
SETUP_REPEATS = 3
WARMUP_OPS = 2
MIN_OPS = 100  # so that ten samples lie beyond p90


def load_cli():
    """Import pvcover from this checkout's src/, never from an installed copy."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import pvcover.cli
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import pvcover from {src}: {exc}")
    if Path(pvcover.cli.__file__).resolve().parent != src / "pvcover":
        raise SystemExit(f"perfbench: pvcover was imported from {pvcover.cli.__file__}")
    return pvcover.cli


class Runner:
    """Runs ops and checks their stdout, collecting every failure."""

    def __init__(self, cli, ops):
        self.cli = cli
        self.ops = ops
        self.failures = []

    def run(self, op):
        """Time one op; return (seconds, stdout, output weight or None)."""
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        try:
            rc = self.cli.main(list(op.argv), stdout=out, stderr=err)
        except Exception as exc:  # a crash is a failed op, reported below
            rc = f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
        stdout = out.getvalue()
        if rc != 0:
            weight, problem = None, f"exit {rc}: {err.getvalue().strip()}"
        else:
            weight, problem = outcheck.check_solution(
                stdout, op.k, op.weights, op.adj, op.ref_weight if op.exact else None)
        if problem is not None:
            self.failures.append(f"{' '.join(op.argv)}: {problem}")
            weight = None
        return elapsed, stdout, weight


def set_up(cli, workload, seed, directory):
    ops = workload.build(seed, directory)
    warm = Runner(cli, ops)
    for op in ops[:WARMUP_OPS]:
        warm.run(op)
    return ops


def reference_job():
    """Fixed pure-Python work that shares no code with pvcover.

    A DFS over all 5-vertex paths of a 4-regular circulant graph on 40
    vertices; about 1.5 ms under CPython 3.11 on one vCPU of a 2-vCPU Xeon VM.
    """
    n, depth = 40, 5
    adj = [[(v + d) % n for d in (1, -1, 5, -5)] for v in range(n)]
    on_path = [False] * n

    def extend(v, level):
        if level == depth:
            return 1
        on_path[v] = True
        found = sum(extend(u, level + 1) for u in adj[v] if not on_path[u])
        on_path[v] = False
        return found

    return sum(extend(v, 1) for v in range(n))


def time_reference():
    start = time.perf_counter()
    reference_job()
    return time.perf_counter() - start


def timed_run(runner, order, seconds):
    """Closed loop until one pass, MIN_OPS ops and `seconds` are all done.

    The reference job runs between consecutive ops and once at each end, so
    every op run lies between two reference runs. Returns every op's list of
    (op seconds, mean of the two reference seconds around it), indexed like
    runner.ops, and the (op, stdout, weight) of the first pass.
    """
    seq = []  # (op index, op seconds, reference seconds just before it)
    first_pass = []
    start = time.perf_counter()
    i = 0
    while i < len(order) or i < MIN_OPS or time.perf_counter() - start < seconds:
        index = order[i % len(order)]
        ref_seconds = time_reference()
        elapsed, stdout, weight = runner.run(runner.ops[index])
        seq.append((index, elapsed, ref_seconds))
        if i < len(order):
            first_pass.append((runner.ops[index], stdout, weight))
        i += 1
    refs = [r for _, _, r in seq] + [time_reference()]
    times = [[] for _ in runner.ops]
    for p, (index, elapsed, _) in enumerate(seq):
        times[index].append((elapsed, (refs[p] + refs[p + 1]) / 2))
    return times, first_pass


def end_to_end(runner, order, seconds, setup_times):
    """End-to-end metrics; op time is measured in reference-job runs.

    On a shared machine the speed can change by up to a factor of two from
    one second to the next and for minutes at a time; process CPU time
    follows wall time, so no clock hides it. Each op run is therefore divided by the mean
    time of the reference job runs just before and after it, and an op's
    cost is the median of those ratios over its passes. Percentiles are over
    the ops' costs; at
    least 100 ops leave ten beyond p90. Wall-clock figures are printed too,
    for reading, but they are not the gated metrics.
    """
    times, first_pass = timed_run(runner, order, seconds)
    runs = sum(len(t) for t in times)
    failed = len(runner.failures)
    ok_weights = [w for _, _, w in first_pass if w is not None]
    refs = [op.ref_weight for op, _, w in first_pass if w is not None]
    digest = hashlib.sha256("".join(s for _, s, _ in first_pass).encode()).hexdigest()
    cost = [statistics.median(e / r for e, r in t) for t in times]
    wall_ms = [statistics.median(e for e, _ in t) * 1000 for t in times]
    ok = (runs - failed) / runs
    metrics = {
        "op_cost_p50": (figures.percentile(cost, 50), "ref"),
        "op_cost_p90": (figures.percentile(cost, 90), "ref"),
        "ops_per_kref": (1000 * len(cost) * ok / sum(cost), "1/kref"),
        "setup_s": (statistics.median(setup_times), "s"),
        "weight_ratio": (figures.weight_ratio(ok_weights, refs) if refs else 0.0, "ratio"),
        "ok_share": (ok, "fraction"),
        "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
    }
    reference_ms = statistics.median(r for t in times for _, r in t) * 1000
    print(f"ops={runs} passes={runs / len(order):.2f} failed_share={1 - ok} "
          f"stdout_sha256={digest}")
    print(f"wall clock, not gated: op_ms_p50={figures.percentile(wall_ms, 50):.3f} "
          f"op_ms_p90={figures.percentile(wall_ms, 90):.3f} "
          f"ops_per_s={1000 * len(wall_ms) * ok / sum(wall_ms):.3f} "
          f"reference_ms={reference_ms:.4f}")
    return runs, failed, metrics


def traced_run(runner, order, workload_name, seed):
    """One untraced and one traced pass over the same ops; per-layer metrics.

    Each op runs untraced and then traced, back to back, so a change in
    machine speed during the run touches both sums alike.
    """
    tracer = spans.Tracer()
    untraced = traced = 0.0
    family = []
    for j, i in enumerate(order):
        untraced += runner.run(runner.ops[i])[0]
        tracer.install()
        try:
            tracer.check_complete()
            tracer.op = j
            before = tracer.counters["reopt.family_members"]
            traced += runner.run(runner.ops[i])[0]
            family.append(tracer.counters["reopt.family_members"] - before)
        finally:
            tracer.uninstall()
    span_list = tracer.spans()
    totals = spans.span_totals(span_list)
    main_calls = totals.get("cli.main", (0,))[0]
    if main_calls != len(order):
        raise RuntimeError(f"cli.main.calls={main_calls}, but {len(order)} ops ran traced")
    metrics = {}
    for name in spans.SPAN_NAMES:
        calls, total, self_time = totals.get(name, (0, 0.0, 0.0))
        metrics[f"{name}.calls"] = (calls, "count")
        metrics[f"{name}.total_ms"] = (total * 1000, "ms")
        metrics[f"{name}.self_ms"] = (self_time * 1000, "ms")
    counters = tracer.counters
    metrics["reopt.family_members"] = (counters["reopt.family_members"], "count")
    metrics["kpaths.enumerate_k_paths.paths"] = (counters["kpaths.enumerate_k_paths.paths"], "count")
    metrics["kpaths.has_k_path.true_share"] = (
        _share(counters["kpaths.has_k_path.true"], totals.get("kpaths.has_k_path", (0,))[0]),
        "fraction")
    metrics["kpaths.find_k_path.none_share"] = (
        _share(counters["kpaths.find_k_path.none"], totals.get("kpaths.find_k_path", (0,))[0]),
        "fraction")
    metrics["trace.overhead_share"] = (traced / untraced - 1, "fraction")

    groups = size_groups([runner.ops[i] for i in order], family, span_list) if any(family) else {}
    for (n, k), (count, fam, sol_ms) in sorted(groups.items()):
        print(f"group n={n} k={k} ops={count} family_mean={fam:.2f} construct_sol_ms_mean={sol_ms:.3f}")
    write_trace(tracer, span_list, groups, workload_name, seed)
    return 2 * len(order), metrics


def size_groups(ops, family, span_list):
    """(n, k) -> (ops, mean family size, mean construct_sol ms) over one traced pass."""
    sol_ms = [0.0] * len(ops)
    for name, start, end, _, op in span_list:
        if name == "reopt.construct_sol":
            sol_ms[op] += (end - start) * 1000
    acc = defaultdict(lambda: [0, 0, 0.0])
    for op, fam, ms in zip(ops, family, sol_ms):
        entry = acc[op.group]
        entry[0] += 1
        entry[1] += fam
        entry[2] += ms
    return {key: (c, f / c, t / c) for key, (c, f, t) in acc.items()}


def write_trace(tracer, span_list, groups, workload_name, seed):
    path = OUT_DIR / f"trace-{workload_name}-seed{seed}.json"
    doc = {
        "workload": workload_name,
        "seed": seed,
        "span_fields": ["name", "start_s", "end_s", "parent", "op"],
        "spans": span_list,
        "counters": dict(tracer.counters),
        "groups": [
            {"n": n, "k": k, "ops": c, "family_mean": f, "construct_sol_ms_mean": t}
            for (n, k), (c, f, t) in sorted(groups.items())
        ],
    }
    path.write_text(json.dumps(doc))
    print(f"spans={len(span_list)} written to {path.relative_to(ROOT)}")


def _share(part, whole):
    return part / whole if whole else 0.0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    cli = load_cli()
    import suite  # imports pvcover, so only after load_cli

    if args.workload not in suite.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(suite.WORKLOADS)}")
    workload = suite.WORKLOADS[args.workload]
    OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as tmp:
        setup_times = []
        for r in range(1 if args.trace else SETUP_REPEATS):
            directory = Path(tmp) / f"setup{r}"
            directory.mkdir()
            start = time.perf_counter()
            ops = set_up(cli, workload, args.seed, directory)
            setup_times.append(time.perf_counter() - start)
        order = list(range(len(ops)))
        random.Random(f"order:{args.workload}:{args.seed}").shuffle(order)
        runner = Runner(cli, ops)
        if args.trace:
            attempted, metrics = traced_run(runner, order, args.workload, args.seed)
            failed = len(runner.failures)
        else:
            attempted, failed, metrics = end_to_end(runner, order, args.seconds, setup_times)
    for problem in runner.failures[:10]:
        print(f"failed: {problem}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"{name} {value} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))


if __name__ == "__main__":
    main()
