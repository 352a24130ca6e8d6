"""The pvc command line: solve, reopt, gen, gen-patch, verify, incremental, bench.

Solutions go to stdout in the solution file format; diagnostics go to
stderr. With fixed seeds every command writes byte-identical stdout across
runs (timings are stderr-only). Exit codes: 0 success/feasible, 1
infeasible or any other error, 2 parse error or bad arguments, 3 limit or
timeout.
"""

from __future__ import annotations

import argparse
import sys

from .errors import LimitExceeded, ParseError, PvcError
from .harness import bench, incremental_build, shuffled_order, verify
from .instances import (
    GeneratorConfig,
    gen_graph,
    gen_patch,
    parse_graph,
    parse_patch,
    parse_solution,
    read_text,
    write_graph,
    write_patch,
    write_solution,
)
from .reopt import ReoptInstance, ptas_unweighted, wtd_3path, wtd_kpath
from .solvers import oracle_registry

EXIT_OK = 0
EXIT_INFEASIBLE = 1
EXIT_PARSE = 2
EXIT_LIMIT = 3

_MODE_NAMES = {"corrected": "corrected", "paper": "paper-literal"}
_UNUSED_SEED = "accepted and ignored: no solver draws random numbers"


def _read_solution(path, g, k, err):
    """Parse a solution file; warn on stderr when its header k is not -k."""
    sol = parse_solution(read_text(path), g)
    if sol.k != k:
        err.write(f"warning: solution file k={sol.k} differs from -k {k}\n")
    return sol


def build_parser():
    parser = argparse.ArgumentParser(prog="pvc", description=__doc__)
    solvers = sorted(oracle_registry())
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="solve a k-path vertex cover instance")
    p.add_argument("-k", type=int, required=True)
    p.add_argument("--alg", choices=solvers, required=True)
    p.add_argument("--seed", type=int, default=0, help=_UNUSED_SEED)
    p.add_argument("graph")

    p = sub.add_parser("reopt", help="reoptimize after a graph insertion")
    p.add_argument("-k", type=int, required=True)
    p.add_argument("--mode", choices=["ptas", "w3", "wk"], required=True)
    p.add_argument("--epsilon", type=float)
    p.add_argument("--oracle", choices=solvers, default="local-ratio")
    p.add_argument("--family-mode", choices=["corrected", "paper"], default="corrected")
    p.add_argument("--cap-mode", choices=["corrected", "paper"], default="corrected")
    p.add_argument("old_graph")
    p.add_argument("patch")
    p.add_argument("old_sol")

    p = sub.add_parser("gen", help="generate a seeded random graph")
    p.add_argument("-n", type=int, required=True)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("-m", type=int, help="edge count")
    group.add_argument("--density", type=float, help="edge density in [0,1)")
    p.add_argument("--max-degree", type=int)
    p.add_argument("--wmin", type=int, default=1)
    p.add_argument("--wmax", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("gen-patch", help="generate a seeded random patch")
    p.add_argument("-c", type=int, required=True)
    p.add_argument("--attach-prob", type=float, default=0.3)
    p.add_argument("--internal-prob", type=float, default=0.3)
    p.add_argument("--wmin", type=int, default=1)
    p.add_argument("--wmax", type=int, default=10)
    p.add_argument("--max-degree", type=int)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("graph")

    p = sub.add_parser("verify", help="check a solution file against a graph")
    p.add_argument("-k", type=int, required=True)
    p.add_argument("--optimal", action="store_true")
    p.add_argument("graph")
    p.add_argument("sol")

    p = sub.add_parser("incremental", help="rebuild a graph vertex by vertex")
    p.add_argument("-k", type=int, required=True)
    p.add_argument("--reopt", choices=["exact", "ptas"], required=True)
    p.add_argument("--epsilon", type=float)
    p.add_argument("--order", choices=["ascending", "random"], default="ascending")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("graph")

    p = sub.add_parser("bench", help="run the algorithm matrix over a suite")
    p.add_argument("-k", type=int, required=True)
    p.add_argument("--suite", required=True)
    p.add_argument("--timeout-sec", type=float)
    p.add_argument("--algs", default="greedy,local-ratio")
    p.add_argument(
        "--seed", type=int, default=0, help="printed in each row; no solver draws random numbers"
    )
    return parser


def _cmd_solve(args, out, err):
    g = parse_graph(read_text(args.graph))
    sol = oracle_registry()[args.alg].solve(g, args.k)
    out.write(write_solution(sol))
    return EXIT_OK


def _cmd_reopt(args, out, err):
    g_old = parse_graph(read_text(args.old_graph))
    patch = parse_patch(read_text(args.patch))
    old_sol = _read_solution(args.old_sol, g_old, args.k, err)
    inst = ReoptInstance.create(g_old, patch, old_sol, args.k)
    if args.mode == "ptas":
        if args.epsilon is None:
            raise ValueError("--mode ptas requires --epsilon")
        sol = ptas_unweighted(inst, args.epsilon)
    else:
        oracle = oracle_registry()[args.oracle]
        if args.mode == "w3":
            sol = wtd_3path(inst, oracle, mode=_MODE_NAMES[args.family_mode])
        else:
            sol = wtd_kpath(inst, oracle, cap_mode=_MODE_NAMES[args.cap_mode])
    out.write(write_solution(sol))
    return EXIT_OK


def _cmd_gen(args, out, err):
    target = args.m if args.m is not None else args.density
    cfg = GeneratorConfig(
        n=args.n,
        edge_target=target,
        max_degree=args.max_degree,
        weight_range=(args.wmin, args.wmax),
        seed=args.seed,
    )
    out.write(write_graph(gen_graph(cfg)))
    return EXIT_OK


def _cmd_gen_patch(args, out, err):
    g = parse_graph(read_text(args.graph))
    patch = gen_patch(
        g,
        args.c,
        attach_prob=args.attach_prob,
        internal_prob=args.internal_prob,
        seed=args.seed,
        weight_range=(args.wmin, args.wmax),
        max_degree=args.max_degree,
    )
    out.write(write_patch(patch))
    return EXIT_OK


def _cmd_verify(args, out, err):
    g = parse_graph(read_text(args.graph))
    sol = _read_solution(args.sol, g, args.k, err)
    report = verify(g, args.k, sol, check_optimal=args.optimal)
    out.write(report.stdout_line() + "\n")
    err.write(f"elapsed_ms={report.elapsed_ms:.3f}\n")
    return EXIT_OK if report.feasible else EXIT_INFEASIBLE


def _cmd_incremental(args, out, err):
    g = parse_graph(read_text(args.graph))
    order = None
    if args.order == "random":
        order = shuffled_order(g, args.seed)
    sol = incremental_build(g, args.k, reoptimizer=args.reopt, epsilon=args.epsilon, order=order)
    out.write(write_solution(sol))
    return EXIT_OK


def _cmd_bench(args, out, err):
    algorithms = tuple(a for a in args.algs.split(",") if a)
    rows = bench(
        args.suite,
        args.k,
        algorithms=algorithms,
        timeout_sec=args.timeout_sec,
        seed=args.seed,
    )
    for name, alg, status, detail, report in rows:
        if report is not None:
            out.write(f"instance={name} status=ok {report.stdout_line()}\n")
            err.write(f"instance={name} alg={alg} elapsed_ms={report.elapsed_ms:.3f}\n")
        else:
            out.write(f"instance={name} alg={alg} status={status}\n")
            if detail:
                err.write(f"instance={name} alg={alg} {status}: {detail}\n")
    return EXIT_OK


_COMMANDS = {
    "solve": _cmd_solve,
    "reopt": _cmd_reopt,
    "gen": _cmd_gen,
    "gen-patch": _cmd_gen_patch,
    "verify": _cmd_verify,
    "incremental": _cmd_incremental,
    "bench": _cmd_bench,
}


def main(argv=None, stdout=None, stderr=None):
    out = stdout if stdout is not None else sys.stdout
    err = stderr if stderr is not None else sys.stderr
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args, out, err)
    except ParseError as exc:
        err.write(f"parse error: {exc}\n")
        return EXIT_PARSE
    except LimitExceeded as exc:
        err.write(f"limit exceeded: {exc}\n")
        return EXIT_LIMIT
    except (PvcError, ValueError, OSError) as exc:
        err.write(f"error: {exc}\n")
        return EXIT_INFEASIBLE


def run():
    sys.exit(main())


if __name__ == "__main__":
    run()
