"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload reopt_mid --seeds 1-10 --seconds 20

For every metric it prints the median of the per-seed values and the
quartile spread: (Q3 - Q1) / median, with quartiles from
statistics.quantiles(values, n=4). The runs are sequential, one process at a
time.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import figures

RUN = Path(__file__).resolve().parent / "run.py"


def parse_seeds(text):
    first, _, last = text.partition("-")
    return range(int(first), int(last or first) + 1)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    values = {}
    for seed in parse_seeds(args.seeds):
        cmd = [sys.executable, str(RUN), "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        if proc.returncode != 0:
            sys.exit(f"seed {seed} failed with exit {proc.returncode}:\n{proc.stderr}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if not result["correct"] or result["failed"]:
            print(f"seed {seed}: correct={result['correct']} failed={result['failed']}")
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print(f"seed {seed}: " + " ".join(
            f"{name}={metric['value']:.6g}" for name, metric in result["metrics"].items()),
            flush=True)
    for name, vals in values.items():
        median = statistics.median(vals)
        spread = figures.spread(vals) if median and len(vals) > 1 else 0.0
        print(f"{name}: median={median:.6g} spread={spread:.4f} n={len(vals)}")


if __name__ == "__main__":
    main()
