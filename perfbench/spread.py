"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/spread.py [--runs 10] [--first-seed 1] [--workload NAME ...]

Runs perfbench/run.py once per seed for each workload and prints, per
metric, the median, the quartiles (statistics.quantiles(values, n=4)), the
spread (q3 - q1) / median and the values, as one JSON object.  This is how
the baseline in design.json was taken.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workload", action="append", choices=workloads.WORKLOADS)
    args = parser.parse_args()
    seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    summary = {}
    for workload in args.workload or workloads.WORKLOADS:
        values: dict[str, list[float]] = {}
        not_correct = 0
        for seed in range(args.first_seed, args.first_seed + args.runs):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed",
                 str(seed), "--seconds", str(seconds), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, check=True,
            )
            result = json.loads(proc.stdout.splitlines()[-1])
            not_correct += not result["correct"]
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            print(proc.stdout.splitlines()[0], file=sys.stderr)
        stats = {}
        for name, vals in values.items():
            q1, median, q3 = statistics.quantiles(vals, n=4)
            stats[name] = {"median": median, "q1": q1, "q3": q3,
                           "spread": (q3 - q1) / median, "values": vals}
        summary[workload] = {"runs": args.runs, "first_seed": args.first_seed,
                             "not_correct": not_correct, "metrics": stats}
    print(json.dumps(summary, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
