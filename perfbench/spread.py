#!/usr/bin/env python3
"""Runs perfbench/run.py once per seed on each workload and prints, per
metric, the median, the quartiles and the spread (Q3 - Q1) / median that
a benchmark's steadiness is judged by.

    python3 perfbench/spread.py --workloads table1 serve_hot \
        --seeds 1-10 --seconds 20

The last line of stdout is the whole summary as JSON.
"""
import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def seed_list(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    summary = {}
    for workload in args.workloads:
        values = {}
        for seed in args.seeds:
            out = subprocess.run(
                [sys.executable, str(RUN), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(args.seconds),
                 "--trace", str(args.trace)],
                stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
            lines = out.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if out.returncode == 0 and lines else None
            if not result or not result["correct"]:
                sys.exit(f"{workload} seed {seed}: run failed or incorrect")
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        rows = {}
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            rows[name] = {"median": med, "q1": q1, "q3": q3,
                          "spread": (q3 - q1) / med if med else None,
                          "values": vals}
            print(f"{workload:16} {name:28} median {med:12.4f}  "
                  f"spread {rows[name]['spread'] or 0:.3f}")
        summary[workload] = rows
    print(json.dumps(summary))


if __name__ == "__main__":
    main()
