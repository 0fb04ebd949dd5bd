#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload conf_fresh --seeds 1-10 [--trace 0] [--seconds N]

For every metric: the median, and the distance between the first and
third quartile (statistics.quantiles, n=4) as a share of the median.
Run from the repository root; builds through cargo like the benchmark
command in BENCHMARK.json.
"""

import argparse
import json
import statistics
import subprocess
import sys


def seeds(spec):
    lo, _, hi = spec.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-5")
    ap.add_argument("--trace", default="0")
    ap.add_argument("--seconds", default=None)
    a = ap.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = a.seconds or str(bench["run_seconds"])
    values = {}
    for seed in seeds(a.seeds):
        cmd = bench["command"] + [
            "--workload", a.workload, "--seed", str(seed),
            "--seconds", seconds, "--trace", a.trace,
        ]
        out = subprocess.run(cmd, capture_output=True, text=True)
        if out.returncode != 0:
            sys.exit(f"seed {seed} failed:\n{out.stderr}")
        result = json.loads(out.stdout.strip().splitlines()[-1])
        print(f"seed {seed}: attempted {result['attempted']} failed {result['failed']}",
              file=sys.stderr)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
    for name, v in sorted(values.items()):
        med = statistics.median(v)
        if len(v) >= 2:
            q1, _, q3 = statistics.quantiles(v, n=4)
            spread = (q3 - q1) / med if med else float("nan")
        else:
            spread = float("nan")
        print(f"{name:34s} median {med:14.4f}  spread {spread:7.3f}  "
              f"min {min(v):.4f} max {max(v):.4f}")


if __name__ == "__main__":
    main()
