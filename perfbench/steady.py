"""Steadiness check: run the benchmark N times on one workload, each run
with another seed, and print for every end-to-end metric its median,
quartiles and spread (Q3 - Q1) / median next to the metric's bound.

    python3 perfbench/steady.py --workload tall --runs 10 [--first-seed 1]

Run from the root of a source checkout. Quartiles are those of
``statistics.quantiles(values, n=4)``. The spread of ``setup_s`` is shown
but has no limit; every other spread should sit below a third of its bound.
The uncorrected medians each run prints (``raw``) are summarized below them.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def summarize(values: list[float]) -> tuple[float, float, float, float]:
    """Median, first and third quartile, and the quartile spread over the median."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    mid = statistics.median(values)
    return mid, q1, q3, (q3 - q1) / mid


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    results = []
    for i in range(args.runs):
        seed = args.first_seed + i
        out = subprocess.run(
            [*spec["command"], "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(spec["run_seconds"]), "--trace", "0"],
            capture_output=True, text=True)
        if out.returncode != 0:
            print(f"seed {seed}: exit {out.returncode}\n{out.stderr[-2000:]}", file=sys.stderr)
            return 1
        lines = out.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        result["raw"] = json.loads(lines[-2]).get("raw", {})
        results.append(result)
        values = " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items())
        print(f"seed {seed}: failed {result['failed']}/{result['attempted']} {values}", flush=True)
    print(f"\n{'metric':16} {'median':>10} {'q1':>10} {'q3':>10} {'spread':>8} {'bound':>6} {'spread/bound':>12}")
    for metric in spec["end_to_end"]:
        name = metric["name"]
        mid, q1, q3, spread = summarize([r["metrics"][name]["value"] for r in results])
        print(f"{name:16} {mid:10.4g} {q1:10.4g} {q3:10.4g} {spread:8.3f} "
              f"{metric['bound']:6.2f} {spread / metric['bound']:12.2f}")
    for name in sorted(results[0]["raw"]):
        mid, q1, q3, spread = summarize([r["raw"][name] for r in results])
        print(f"{'raw ' + name:16} {mid:10.4g} {q1:10.4g} {q3:10.4g} {spread:8.3f}")
    shares = {r["failed"] / r["attempted"] for r in results}
    print(f"failed share per run: {sorted(shares)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
