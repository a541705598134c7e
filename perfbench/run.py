"""Entry point of the FD-discovery benchmark.

    python3 perfbench/run.py --workload tall|wide|service --seed N --seconds S --trace 0|1

Run from the root of a source checkout. It pins the settings that would
otherwise leak in from the environment and runs the workload in a fresh
interpreter (``perfbench/bench.py``), so that peak RSS and on-disk state
belong to that workload alone. The last line of standard output is the
result object ``{"correct", "attempted", "failed", "metrics"}``.

The exit code is non-zero, and no result is printed, when the program's
sources are missing, a check fails or the workload overruns its budget.
"""

from __future__ import annotations

import argparse
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))

#: Environment of the workload process and of every process it starts.
#: One BLAS thread keeps each workload within the two worker threads or
#: processes it is allowed; a fixed hash seed fixes set iteration order.
PINNED_ENV = {
    "PYTHONPATH": "src",
    "PYTHONHASHSEED": "0",
    "PYTHONDONTWRITEBYTECODE": "1",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "LC_ALL": "C",
}

#: Variables that change what the program does; removed, never inherited.
CLEARED_ENV = ("REPRO_PARALLEL_MIN_ROWS", "REPRO_BENCH_DIR", "PYTHONSTARTUP",
               "PYTHONOPTIMIZE", "PYTHONWARNINGS")

#: Wall-clock budget of one workload process.
TIMEOUT_S = 170


def main() -> int:
    parser = argparse.ArgumentParser(description="FD-discovery benchmark")
    parser.add_argument("--workload", required=True, choices=("tall", "wide", "service"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join("src", "repro", "__init__.py")):
        print("perfbench: run from the root of a source checkout "
              "(src/repro is missing)", file=sys.stderr)
        return 2
    env = {k: v for k, v in os.environ.items() if k not in CLEARED_ENV}
    env.update(PINNED_ENV)
    cmd = [sys.executable, os.path.join(HERE, "bench.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    child = subprocess.Popen(cmd, env=env, start_new_session=True)
    try:
        return child.wait(timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: workload exceeded {TIMEOUT_S}s", file=sys.stderr)
        return 3
    finally:
        if child.poll() is None:
            os.killpg(child.pid, signal.SIGKILL)
            child.wait()


if __name__ == "__main__":
    sys.exit(main())
