"""Launcher for traced service runs: ``python -m repro serve`` with the
benchmark's timing wrappers installed inside the server process.

    python3 perfbench/serve_traced.py SPANS_OUT serve [serve flags...]

Run from the root of a source checkout. On SIGINT the server shuts down
as usual and the recorded spans are written to ``SPANS_OUT``.
"""

from __future__ import annotations

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.getcwd(), "src"))

import tracing  # noqa: E402


def main() -> int:
    out, argv = sys.argv[1], sys.argv[2:]
    recorder = tracing.Recorder()
    tracing.install(recorder)
    sampler = tracing.RssSampler()
    from repro.cli import main as cli_main

    try:
        return cli_main(argv)
    finally:
        sampler.stop()
        spans = recorder.snapshot()
        tracing.annotate_peaks(spans, sampler)
        tracing.dump(out + ".tmp", spans, recorder.absent)
        os.replace(out + ".tmp", out)


if __name__ == "__main__":
    sys.exit(main())
