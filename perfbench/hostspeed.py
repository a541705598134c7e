"""Host-speed probes: correct measured times for the host's own drift.

On a small shared host the same CPU-bound work runs up to twice as long
from one minute to the next, so raw seconds from separate runs differ by
more than any change worth detecting. A fixed reference kernel
(interpreter loop, splitting and counting text, array arithmetic and a
small matrix product: the kinds of work FDX does) is timed throughout each run, and every time the
run reports is scaled by ``NOMINAL_S / probe``, where ``probe`` is the
median kernel time over the whole run: seconds on a host that runs the
kernel in ``NOMINAL_S``. One factor per run corrects the drift between
runs; the medians the run reports already absorb the drift within it.

* :class:`InlineTimer` runs the kernel in the measuring thread right
  before and after each operation (``tall``, ``wide``): it sees the same
  core and the same contention as the operations.
* :class:`HostSpeed` runs the kernel in a separate probe process every
  ``INTERVAL`` seconds (``service``, whose operations run in the server
  process while two client threads wait).

    python3 perfbench/hostspeed.py LOG     # the probe process itself
"""

from __future__ import annotations

import os
import signal
import statistics
import subprocess
import sys
import time

import numpy as np

#: Kernel times that corrected seconds refer to: the medians measured on the
#: 2-vCPU host of the reference figures, in the measuring thread (warm
#: caches) and in the separate probe process.
NOMINAL_S = 0.0038
PROCESS_NOMINAL_S = 0.0048
INTERVAL = 0.1


def kernel(x: np.ndarray, m: np.ndarray) -> None:
    s = 0
    for j in range(10_000):
        s += j * j
    counts: dict[str, int] = {}
    for line in LINES:
        for token in line.split(","):
            counts[token] = counts.get(token, 0) + 1
    for _ in range(4):
        x = np.sqrt(x * 1.0001 + 1.0)
    m @ m


#: Text the kernel splits and counts: the CSV-parsing, object-allocating
#: kind of work that ingest and encoding do.
LINES = [f"s{i % 40},b{i % 12},{i * 0.25},north east" for i in range(600)]


class Probes:
    """Kernel durations of one run and the correction factor they yield."""

    def __init__(self, nominal: float) -> None:
        self.nominal = nominal
        self.durations: list[float] = []

    @property
    def factor(self) -> float:
        return self.nominal / statistics.median(self.durations)

    def summary(self) -> dict:
        return {"probes": len(self.durations),
                "median_probe_s": statistics.median(self.durations),
                "nominal_s": self.nominal, "factor": self.factor}


class InlineTimer(Probes):
    """Probes in the measuring thread, right before and after each operation."""

    def __init__(self) -> None:
        super().__init__(NOMINAL_S)
        self.x = np.arange(100_000, dtype=float)
        self.m = np.random.default_rng(0).random((120, 120))

    def probe(self) -> None:
        t0 = time.perf_counter()
        kernel(self.x, self.m)
        self.durations.append(time.perf_counter() - t0)

    def start(self) -> float:
        self.probe()
        return time.perf_counter()

    def stop(self, started: float) -> float:
        """Raw seconds since :meth:`start`; probes again after it."""
        seconds = time.perf_counter() - started
        self.probe()
        return seconds


def probe_loop(log_path: str) -> None:
    stop = []
    signal.signal(signal.SIGTERM, lambda *_: stop.append(True))
    x = np.arange(100_000, dtype=float)
    m = np.random.default_rng(0).random((120, 120))
    with open(log_path, "w", encoding="ascii") as log:
        while not stop:
            t0 = time.perf_counter()
            kernel(x, m)
            t1 = time.perf_counter()
            log.write(f"{t1 - t0!r}\n")
            log.flush()
            time.sleep(INTERVAL)


class HostSpeed(Probes):
    """The probe process of one run."""

    def __init__(self, workdir: str) -> None:
        super().__init__(PROCESS_NOMINAL_S)
        self.log = os.path.join(workdir, "hostspeed.log")
        self.proc = subprocess.Popen([sys.executable, os.path.abspath(__file__), self.log])
        while not os.path.exists(self.log) or os.path.getsize(self.log) == 0:
            time.sleep(0.01)

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            self.proc.wait(timeout=30)
        with open(self.log, encoding="ascii") as fh:
            self.durations = [float(line) for line in fh if line.endswith("\n")]


if __name__ == "__main__":
    probe_loop(sys.argv[1])
