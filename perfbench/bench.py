"""Workload process of the benchmark (started by ``perfbench/run.py``).

Each run generates its inputs from the seed, measures the program's
set-up, then repeats whole rounds of the workload's operations until the
run length has passed, checking every output (see ``checks.py``).

* ``tall``: CSVs of many rows read and discovered as
  ``python -m repro discover --workers 2`` does, a CSV streamed into
  ``IncrementalFDX``, and a serial ``catalog.sweep`` over a SQLite file.
* ``wide``: serial eBIC discovery at p=160, a Figure-6 column sweep at a
  fixed lambda up to p=190, and a 60-column stream.
* ``service``: see ``service.py``.

With ``--trace 1`` the run instead reports per-layer metrics: two rounds
untraced, then rounds with the timing wrappers and the RSS sampler on.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import checks  # noqa: E402
import gen  # noqa: E402
import hostspeed  # noqa: E402
import tracing  # noqa: E402

#: Hyperparameters of every discovery, as the CLI's defaults spell them.
LAM, SPARSITY, ORDERING = 0.02, 0.05, "natural"

#: FDX settings per discovery kind. ``n_jobs`` and ``parallel_min_rows`` are
#: always explicit: left at None, the row gate is calibrated from a ledger
#: file in the current directory.
TALL_FDX = dict(lam=LAM, sparsity=SPARSITY, ordering=ORDERING,
                n_jobs=2, parallel_min_rows=0, parallel_backend="process")
WIDE_EBIC_FDX = dict(lam="ebic", sparsity=SPARSITY, ordering=ORDERING,
                     n_jobs=1, parallel_min_rows=0)
WIDE_SWEEP_FDX = dict(lam=LAM, sparsity=SPARSITY, ordering=ORDERING,
                      n_jobs=1, parallel_min_rows=0)
STREAM = dict(lam=LAM, sparsity=SPARSITY, ordering=ORDERING, min_batch_rows=50, seed=0)
TALL_STREAM_BATCH, TALL_REFRESH_EVERY = 1000, 2
#: Catalog sweeps per tall round; ``sweep_s`` is their mean, so that a short,
#: noisy operation has twice the samples.
TALL_SWEEPS = 2
WIDE_STREAM_BATCH, WIDE_REFRESH_EVERY = 500, 2

#: Lowest planted-FD recall accepted from any one discovery.
RECALL_FLOOR = 0.75

#: Program set-ups timed per run; the median is reported.
SETUP_REPEATS = 5
SETUP_IMPORTS = "import repro.cli, repro.catalog, repro.core.incremental, repro.dataset.io"

END_TO_END = (
    ("setup_s", "s"), ("discover_s", "s"), ("sweep_s", "s"),
    ("append_p50_ms", "ms"), ("refresh_p50_ms", "ms"), ("ops_per_s", "1/s"),
    ("peak_rss_mb", "MB"), ("fd_f1", "ratio"),
)


def now() -> float:
    return time.perf_counter()


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def median(values) -> float:
    return float(statistics.median(values))


def time_setup(cmd: list[str], tally: "Tally", repeats: int = SETUP_REPEATS) -> None:
    """Run ``cmd`` ``repeats`` times in fresh interpreters, timed as ``setup``."""
    for _ in range(repeats):
        started = tally.start()
        subprocess.run(cmd, check=True, cwd=ROOT)
        tally.stop("setup", started)
    tally.attempted -= repeats


def corrected(raw: dict[str, float], factor: float) -> dict[str, float]:
    """Times scaled to the nominal host speed (see ``hostspeed.py``)."""
    return {k: v / factor if k == "ops_per_s" else v * factor for k, v in raw.items()}


def emit(correct: bool, attempted: int, failed: int, metrics: dict, units: dict) -> None:
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }), flush=True)


class Tally:
    """Operations attempted and the raw seconds of each timed one, by round."""

    def __init__(self) -> None:
        self.attempted = 0
        self.round = 0
        self.timer = hostspeed.InlineTimer()
        self.seconds: dict[str, list[tuple[int, float]]] = {}

    def start(self) -> float:
        return self.timer.start()

    def stop(self, key: str, started: float) -> None:
        self.seconds.setdefault(key, []).append((self.round, self.timer.stop(started)))
        self.attempted += 1

    def each(self, key: str) -> list[float]:
        return [seconds for _, seconds in self.seconds[key]]

    def per_round(self, key: str) -> list[float]:
        """Seconds of all ``key`` operations of each round."""
        totals: dict[int, float] = {}
        for r, seconds in self.seconds[key]:
            totals[r] = totals.get(r, 0.0) + seconds
        return list(totals.values())


# -- library workloads (tall, wide) -------------------------------------------

class LibraryWorkload:
    """Rounds of in-process discoveries over the generated files."""

    def __init__(self, name: str, manifest: dict) -> None:
        import repro.catalog
        import repro.core.fdx
        import repro.core.incremental
        import repro.dataset.io
        self.lib = {
            "io": repro.dataset.io, "fdx": repro.core.fdx,
            "inc": repro.core.incremental, "catalog": repro.catalog,
        }
        self.name = name
        self.manifest = manifest
        self.score = checks.Score()
        #: Set for traced runs: the benchmark's own JSON encoding of each
        #: result is then a ``serialize`` span too.
        self.recorder: tracing.Recorder | None = None

    def encode(self, result) -> str:
        span = self.recorder.open("json.dumps", "serialize") if self.recorder else None
        text = json.dumps(result.to_dict())
        if span is not None:
            span.attrs["bytes"] = len(text)
            self.recorder.close(span)
        return text

    def discover_file(self, key: str, fdx_kwargs: dict, tally: Tally, kind: str) -> None:
        f = self.manifest["files"][key]
        io, fdx = self.lib["io"], self.lib["fdx"]
        started = tally.start()
        relation = io.read_csv(f["path"])
        result = fdx.FDX(**fdx_kwargs).discover(relation)
        text = self.encode(result)
        tally.stop(kind, started)
        payload = checks.check_discovery(
            result, relation.schema.names, SPARSITY, fdx_kwargs["lam"], f["truth"],
            RECALL_FLOOR, f"{self.name}/{key}")
        checks.require(json.loads(text)["fds"] == payload["fds"], f"{key}: JSON round trip")
        self.score.add(payload["fds"], f["truth"])

    def stream_file(self, key: str, batch: int, refresh_every: int, tally: Tally) -> None:
        f = self.manifest["files"][key]
        io, inc = self.lib["io"], self.lib["inc"]
        stream = io.CsvStream(f["path"])
        engine = inc.IncrementalFDX(**STREAM)
        batches = stream.iter_rows(batch_size=batch)
        warm = result = None
        appends = 0
        while True:
            started = tally.start()
            rows = next(batches, None)
            if rows is None:
                break
            engine.add_batch(rows)
            tally.stop("append", started)
            appends += 1
            if appends % refresh_every == 0:
                started = tally.start()
                result = engine.discover(warm_start=warm)
                self.encode(result)
                tally.stop("refresh", started)
                warm = result.precision
        checks.require(result is not None and engine.n_rows_seen == f["rows"],
                       f"{self.name}/{key}: stream consumed {engine.n_rows_seen} of {f['rows']} rows")
        payload = checks.check_discovery(result, stream.schema.names, SPARSITY, LAM,
                                         f["truth"], RECALL_FLOOR, f"{self.name}/{key} stream")
        self.score.add(payload["fds"], f["truth"])

    def sweep_catalog(self, tally: Tally) -> None:
        catalog = self.lib["catalog"]
        spec = self.manifest["catalog"]
        started = tally.start()
        connector = catalog.open_connector(input_path=spec["path"])
        try:
            report = catalog.sweep(connector, catalog.SweepConfig(
                sample=spec["sample"], seed=0, workers=1, backend="serial"))
        finally:
            connector.close()
        text = report.to_json()
        tally.stop("sweep", started)
        checks.check_catalog(json.loads(text), spec, self.score, f"{self.name}/catalog")

    def round(self, tally: Tally) -> None:
        if self.name == "tall":
            for key in ("mixed", "categorical"):
                self.discover_file(key, TALL_FDX, tally, "discover")
            for key in gen.TALL_STREAMS:
                self.stream_file(key, TALL_STREAM_BATCH, TALL_REFRESH_EVERY, tally)
            for _ in range(TALL_SWEEPS):
                self.sweep_catalog(tally)
        else:
            self.discover_file("ebic", WIDE_EBIC_FDX, tally, "discover")
            for p in gen.WIDE_SWEEP_COLUMNS:
                self.discover_file(f"sweep_p{p:03d}", WIDE_SWEEP_FDX, tally, "sweep")
            self.stream_file("stream", WIDE_STREAM_BATCH, WIDE_REFRESH_EVERY, tally)
        tally.round += 1

    def warm_up(self) -> None:
        """One small discovery, so lazy imports are not timed."""
        io, fdx = self.lib["io"], self.lib["fdx"]
        key = "stream"
        relation = io.read_csv(self.manifest["files"][key]["path"]).head(300)
        fdx.FDX(**(TALL_FDX if self.name == "tall" else WIDE_SWEEP_FDX)).discover(relation)


def run_library(name: str, args, workdir: str) -> int:
    manifest = generate(name, args.seed, workdir)
    workload = LibraryWorkload(name, manifest)
    if args.trace:
        workload.warm_up()
        return trace_library(workload, args)
    tally = Tally()
    time_setup([sys.executable, "-c", SETUP_IMPORTS], tally)
    workload.warm_up()
    start = now()
    while tally.round == 0 or now() - start < args.seconds:
        workload.round(tally)
        if tally.round == 1:
            # Later rounds repeat the first one's work; how many fit in the
            # run length varies, and allocator growth with it.
            rss = peak_rss_mb()
    busy = sum(sum(tally.each(key)) for key in tally.seconds if key != "setup")
    raw = {
        "setup_s": median(tally.each("setup")),
        "discover_s": median(tally.per_round("discover")),
        "sweep_s": median(tally.per_round("sweep")) / (TALL_SWEEPS if name == "tall" else 1),
        "append_p50_ms": median(tally.each("append")) * 1e3,
        "refresh_p50_ms": median(tally.each("refresh")) * 1e3,
        "ops_per_s": tally.attempted / busy,
    }
    metrics = corrected(raw, tally.timer.factor)
    metrics.update(peak_rss_mb=rss, fd_f1=workload.score.f1)
    print(json.dumps({"workload": name, "rounds": tally.round, "raw": raw,
                      "host_speed": tally.timer.summary(), "settings": settings(name)}))
    emit(True, tally.attempted, 0, metrics, dict(END_TO_END))
    return 0


def trace_library(workload: LibraryWorkload, args) -> int:
    tally = Tally()
    for _ in range(2):  # the second untraced round is the warm baseline
        t0 = now()
        workload.round(tally)
        untraced = now() - t0
    recorder = workload.recorder = tracing.Recorder()
    tracing.install(recorder)
    sampler = tracing.RssSampler()
    rounds, traced = 0, 0.0
    while rounds == 0 or traced < args.seconds / 2:
        t0 = now()
        workload.round(tally)
        traced += now() - t0
        rounds += 1
    sampler.stop()
    spans = recorder.snapshot()
    tracing.annotate_peaks(spans, sampler)
    metrics = tracing.layer_metrics(spans, recorder.absent, traced)
    result = finish_trace(metrics, rounds, traced / rounds / untraced)
    write_spans(workload.name, spans, recorder.absent)
    print(json.dumps({"workload": workload.name, "traced_rounds": rounds,
                      "absent": recorder.absent, "settings": settings(workload.name)}))
    emit(True, tally.attempted, 0, result, tracing.units())
    return 0


def finish_trace(metrics: dict, rounds: int, overhead: float,
                 service: dict | None = None) -> dict:
    """Per-layer values; times, counts and bytes per round of the workload."""
    out = {}
    for key, unit in tracing.units().items():
        value = metrics.get(key, 0.0)
        if unit in ("s", "count", "bytes") and not key.startswith("trace."):
            value /= rounds
        out[key] = value
    out["trace.overhead_ratio"] = overhead
    out.update(service or {})
    return out


def write_spans(name: str, spans, absent) -> None:
    """Keep the raw spans of the last traced run next to the benchmark."""
    tracing.dump(os.path.join(HERE, ".work", f"spans-{name}.json"), spans, absent)


def settings(name: str) -> dict:
    """Every pinned setting, recorded in the run output."""
    from run import CLEARED_ENV, PINNED_ENV
    out = {"env": {k: os.environ.get(k) for k in PINNED_ENV},
           "cleared_env": {k: os.environ.get(k) for k in CLEARED_ENV},
           "lam": LAM, "sparsity": SPARSITY, "ordering": ORDERING}
    if name == "tall":
        out.update(fdx=TALL_FDX, stream=dict(STREAM, batch=TALL_STREAM_BATCH,
                                             refresh_every=TALL_REFRESH_EVERY),
                   sweep=dict(sample=gen.TALL_CATALOG_SAMPLE, workers=1, backend="serial"))
    elif name == "wide":
        out.update(ebic=WIDE_EBIC_FDX, sweep=WIDE_SWEEP_FDX,
                   stream=dict(STREAM, batch=WIDE_STREAM_BATCH, refresh_every=WIDE_REFRESH_EVERY))
    return out


def generate(name: str, seed: int, workdir: str) -> dict:
    """Inputs are written by a separate process, outside this one's peak RSS."""
    out = os.path.join(workdir, "inputs")
    subprocess.run([sys.executable, os.path.join(HERE, "gen.py"), "--workload", name,
                    "--seed", str(seed), "--out", out], check=True, cwd=ROOT)
    with open(os.path.join(out, "truth.json"), encoding="utf-8") as fh:
        return json.load(fh)


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, default=0)
    args = parser.parse_args()
    os.makedirs(os.path.join(HERE, ".work"), exist_ok=True)
    workdir = os.path.join(HERE, ".work", f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        if args.workload == "service":
            import service
            return service.run(args, workdir)
        return run_library(args.workload, args, workdir)
    except checks.CheckFailed as exc:
        print(f"perfbench: check failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
