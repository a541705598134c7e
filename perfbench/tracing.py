"""Layer-attributed tracing from outside the program.

:func:`install` replaces public functions at each layer boundary of the
``repro`` package with timing wrappers, in every loaded module that holds
a reference to them (``from x import f`` copies included). Spans are kept
in memory with their parent links and turned into per-layer metrics by
:func:`layer_metrics`. The program itself carries no benchmark code.

A layer's self time is the summed duration of its spans minus the time
covered by their child spans. Spans on different threads have separate
stacks, so work handed to a pool thread forms its own root span.

An entry point that no longer exists is recorded in ``Recorder.absent``
rather than failing the run.
"""

from __future__ import annotations

import bisect
import functools
import hashlib
import importlib
import inspect
import itertools
import json
import os
import sys
import threading
import time

#: Modules imported before patching, so that names they copied with
#: ``from x import f`` are found and replaced too.
MODULES = (
    "repro.cli", "repro.dataset.io", "repro.dataset.relation",
    "repro.core.fdx", "repro.core.transform", "repro.core.structure",
    "repro.core.incremental", "repro.linalg.covariance",
    "repro.linalg.model_selection", "repro.linalg.glasso", "repro.linalg.lasso",
    "repro.linalg.ordering", "repro.linalg.cholesky", "repro.obs.explain",
    "repro.parallel.executor", "repro.catalog.connector", "repro.catalog.sampling",
    "repro.catalog.sweep", "repro.catalog.report", "repro.constraints.keys",
    "repro.service.server", "repro.service.protocol", "repro.service.cache",
    "repro.service.journal", "repro.service.sessions", "repro.service.jobs",
    "repro.service.catalog", "repro.streaming.refresh",
    "repro.streaming.checkpoint",
)

#: (layer, "module:qualified.name") for every wrapped entry point.
TARGETS = (
    ("ingest", "repro.dataset.io:read_csv"),
    ("ingest", "repro.dataset.io:CsvStream.iter_rows"),
    ("ingest", "repro.catalog.connector:SqliteConnector.iter_batches"),
    ("ingest", "repro.service.protocol:relation_from_wire"),
    ("validate", "repro.core.fdx:validate_relation"),
    ("transform.shuffle", "repro.dataset.relation:Relation.shuffled"),
    ("transform.encode", "repro.core.transform:encode_relation"),
    ("transform.compare", "repro.core.transform:pair_difference_transform"),
    ("transform.center", "repro.core.transform:center_within_blocks"),
    ("parallel.pool", "repro.parallel.executor:make_executor"),
    ("parallel.map", "repro.parallel.executor:Executor.map"),
    ("parallel.pool", "repro.parallel.executor:Executor.close"),
    ("covariance", "repro.linalg.covariance:empirical_covariance"),
    ("covariance", "repro.linalg.covariance:empirical_covariance_chunked"),
    ("covariance", "repro.linalg.covariance:correlation_from_covariance"),
    ("covariance", "repro.linalg.covariance:shrunk_covariance"),
    ("lambda_selection", "repro.linalg.model_selection:select_lambda_ebic"),
    ("lambda_selection", "repro.linalg.model_selection:constrained_mle"),
    ("glasso", "repro.linalg.glasso:graphical_lasso"),
    ("glasso", "repro.linalg.lasso:lasso_coordinate_descent"),
    ("factorization", "repro.linalg.ordering:compute_order"),
    ("factorization", "repro.linalg.cholesky:factorize_with_order"),
    ("fd_generation", "repro.core.fdx:generate_fds"),
    ("evidence", "repro.obs.explain:build_evidence"),
    ("serialize", "repro.core.fdx:FDXResult.to_dict"),
    ("serialize", "repro.catalog.report:CatalogReport.to_json"),
    ("service.request", "repro.service.server:DiscoveryService.discover_bytes"),
    ("service.fingerprint", "repro.service.cache:dataset_fingerprint"),
    ("service.journal", "repro.service.journal:JobJournal.append"),
    ("service.journal", "repro.service.journal:JobJournal.append_batch"),
    ("streaming.append", "repro.core.incremental:IncrementalFDX.add_batch"),
    ("streaming.refresh", "repro.core.incremental:IncrementalFDX.discover"),
    ("streaming.refresh", "repro.streaming.refresh:refresh_solve"),
    ("streaming.checkpoint", "repro.streaming.checkpoint:write_checkpoint"),
    ("catalog.sample", "repro.catalog.sampling:sample_table"),
    ("catalog.keys", "repro.constraints.keys:discover_keys"),
    ("catalog.report", "repro.catalog.report:column_signature"),
    ("catalog.report", "repro.catalog.report:shared_key_hints"),
    ("service.job", "repro.service.jobs:JobManager.submit"),
    # Grouping span, not a layer of its own: it scopes per-discovery counts
    # (duplicate solves, fallback rungs).
    ("discovery", "repro.core.fdx:FDX.discover"),
)

#: Layers whose self time is reported, in report order.
LAYERS = (
    "ingest", "validate", "transform.shuffle", "transform.encode",
    "transform.compare", "transform.center", "covariance", "lambda_selection",
    "glasso", "factorization", "fd_generation", "evidence", "serialize",
    "service.request", "service.fingerprint", "service.journal",
    "streaming.append", "streaming.refresh", "streaming.checkpoint",
    "catalog.sample", "catalog.keys", "catalog.report",
)

#: Layers whose peak added resident memory is reported (``<layer>.peak_mb``).
MEMORY_LAYERS = ("transform", "covariance", "lambda_selection")


class Span:
    __slots__ = ("id", "parent", "name", "layer", "start", "end", "thread", "attrs")

    def to_dict(self) -> dict:
        return {k: getattr(self, k) for k in self.__slots__}

    @classmethod
    def from_dict(cls, payload: dict) -> "Span":
        span = cls()
        for k in cls.__slots__:
            setattr(span, k, payload[k])
        return span


class RssSampler:
    """Samples this process's resident set size every ``interval`` seconds
    on a daemon thread. A span's peak is the largest sample inside it minus
    the last sample before it: the memory the span added, as the OS sees it.
    """

    def __init__(self, interval: float = 0.005) -> None:
        self.interval = interval
        self.times: list[float] = []
        self.rss: list[int] = []
        self._page = os.sysconf("SC_PAGE_SIZE")
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, name="rss-sampler", daemon=True)
        self._thread.start()

    def _run(self) -> None:
        with open("/proc/self/statm", "rb") as fh:
            while not self._stop.is_set():
                fh.seek(0)
                resident = int(fh.read().split()[1]) * self._page
                self.times.append(time.perf_counter())
                self.rss.append(resident)
                time.sleep(self.interval)

    def stop(self) -> None:
        self._stop.set()
        self._thread.join()

    def added_bytes(self, start: float, end: float) -> int:
        lo = bisect.bisect_left(self.times, start)
        hi = bisect.bisect_right(self.times, end)
        if lo == 0 or hi <= lo:
            return 0
        return max(max(self.rss[lo:hi]) - self.rss[lo - 1], 0)


def annotate_peaks(spans: list[Span], sampler: RssSampler) -> None:
    """Record ``peak_bytes`` on the spans of the memory layers."""
    for s in spans:
        if any(s.layer == layer or s.layer.startswith(layer + ".") for layer in MEMORY_LAYERS):
            s.attrs["peak_bytes"] = sampler.added_bytes(s.start, s.end)


def dump(path: str, spans: list[Span], absent: list[str]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"absent": absent, "spans": [s.to_dict() for s in spans]}, fh)


def load(path: str) -> tuple[list[Span], list[str]]:
    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)
    return [Span.from_dict(d) for d in payload["spans"]], payload["absent"]


class Recorder:
    """In-memory span store; one per traced process."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.absent: list[str] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str, layer: str, parent: int | None = None) -> Span:
        stack = self._stack()
        span = Span()
        span.id = next(self._ids)
        span.parent = stack[-1].id if stack else parent
        span.name, span.layer = name, layer
        span.thread = threading.get_ident()
        span.attrs = {}
        span.end = None
        stack.append(span)
        span.start = time.perf_counter()
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        with self._lock:
            self.spans.append(span)

    def wrap(self, fn, name: str, layer: str):
        hook = HOOKS.get(name)
        recorder = self

        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                # One span per item: the time spent producing it.
                it = fn(*args, **kwargs)
                while True:
                    span = recorder.open(name, layer)
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        recorder.close(span)
                    if hook is not None:
                        hook(span, args, kwargs, item)
                    yield item
            gen_wrapper.__perfbench_wrapped__ = True
            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = recorder.open(name, layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                recorder.close(span)
            if hook is not None:
                hook(span, args, kwargs, result)
            return result
        wrapper.__perfbench_wrapped__ = True
        return wrapper

    def wrap_submit(self, submit):
        """``JobManager.submit``: the job body, run on a pool thread, becomes
        a child of the span that submitted it, so the request's self time
        excludes the job's run time (its queue wait stays in)."""
        recorder = self

        @functools.wraps(submit)
        def wrapper(manager, fn, *args, **kwargs):
            stack = recorder._stack()
            parent = stack[-1].id if stack else None

            @functools.wraps(fn)
            def job(*a, **k):
                span = recorder.open("service.job", "service.job", parent=parent)
                try:
                    return fn(*a, **k)
                finally:
                    recorder.close(span)
            return submit(manager, job, *args, **kwargs)
        wrapper.__perfbench_wrapped__ = True
        return wrapper

    def snapshot(self) -> list[Span]:
        with self._lock:
            return list(self.spans)


# -- hooks: counts taken at the boundary where the work happens ---------------

def _cells(span, args, kwargs, relation):
    shape = getattr(relation, "shape", None)
    if shape is not None and len(shape) == 2:
        span.attrs["cells"] = int(shape[0]) * int(shape[1])


def _pairs(span, args, kwargs, samples):
    span.attrs["pairs"] = int(samples.shape[0])


def _centered(span, args, kwargs, samples):
    span.attrs["sample_bytes"] = int(samples.nbytes)


def _map_tasks(span, args, kwargs, results):
    span.attrs["tasks"] = len(results)


def _glasso(span, args, kwargs, result):
    S = args[0] if args else kwargs["S"]
    lam = args[1] if len(args) > 1 else kwargs.get("lam")
    digest = hashlib.sha1(S.tobytes()).hexdigest()
    span.attrs["key"] = f"{digest}:{float(lam)!r}"
    span.attrs["iterations"] = int(result.n_iter)
    span.attrs["support"] = hashlib.sha1(result.support.tobytes()).hexdigest()


def _discovery(span, args, kwargs, result):
    chain = result.diagnostics.get("fallback_chain") or []
    span.attrs["fallback_rungs"] = max(len(chain) - 1, 0)


def _refresh(span, args, kwargs, outcome):
    result = getattr(outcome, "result", outcome)
    span.attrs["iterations"] = int(result.diagnostics.get("glasso_iterations") or 0)


def _to_json(span, args, kwargs, text):
    span.attrs["bytes"] = len(text)


HOOKS = {
    "repro.dataset.io:read_csv": _cells,
    "repro.dataset.io:CsvStream.iter_rows": _cells,
    "repro.catalog.connector:SqliteConnector.iter_batches": _cells,
    "repro.service.protocol:relation_from_wire": _cells,
    "repro.core.transform:pair_difference_transform": _pairs,
    "repro.core.transform:center_within_blocks": _centered,
    "repro.parallel.executor:Executor.map": _map_tasks,
    "repro.linalg.glasso:graphical_lasso": _glasso,
    "repro.core.fdx:FDX.discover": _discovery,
    "repro.core.incremental:IncrementalFDX.discover": _refresh,
    "repro.streaming.refresh:refresh_solve": _refresh,
    "repro.catalog.report:CatalogReport.to_json": _to_json,
}


# -- installation --------------------------------------------------------------

def _resolve(target: str):
    module_name, qualname = target.split(":")
    module = importlib.import_module(module_name)
    owner = module
    parts = qualname.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return module, owner, parts[-1], getattr(owner, parts[-1])


def install(recorder: Recorder) -> None:
    """Wrap every entry point in :data:`TARGETS`; call once per process."""
    for name in MODULES:
        try:
            importlib.import_module(name)
        except ImportError:
            recorder.absent.append(name)
    for layer, target in TARGETS:
        try:
            module, owner, attr, original = _resolve(target)
        except (ImportError, AttributeError):
            recorder.absent.append(target)
            continue
        if layer == "service.job":
            wrapped = recorder.wrap_submit(original)
        else:
            wrapped = recorder.wrap(original, target, layer)
        if isinstance(owner, type):
            # The method on its class and on every subclass that inherits it.
            classes = [owner, *_subclasses(owner)]
            for cls in classes:
                if cls.__dict__.get(attr, original) is original:
                    setattr(cls, attr, wrapped)
                elif not getattr(cls.__dict__[attr], "__perfbench_wrapped__", False):
                    setattr(cls, attr, recorder.wrap(cls.__dict__[attr], target, layer))
            continue
        for mod in list(sys.modules.values()):
            if mod is None or not getattr(mod, "__name__", "").startswith("repro"):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapped)


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


# -- metrics ---------------------------------------------------------------------

def units() -> dict[str, str]:
    """Every per-layer metric and its unit, in report order."""
    units = {f"{layer}.self_s": "s" for layer in LAYERS}
    units.update({
        "ingest.cells": "count", "transform.pairs": "count", "transform.sample_mb": "MB",
        "parallel.pool_s": "s", "parallel.map_s": "s", "parallel.tasks": "count",
        "lambda_selection.total_s": "s", "lambda_selection.glasso_solves": "count",
        "lambda_selection.refits": "count",
        "lambda_selection.unique_supports": "count",
        "lambda_selection.unique_support_ratio": "ratio",
        "glasso.calls": "count", "glasso.iterations": "count", "glasso.lasso_calls": "count",
        "glasso.duplicate_solves": "count", "structure.fallback_rungs": "count",
        "serialize.bytes": "bytes", "service.queue_wait_s": "s",
        "service.cache_hit_ratio": "ratio", "service.journal.appends": "count",
        "streaming.refresh_iterations": "count", "streaming.checkpoint.writes": "count",
        "trace.overhead_ratio": "ratio", "trace.layer_share": "ratio",
        "trace.absent_entry_points": "count",
    })
    units.update({f"{layer}.peak_mb": "MB" for layer in MEMORY_LAYERS})
    return units


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the time covered by its child spans."""
    child_time: dict[int, float] = {}
    for s in spans:
        if s.parent is not None:
            child_time[s.parent] = child_time.get(s.parent, 0.0) + (s.end - s.start)
    return {s.id: (s.end - s.start) - child_time.get(s.id, 0.0) for s in spans}


def _ancestors(span, by_id):
    parent = by_id.get(span.parent)
    while parent is not None:
        yield parent
        parent = by_id.get(parent.parent)


def layer_metrics(spans: list[Span], absent: list[str], wall_s: float) -> dict[str, float]:
    """Per-layer metric values (see the README for their meaning).

    ``trace.layer_share`` is the summed self time of every layer over
    ``wall_s``, the traced wall time; concurrent spans can take it above 1.
    """
    own = self_times(spans)
    by_id = {s.id: s for s in spans}
    m: dict[str, float] = {f"{layer}.self_s": 0.0 for layer in LAYERS}
    for s in spans:
        if s.layer in LAYERS:
            m[f"{s.layer}.self_s"] += own[s.id]

    def spans_of(target):
        return [s for s in spans if s.name == target]

    def total(target, attr):
        return sum(s.attrs.get(attr, 0) for s in spans_of(target))

    m["ingest.cells"] = sum(s.attrs.get("cells", 0) for s in spans if s.layer == "ingest")
    m["transform.pairs"] = total("repro.core.transform:pair_difference_transform", "pairs")
    m["transform.sample_mb"] = max(
        [s.attrs["sample_bytes"] for s in spans_of("repro.core.transform:center_within_blocks")]
        or [0]) / 1e6
    pool = [s for s in spans if s.layer == "parallel.pool"]
    maps = [s for s in spans if s.layer == "parallel.map"]
    m["parallel.pool_s"] = sum(s.end - s.start for s in pool)
    m["parallel.map_s"] = sum(s.end - s.start for s in maps)
    m["parallel.tasks"] = sum(s.attrs.get("tasks", 0) for s in maps)

    glasso = spans_of("repro.linalg.glasso:graphical_lasso")
    in_selection = [
        s for s in glasso
        if any(a.layer == "lambda_selection" for a in _ancestors(s, by_id))
    ]
    m["lambda_selection.total_s"] = sum(
        s.end - s.start for s in spans_of("repro.linalg.model_selection:select_lambda_ebic"))
    m["lambda_selection.glasso_solves"] = len(in_selection)
    m["lambda_selection.refits"] = len(spans_of("repro.linalg.model_selection:constrained_mle"))
    m["lambda_selection.unique_supports"] = len({s.attrs["support"] for s in in_selection})
    m["lambda_selection.unique_support_ratio"] = (
        m["lambda_selection.unique_supports"] / len(in_selection) if in_selection else 0.0)
    m["glasso.calls"] = len(glasso)
    m["glasso.iterations"] = sum(s.attrs.get("iterations", 0) for s in glasso)
    m["glasso.lasso_calls"] = len(spans_of("repro.linalg.lasso:lasso_coordinate_descent"))
    seen: set = set()
    duplicates = 0
    for s in sorted(glasso, key=lambda s: s.start):
        scope = next((a.id for a in _ancestors(s, by_id)
                      if a.name == "repro.core.fdx:FDX.discover"), None)
        key = (scope, s.attrs["key"])
        if scope is not None and key in seen:
            duplicates += 1
        seen.add(key)
    m["glasso.duplicate_solves"] = duplicates
    m["structure.fallback_rungs"] = total("repro.core.fdx:FDX.discover", "fallback_rungs")

    m["serialize.bytes"] = sum(s.attrs.get("bytes", 0) for s in spans if s.layer == "serialize")
    m["service.journal.appends"] = len([s for s in spans if s.layer == "service.journal"])
    refreshes = [s for s in spans if s.layer == "streaming.refresh" and "iterations" in s.attrs]
    m["streaming.refresh_iterations"] = sum(s.attrs["iterations"] for s in refreshes)
    m["streaming.checkpoint.writes"] = len(spans_of("repro.streaming.checkpoint:write_checkpoint"))

    for layer in MEMORY_LAYERS:
        peaks = [s.attrs.get("peak_bytes", 0) for s in spans
                 if s.layer == layer or s.layer.startswith(layer + ".")]
        m[f"{layer}.peak_mb"] = max(peaks or [0]) / 1e6
    m["trace.absent_entry_points"] = len(absent)
    busy = sum(own[s.id] for s in spans if s.layer in LAYERS or s.layer.startswith("parallel."))
    m["trace.layer_share"] = busy / wall_s if wall_s > 0 else 0.0
    return m
