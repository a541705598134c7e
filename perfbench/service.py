"""The ``service`` workload: a ``python -m repro serve`` subprocess driven
over HTTP by two closed-loop clients (one connection each).

Client one, per round: ``MISSES`` discovers of distinct 2000x12 relations,
then byte-identical repeats of the first ``HITS`` of them (cache hits),
then one catalog sweep of a small SQLite file (``POST /v1/catalog``).
Client two, per round: opens a streaming session, appends six 500-row
batches, reads the FDs after every second append (each read re-solves),
replays the session's changelog and closes the session.

Set-up is the server's start-up: process start until ``/v1/healthz``
answers, timed ``SETUP_STARTS`` times with fresh journal and checkpoint
directories; the last server started is the one measured.

Traced runs (``--trace 1``) first run a quarter of the run length against
an untraced server, then half of it against a server started through
``serve_traced.py``, which installs the wrappers inside the server process.
"""

from __future__ import annotations

import http.client
import json
import os
import signal
import socket
import subprocess
import sys
import threading
import time

import bench
import checks
import gen
import hostspeed
import tracing
from bench import HERE, ROOT, median, now

MISSES, HITS = 8, 4
SESSION_READ_EVERY = 2
SETUP_STARTS = 3
SERVER_WORKERS = 2
#: Hyperparameters sent with every request and used for the library check.
HYPERPARAMETERS = {"lam": bench.LAM, "sparsity": bench.SPARSITY,
                   "ordering": bench.ORDERING, "shrinkage": 0.01, "seed": 0}


class Server:
    """One server subprocess with its own journal and checkpoint dirs.

    stdout and stderr go to a log file in the run's work directory, so a
    server that logs every request never blocks on a full pipe.
    """

    def __init__(self, workdir: str, index: int, spans: str | None = None) -> None:
        self.dir = os.path.join(workdir, f"server{index}")
        os.makedirs(self.dir)
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            self.port = probe.getsockname()[1]
        flags = ["serve", "--host", "127.0.0.1", "--port", str(self.port),
                 "--workers", str(SERVER_WORKERS), "--executor", "thread",
                 "--journal-dir", os.path.join(self.dir, "journal"),
                 "--checkpoint-dir", os.path.join(self.dir, "checkpoints")]
        self.flags = flags
        if spans is None:
            cmd = [sys.executable, "-m", "repro", *flags]
        else:
            cmd = [sys.executable, os.path.join(HERE, "serve_traced.py"), spans, *flags]
        self.log = open(os.path.join(self.dir, "server.log"), "wb")
        self.started = now()
        self.proc = subprocess.Popen(cmd, cwd=ROOT, stdout=self.log, stderr=subprocess.STDOUT)
        self._wait_healthy()
        self.healthy = now()

    def _wait_healthy(self, timeout: float = 60.0) -> None:
        deadline = now() + timeout
        while now() < deadline:
            if self.proc.poll() is not None:
                raise checks.CheckFailed(f"server exited at start-up: {self.tail()}")
            try:
                conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=2)
                conn.request("GET", "/v1/healthz")
                if conn.getresponse().status == 200:
                    conn.close()
                    return
                conn.close()
            except OSError:
                pass
            time.sleep(0.01)
        raise checks.CheckFailed("server did not become healthy")

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise checks.CheckFailed("VmHWM missing from the server's /proc status")

    def tail(self) -> str:
        self.log.flush()
        with open(self.log.name, "rb") as fh:
            return fh.read()[-2000:].decode("utf-8", "replace")

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.log.close()


class Http:
    """A keep-alive JSON client on one connection."""

    def __init__(self, port: int) -> None:
        self.port = port
        self.conn: http.client.HTTPConnection | None = None
        self.bytes = 0

    def call(self, method: str, path: str, body: bytes | None = None,
             expect: int = 200) -> dict:
        for attempt in (0, 1):
            if self.conn is None:
                self.conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=120)
            try:
                headers = {"Content-Type": "application/json"} if body is not None else {}
                self.conn.request(method, path, body=body, headers=headers)
                response = self.conn.getresponse()
                data = response.read()
                break
            except (http.client.RemoteDisconnected, ConnectionResetError, BrokenPipeError):
                # The server closed an idle keep-alive connection.
                self.conn.close()
                self.conn = None
                if attempt:
                    raise
        if response.getheader("Connection", "").lower() == "close":
            self.conn.close()
            self.conn = None
        self.bytes += len(data)
        checks.require(response.status == expect,
                       f"{method} {path}: HTTP {response.status}: {data[:300]!r}")
        return json.loads(data)

    def close(self) -> None:
        if self.conn is not None:
            self.conn.close()


class Clients:
    """The two closed-loop clients and everything they observed."""

    def __init__(self, seed: int, manifest: dict) -> None:
        self.seed = seed
        self.manifest = manifest
        self.seconds: dict[str, list[float]] = {}
        self.misses: list[tuple[int, dict, str]] = []  # (index, result, job id)
        self.score = checks.Score()
        self.ops = 0
        self.rounds = [0, 0]
        self.round_seconds: list[float] = []
        self.miss_index = 0
        self.session_index = 0
        self.bytes = 0
        self.errors: list[BaseException] = []
        self._lock = threading.Lock()

    def _count(self, key: str, t0: float) -> None:
        seconds = now() - t0
        with self._lock:
            self.seconds.setdefault(key, []).append(seconds)
            self.ops += 1

    def discover_round(self, http: Http) -> None:
        t_round = now()
        bodies, results = [], []
        for _ in range(MISSES):
            index = self.miss_index
            self.miss_index += 1
            table = gen.service_relation(self.seed, 1, index)
            body = json.dumps({"relation": gen.wire_relation(table),
                               "hyperparameters": HYPERPARAMETERS}).encode()
            t0 = now()
            reply = http.call("POST", "/v1/discover", body)
            self._count("miss", t0)
            checks.require(reply["cached"] is False, f"request {index} was not a miss")
            self.misses.append((index, reply["result"], reply.get("job_id")))
            self.score.add(reply["result"]["fds"], table.truth)
            bodies.append(body)
            results.append(reply["result"])
        for i in range(HITS):
            t0 = now()
            reply = http.call("POST", "/v1/discover", bodies[i])
            self._count("hit", t0)
            checks.require(reply["cached"] is True, "repeated body was not a cache hit")
            checks.check_same_result(reply["result"], results[i], "hit vs its miss")
        spec = self.manifest["catalog"]
        body = json.dumps({"source": {"kind": "sqlite", "path": spec["path"]},
                           "sample": spec["sample"], "seed": 0, "wait": True}).encode()
        t0 = now()
        reply = http.call("POST", "/v1/catalog", body)
        self._count("sweep", t0)
        checks.check_catalog(reply["report"], spec, self.score, "service/catalog")
        self.round_seconds.append(now() - t_round)

    def session_round(self, http: Http) -> None:
        index = self.session_index
        self.session_index += 1
        table = gen.session_stream(self.seed, index)
        t0 = now()
        session = http.call("POST", "/v1/sessions",
                            json.dumps({"hyperparameters": HYPERPARAMETERS}).encode(), expect=201)
        self._count("open", t0)
        sid = session["session_id"]
        result = None
        for b, lo in enumerate(range(0, table.n_rows, gen.SESSION_BATCH)):
            body = json.dumps({"relation": gen.wire_relation(table, lo, lo + gen.SESSION_BATCH)}).encode()
            t0 = now()
            http.call("POST", f"/v1/sessions/{sid}/batches", body)
            self._count("append", t0)
            if (b + 1) % SESSION_READ_EVERY == 0:
                t0 = now()
                reply = http.call("GET", f"/v1/sessions/{sid}/fds")
                self._count("refresh", t0)
                checks.require(reply["refresh"]["solved"], f"session {index}: read did not re-solve")
                result = reply["result"]
        checks.check_undegraded(result["diagnostics"], f"session {index}")
        checks.check_algorithm3(result, table.names, bench.SPARSITY, f"session {index}")
        checks.check_recall(result["fds"], table.truth, bench.RECALL_FLOOR, f"session {index}")
        t0 = now()
        deltas = http.call("GET", f"/v1/sessions/{sid}/deltas?since=0")
        self._count("deltas", t0)
        final = {(tuple(fd["lhs"]), fd["rhs"]) for fd in result["fds"]}
        checks.require(checks.replay_changelog(deltas["deltas"]) == final,
                       f"session {index}: changelog replay differs from the final FD read")
        t0 = now()
        http.call("DELETE", f"/v1/sessions/{sid}")
        self._count("close", t0)
        self.score.add(result["fds"], table.truth)

    def run(self, port: int, seconds: float) -> tuple[float, float]:
        """Both clients for ``seconds``, each finishing its current round;
        returns the phase's start and end times."""
        deadline = now() + seconds
        loops = (self.discover_round, self.session_round)

        def client(i: int) -> None:
            http = Http(port)
            try:
                while self.rounds[i] == 0 or now() < deadline:
                    loops[i](http)
                    self.rounds[i] += 1
            except BaseException as exc:  # reported by the main thread
                self.errors.append(exc)
            finally:
                with self._lock:
                    self.bytes += http.bytes
                http.close()

        t0 = now()
        threads = [threading.Thread(target=client, args=(i,)) for i in (0, 1)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        if self.errors:
            raise self.errors[0]
        return t0, now()


def check_misses(clients: Clients) -> None:
    """Each miss equals an in-process ``FDX.discover`` of the same relation."""
    from repro.core.fdx import FDX
    from repro.dataset.relation import Relation
    from repro.dataset.schema import Attribute, AttributeType, Schema

    kinds = {"categorical": AttributeType.CATEGORICAL, "numeric": AttributeType.NUMERIC,
             "text": AttributeType.TEXT}
    for index, served, _ in clients.misses:
        table = gen.service_relation(clients.seed, 1, index)
        schema = Schema([Attribute(n, kinds[d]) for n, d in zip(table.names, table.dtypes)])
        relation = Relation(schema, dict(zip(table.names, table.values)))
        local = FDX(n_jobs=1, parallel_min_rows=0, **HYPERPARAMETERS).discover(relation)
        where = f"service miss {index}"
        expected = checks.check_discovery(local, table.names, bench.SPARSITY, bench.LAM,
                                          table.truth, bench.RECALL_FLOOR, where)
        checks.check_same_result(served, expected, where)
        checks.check_algorithm3(served, table.names, bench.SPARSITY, where)


def run(args, workdir: str) -> int:
    manifest = bench.generate("service", args.seed, workdir)
    servers = []
    speed = None if args.trace else hostspeed.HostSpeed(workdir)
    try:
        for i in range(SETUP_STARTS):
            if servers:
                servers[-1].stop()
            servers.append(Server(workdir, i))
        if args.trace:
            return trace(args, workdir, manifest, servers)
        server = servers[-1]
        warm_up(server.port)
        clients = Clients(args.seed, manifest)
        phase = clients.run(server.port, args.seconds)
        rss = server.peak_rss_mb()
    finally:
        if speed is not None:
            speed.stop()
        for server in servers:
            server.stop()
    check_misses(clients)
    s = clients.seconds
    raw = {
        "setup_s": median(server.healthy - server.started for server in servers),
        "discover_s": median(s["miss"]),
        "sweep_s": median(s["sweep"]),
        "append_p50_ms": median(s["append"]) * 1e3,
        "refresh_p50_ms": median(s["refresh"]) * 1e3,
        "ops_per_s": clients.ops / (phase[1] - phase[0]),
    }
    metrics = bench.corrected(raw, speed.factor)
    metrics.update(peak_rss_mb=rss, fd_f1=clients.score.f1)
    misses = sorted(s["miss"])
    print(json.dumps({
        "workload": "service", "rounds": clients.rounds, "raw": raw, "misses": len(misses),
        "miss_p90_ms": misses[int(0.9 * (len(misses) - 1))] * 1e3 * speed.factor,
        "hit_p50_ms": median(s["hit"]) * 1e3 * speed.factor, "hits": len(s["hit"]),
        "host_speed": speed.summary(), "server_flags": servers[-1].flags,
        "hyperparameters": HYPERPARAMETERS, "settings": bench.settings("service"),
    }))
    bench.emit(True, clients.ops, 0, metrics, dict(bench.END_TO_END))
    return 0


def warm_up(port: int) -> None:
    """One small discover and session, so lazy imports are not timed."""
    http = Http(port)
    table = gen.build(gen.rng_for(0, 999), "warm", 300, gen.MIXED12)
    http.call("POST", "/v1/discover", json.dumps({"relation": gen.wire_relation(table)}).encode())
    sid = http.call("POST", "/v1/sessions", b"{}", expect=201)["session_id"]
    http.call("POST", f"/v1/sessions/{sid}/batches",
              json.dumps({"relation": gen.wire_relation(table)}).encode())
    http.call("GET", f"/v1/sessions/{sid}/fds")
    http.call("DELETE", f"/v1/sessions/{sid}")
    http.close()


def trace(args, workdir: str, manifest: dict, servers: list) -> int:
    plain = servers[-1]
    warm_up(plain.port)
    baseline = Clients(args.seed, manifest)
    baseline.run(plain.port, args.seconds / 4)
    plain.stop()
    spans_path = os.path.join(workdir, "server-spans.json")
    traced = Server(workdir, len(servers), spans=spans_path)
    servers.append(traced)
    warm_up(traced.port)
    clients = Clients(args.seed, manifest)
    clients.miss_index = baseline.miss_index
    clients.session_index = baseline.session_index
    t0, t1 = clients.run(traced.port, args.seconds / 2)
    wall = t1 - t0
    metrics_reply = Http(traced.port).call("GET", "/v1/metrics")
    queue = 0.0
    http = Http(traced.port)
    for _, _, job_id in clients.misses:
        if job_id:
            queue += http.call("GET", f"/v1/jobs/{job_id}").get("queue_seconds") or 0.0
    http.close()
    traced.stop()
    spans, absent = tracing.load(spans_path)
    spans = [s for s in spans if s.start >= 0 and s.end is not None]
    layer = tracing.layer_metrics(spans, absent, wall)
    counters = metrics_reply.get("counters", metrics_reply)
    hits = float(counters.get("discover_cache_hits", 0))
    misses = float(counters.get("discover_cache_misses", 0))
    rounds = clients.rounds[0]
    extra = {
        "service.queue_wait_s": queue / rounds,
        "service.cache_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "serialize.bytes": (layer["serialize.bytes"] + clients.bytes) / rounds,
    }
    overhead = median(clients.round_seconds) / median(baseline.round_seconds)
    result = bench.finish_trace(layer, rounds, overhead, extra)
    bench.write_spans("service", spans, absent)
    print(json.dumps({"workload": "service", "traced_rounds": clients.rounds,
                      "absent": absent, "server_flags": traced.flags,
                      "traced_wall_s": wall}))
    bench.emit(True, baseline.ops + clients.ops, 0, result, tracing.units())
    return 0
