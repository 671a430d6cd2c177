"""The ``serve_mixed`` workload: open-loop HTTP reads and writes.

Three processes: the gateway with the durable primary
(``gateway_proc.py``), one read worker tailing the primary's WAL
(``worker_proc.py``), and this one, which starts both and is the load
generator.  ``RATE`` requests per second arrive open loop: reads as a
seeded Poisson process, writes from one producer at a fixed period.  They
are sent over at most ``nproc`` keep-alive connections, and each request
is timed from the instant it was due.  A health probe per second samples
replication lag and is left out of every latency.
"""

from __future__ import annotations

import http.client
import json
import os
import queue
import random
import socket
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from urllib.parse import urlsplit

from common import (
    ROOT,
    child_env,
    emit,
    median,
    pct,
    peak_rss_mb,
    remove_run_dir,
    run_dir,
)
from layers import per_layer, ratio

from repro.gateway.protocol import dumps, jsonable
from repro.replication.worker import build_factory
from repro.service import apply_ops, read_wal_dir, wal_directory
from repro.service.query import answer_queries

N = 2048
WINDOW = 2048
PRELOAD_ELL = 512
#: Offered requests per second.  The host sustains about 2.5x this, so a
#: slow spell of the shared CPUs does not tip the server into a backlog
#: that would swing the read median from run to run.
RATE = 60.0
WRITE_SHARE = 0.05
READ_BATCH = 16
WRITE_EDGES = 4
ZIPF_S = 1.1
WARMUP_S = 3.0
#: A response later than this after its due time counts as failed, and a
#: request not sent by then is shed.
LATE_S = 1.0
SETUPS = 3
CONNS = max(1, min(2, os.cpu_count() or 1))
GATE_BATCHES = 8
TAIL_WINDOWS = 3
STRUCTURE_SEED = 0x5EED
HERE = ROOT / "perfbench"


def factory():
    """The served structure, with the library's default coin-flip seed: the
    workload seed reaches the program only as generated inputs."""
    return build_factory("SWConnectivityEager", N, STRUCTURE_SEED)


def preload_rounds(seed: int) -> list[list[tuple[int, int]]]:
    rng = random.Random(f"serve-preload-{seed}")
    return [
        [(rng.randrange(N), rng.randrange(N)) for _ in range(PRELOAD_ELL)]
        for _ in range(WINDOW // PRELOAD_ELL)
    ]


class Inputs:
    """Seeded request bodies: Zipf-skewed read pairs, uniform write edges."""

    def __init__(self, tag: str) -> None:
        self.rng = random.Random(tag)
        order = list(range(N))
        random.Random("serve-zipf").shuffle(order)
        self._order = order
        acc, self._cum = 0.0, []
        for rank in range(N):
            acc += 1.0 / (rank + 1) ** ZIPF_S
            self._cum.append(acc)

    def queries(self) -> list[list]:
        rng = self.rng
        ends = rng.choices(self._order, cum_weights=self._cum, k=2 * READ_BATCH)
        return [
            [rng.choice(("connected", "path_max")), ends[2 * i], ends[2 * i + 1]]
            for i in range(READ_BATCH)
        ]

    def edges(self) -> list[list[int]]:
        r = self.rng.randrange
        return [[r(N), r(N)] for _ in range(WRITE_EDGES)]


@dataclass
class Request:
    due: float  # seconds after the phase starts
    kind: str  # "read", "write" or "probe"
    body: bytes = b""
    edges: list | None = None


def schedule(tag: str, seconds: float) -> list[Request]:
    """Poisson reads, and writes from one producer at a fixed period with
    a seeded phase, so every run sees the same number of write rounds
    spaced alike."""
    inputs = Inputs(tag)
    rng = inputs.rng
    reads = max(1, round(RATE * (1 - WRITE_SHARE) * seconds))
    out = [
        Request(due, "read", dumps({"queries": inputs.queries()}))
        for due in sorted(rng.uniform(0.0, seconds) for _ in range(reads))
    ]
    period = 1.0 / (RATE * WRITE_SHARE)
    phase = rng.uniform(0.0, period)
    for i in range(max(1, round(seconds / period))):
        edges = inputs.edges()
        body = dumps({"edges": edges, "expire": WRITE_EDGES})
        out.append(Request(phase + i * period, "write", body, edges))
    out.extend(Request(t + 0.5, "probe") for t in range(int(seconds)))
    out.sort(key=lambda r: r.due)
    return out


@dataclass
class Result:
    req: Request
    due: float
    sent: float = 0.0
    done: float = 0.0
    status: int = 0  # 0: shed or transport error
    body: bytes = b""

    @property
    def ok(self) -> bool:
        return self.status == 200 and self.done - self.due <= LATE_S


class _Connection(http.client.HTTPConnection):
    def connect(self) -> None:
        super().connect()
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)


def drive(url: str, plan: list[Request]) -> tuple[float, list[Result]]:
    """Send ``plan`` open loop; returns the phase start and every result."""
    host, port = urlsplit(url).hostname, urlsplit(url).port
    start = time.perf_counter() + 0.02
    results = [Result(r, start + r.due) for r in plan]
    lock = threading.Lock()
    cursor = [0]

    def connection() -> None:
        conn = _Connection(host, port, timeout=30)
        try:
            while True:
                with lock:
                    i = cursor[0]
                    cursor[0] += 1
                if i >= len(results):
                    return
                res = results[i]
                wait = res.due - time.perf_counter()
                if wait > 0:
                    time.sleep(wait)
                res.sent = time.perf_counter()
                if res.sent - res.due > LATE_S:
                    continue  # shed: the backlog is past the latency limit
                try:
                    if res.req.kind == "probe":
                        conn.request("GET", "/v1/health")
                    else:
                        conn.request(
                            "POST", f"/v1/{res.req.kind}", body=res.req.body,
                            headers={"Content-Type": "application/json"},
                        )
                    resp = conn.getresponse()
                    res.body = resp.read()
                    res.status = resp.status
                except (OSError, http.client.HTTPException):
                    conn.close()
                res.done = time.perf_counter()
        finally:
            conn.close()

    threads = [threading.Thread(target=connection) for _ in range(CONNS)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return start, results


class Child:
    """A launched process with a JSON-lines control channel."""

    def __init__(self, script: str, *args: str) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / script), *args],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            env=child_env(), cwd=ROOT,
        )
        self._lines: queue.Queue = queue.Queue()
        self._reader = threading.Thread(target=self._read, daemon=True)
        self._reader.start()

    def _read(self) -> None:
        for line in self.proc.stdout:
            self._lines.put(line)
        self._lines.put(None)

    def reply(self, timeout: float = 120.0) -> dict:
        line = self._lines.get(timeout=timeout)
        if line is None:
            raise RuntimeError(f"{self.proc.args[1]} exited ({self.proc.wait()})")
        return json.loads(line)

    def request(self, cmd: dict, timeout: float = 60.0) -> dict:
        self.proc.stdin.write(json.dumps(cmd) + "\n")
        self.proc.stdin.flush()
        return self.reply(timeout)

    def close(self) -> None:
        try:
            self.proc.stdin.close()
        except OSError:
            pass
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self._reader.join(timeout=10)


def get_json(url: str, path: str) -> dict:
    conn = _Connection(urlsplit(url).hostname, urlsplit(url).port, timeout=30)
    try:
        conn.request("GET", path)
        return json.loads(conn.getresponse().read())
    finally:
        conn.close()


class Deployment:
    """One gateway process plus one worker process over a fresh data dir."""

    def __init__(self, seed: int, data_dir) -> None:
        self.seed = seed
        self.data_dir = data_dir
        self.writes: dict[int, list] = {}
        self.gateway: Child | None = None
        self.worker: Child | None = None

    def start(self) -> None:
        """Spawn, preload, attach the worker, wait for it to replay the
        primary's tip, and warm up; ``setup_s`` times all of it."""
        t0 = time.perf_counter()
        data = ("--data-dir", str(self.data_dir))
        self.gateway = Child("gateway_proc.py", *data, "--seed", str(self.seed))
        self.ready = self.gateway.reply()
        self.url = self.ready["url"]
        self.worker = Child("worker_proc.py", *data)
        addr = self.worker.reply()["addr"]
        self.gateway.request({"cmd": "workers", "addrs": [addr]})
        self.wait_caught_up()
        self.run_phase(f"serve-warmup-{self.seed}", WARMUP_S)
        self.setup_s = time.perf_counter() - t0

    def wait_caught_up(self) -> None:
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            h = get_json(self.url, "/v1/health")
            w = h["workers"]
            if w and w[0]["alive"] and w[0]["lsn"] == h["primary"]["lsn"]:
                return
            time.sleep(0.02)
        raise RuntimeError("worker did not replay the primary's tip in 60 s")

    def run_phase(self, tag: str, seconds: float) -> tuple[float, list[Result]]:
        start, results = drive(self.url, schedule(tag, seconds))
        for r in results:
            if r.req.kind == "write" and r.status == 200:
                lsn = json.loads(r.body)["lsn"]
                self.writes[lsn] = [("i", r.req.edges), ("e", WRITE_EDGES)]
        return start, results

    def trace(self) -> None:
        self.gateway.request({"cmd": "trace"})
        self.worker.request({"cmd": "trace"})

    def close(self) -> None:
        for child in (self.worker, self.gateway):
            if child is not None:
                child.close()


def _norm(ops) -> list:
    return [
        (k, [list(map(int, e)) for e in p] if k == "i" else int(p)) for k, p in ops
    ]


def gate(dep: Deployment, seed: int) -> bool:
    """Seeded reads tagged with the last write token must match, byte for
    byte, an oracle that replays the WAL through ``apply_ops``; the rounds
    the WAL no longer holds are the ones this process sent."""
    rounds = {i: [("i", e)] for i, e in enumerate(preload_rounds(seed))}
    rounds.update(dep.writes)
    tip = max(rounds) + 1
    records, base = read_wal_dir(wal_directory(dep.data_dir))
    if sorted(rounds) != list(range(tip)) or base + len(records) != tip:
        return False
    if any(_norm(rec.ops) != _norm(rounds[rec.lsn]) for rec in records):
        return False
    oracle = factory()()
    for lsn in range(base):
        apply_ops(oracle, rounds[lsn])
    for rec in records:
        apply_ops(oracle, rec.ops)

    inputs = Inputs(f"serve-gate-{seed}")
    batches = [inputs.queries() for _ in range(GATE_BATCHES)]
    batches.append([["components"], ["window_size"]])
    conn = _Connection(urlsplit(dep.url).hostname, urlsplit(dep.url).port, timeout=30)
    ok = True
    try:
        for replica in ("worker0", "primary"):
            if replica == "primary":
                dep.gateway.request({"cmd": "workers", "addrs": []})
            for q in batches:
                conn.request("POST", "/v1/read", body=dumps({"queries": q, "at_least": tip - 1}))
                got = conn.getresponse().read()
                answers = answer_queries(oracle, [tuple(x) for x in q])
                want = dumps(
                    {"answers": jsonable(answers), "lsn": tip, "replica": replica, "stale": False}
                )
                ok = ok and got == want
    finally:
        conn.close()
    return ok


def _lat(results: list[Result], kind: str, lo: float = 0.0, hi: float = float("inf")) -> list[float]:
    """Latencies of the answered ``kind`` requests due in ``[lo, hi)``
    seconds after the phase started."""
    return [
        r.done - r.due
        for r in results
        if r.req.kind == kind and r.ok and lo <= r.req.due < hi
    ]


def _windowed(results: list[Result], seconds: float, kind: str, q: float) -> float:
    """Median over ``TAIL_WINDOWS`` equal time windows of each window's
    ``q``-th percentile latency, in ms.  One hiccup of the host then moves
    one window, not the run's tail."""
    w = seconds / TAIL_WINDOWS
    tails = [pct(_lat(results, kind, i * w, (i + 1) * w), q) for i in range(TAIL_WINDOWS)]
    return median(tails) * 1e3


def run(seed: int, seconds: float, trace: bool) -> None:
    base = run_dir("serve")
    dep: Deployment | None = None
    try:
        setup_s, prams = [], []
        for i in range(SETUPS):
            if dep is not None:
                dep.close()
            dep = Deployment(seed, base / f"setup{i}")
            dep.start()
            setup_s.append(dep.setup_s)
            prams.append((dep.ready["work"], dep.ready["span"], dep.ready["lsn"]))
        if trace:
            _, untraced = dep.run_phase(f"serve-load-a-{seed}", seconds / 2)
            dep.trace()
            start, load = dep.run_phase(f"serve-load-b-{seed}", seconds / 2)
            gw_snap = dep.gateway.request({"cmd": "snapshot"})
            wk_snap = dep.worker.request({"cmd": "snapshot"})
            timed = untraced + load
        else:
            start, load = dep.run_phase(f"serve-load-{seed}", seconds)
            timed = load
        rss = peak_rss_mb(dep.ready["pid"])
        correct = all(p == prams[0] for p in prams) and gate(dep, seed)
        sent = [r for r in timed if r.req.kind != "probe"]
        failed = sum(not r.ok for r in sent)

        if not trace:
            writes = _lat(load, "write")
            last = max(r.done for r in load if r.ok)
            metrics = {
                "edges_per_s": (WRITE_EDGES * len(writes) / (last - start), "edges/s"),
                "latency_p50_ms": (pct(_lat(load, "read"), 50) * 1e3, "ms"),
                "served_frac": (1.0 - failed / len(sent), "frac"),
                "setup_s": (median(setup_s), "s"),
                "peak_rss_mb": (rss, "MiB"),
            }
        else:
            final = dep.gateway.request({"cmd": "snapshot"})
            metrics = _ledger(dep, seconds / 2, untraced, load, gw_snap, wk_snap, final)
        emit(correct, len(sent), failed, metrics)
    finally:
        if dep is not None:
            dep.close()
        remove_run_dir(base)


def _ledger(dep, half, untraced, load, gw_snap, wk_snap, final) -> dict:
    """Per-layer metrics of the traced half of the load.  Every timer comes
    from that half except ``service.query_run``: the worker serves the
    load's reads, so that timer is read after the correctness gate, whose
    second pass goes through the in-process route."""
    samples = {**wk_snap["samples"], **gw_snap["samples"]}
    samples["service.query_run"] = final["samples"]["service.query_run"]
    gwc, wkc = gw_snap["counts"], wk_snap["counts"]

    def p50_ms(name: str) -> float:
        return pct(samples.get(name, []), 50) * 1e3

    answered = [r for r in load if r.req.kind != "probe" and r.status]
    reads = [r for r in answered if r.req.kind == "read" and r.ok]
    replicas = [json.loads(r.body)["replica"] for r in reads]
    lags = []
    for r in load:
        if r.req.kind == "probe" and r.status == 200:
            h = json.loads(r.body)
            lags.append(h["primary"]["lsn"] - h["workers"][0]["lsn"])
    flushes = samples.get("service.flush", [])
    q = max(1, len(flushes) // 4)
    return per_layer(
        samples,
        {
            "gateway.http_overhead_ms": median([r.done - r.sent for r in reads]) * 1e3
            - p50_ms("gateway.handle_read"),
            "gateway.frame_overhead_ms": p50_ms("gateway.workers_read")
            - p50_ms("replication.worker_dispatch"),
            "client.send_delay_ms.p99": pct(
                [r.sent - r.due for r in load if r.req.kind != "probe"], 99
            ) * 1e3,
            "gateway.worker_hit_ratio": ratio(
                sum(x.startswith("worker") for x in replicas), len(replicas)
            ),
            "replication.busy_ratio": ratio(
                wkc.get("replication.busy", 0), wkc.get("replication.read_frames", 0)
            ),
            "replication.lag_rounds.p50": median(lags),
            "trees.cpt_vertices_per_mark": ratio(
                gwc.get("trees.cpt_vertices", 0), gwc.get("trees.cpt_marks", 0)
            ),
            "core.accept_ratio": ratio(
                gwc.get("core.links", 0), gwc.get("core.batch_edges", 0)
            ),
            "service.wal_bytes_per_round": ratio(
                gwc.get("service.wal_bytes", 0), gwc.get("service.wal_rounds", 0)
            ),
            "pram.work": dep.ready["work"],
            "pram.span": dep.ready["span"],
            "service.flush_drift": ratio(median(flushes[-q:]), median(flushes[:q])),
            "unattributed_frac": 1.0
            - ratio(gw_snap["top"], sum(r.done - r.sent for r in answered)),
            "trace_overhead_frac": ratio(
                median(_lat(load, "read")), median(_lat(untraced, "read"))
            ) - 1.0,
            "samples": len([r for r in load if r.req.kind != "probe"]),
            "e2e.commit_p50_ms": pct(_lat(untraced, "write"), 50) * 1e3,
            "e2e.commit_p90_ms": _windowed(untraced, half, "write", 90),
            "e2e.latency_tail_ms": _windowed(untraced, half, "read", 99),
        },
    )
