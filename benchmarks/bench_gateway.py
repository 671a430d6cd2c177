"""Gateway serving scaling: end-to-end reads/s vs follower *processes*.

Claim under test: moving followers out of the primary's OS process keeps
buying read throughput after the primary's interpreter is saturated.
The serving process sustains a bursty sliding-window ingest (back-to-back
durable commits, the write lock held across multi-millisecond structure
applies); at 0 workers every gateway read falls through to the
in-process :class:`~repro.service.query.QueryService` and queues behind
that lock.  Each ``python -m repro.replication.worker`` subprocess tails
the shared WAL under its **own interpreter lock**, so routed reads
neither wait on the primary's writer lock nor on its GIL -- while the
primary applies a round, the frames already in flight at k workers are
being evaluated concurrently in k other interpreters.  End-to-end
reads/s must therefore rise monotonically over worker counts 0/1/2/4,
with e2e p50/p99 (measured from *scheduled arrival*, open-loop)
recorded per point.

Harness: per configuration, this process hosts the durable primary, the
ingest thread, and the gateway, and spawns k worker subprocesses sharing
its WAL directory; :func:`repro.loadgen.run_load` offers a seeded
open-loop read-heavy stream well above capacity for a fixed wall budget,
so measured throughput is the configuration's capacity, not the offered
rate.  Worker tail polling uses a fixed aggregate budget (interval
scaled by k, one round per poll) so replay overhead is constant across
configurations -- workers serve bounded-stale reads, which is what the
tokenless consistency level asks for.  Per point we keep the **median**
of ``PASSES`` runs (scheduler noise on a shared box is one-sided:
medians, unlike best-of, do not crown a lucky outlier).

``REPRO_BENCH_SMOKE=1`` shrinks the sweep to worker counts 0/1, one
sub-second pass each, and skips the scaling assertion (a shared CI
runner cannot promise monotone timings); the committed artifact
``bench_results/gateway.json`` comes from a full run.
"""

from __future__ import annotations

import itertools
import os
import random
import statistics
import subprocess
import sys
import threading
import time

from repro.analysis import format_table
from repro.gateway import Gateway, GatewayConfig
from repro.graphgen import bursty_stream
from repro.loadgen import LoadConfig, run_load
from repro.replication import ReplicatedService
from repro.runtime import CostModel
from repro.service import ServiceConfig
from repro.sliding_window import SWConnectivityEager

SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "").strip() not in ("", "0")

N = 256
WORKER_COUNTS = [0, 1] if SMOKE else [0, 1, 2, 4]
MEASURE_S = 0.5 if SMOKE else 2.5
PASSES = 1 if SMOKE else 5
WINDOW = 1024
BASE_BATCH = 16
BURST_BATCH = 48
INGEST_ROUNDS = 200  # cycled; outlasts the measurement window
PRELOAD_ROUNDS = 8  # rounds committed before workers bootstrap
CLIENTS = 10_000
THINK_S = 2.0  # offered rate = CLIENTS / THINK_S = 5000 req/s >> capacity
READ_FRACTION = 0.97  # a trickle of HTTP writes keeps /v1/write in the loop
POOL = 16  # enough in-flight requests to feed every worker connection
TAIL_INTERVAL_S = 0.05  # per worker poll; scaled by k (aggregate budget)
BUSY_TIMEOUT_S = 0.02  # fail over quickly when a replay poll holds a worker


def _spawn_worker(data_dir, fid: int, k: int) -> tuple[subprocess.Popen, str]:
    """Start one worker subprocess; returns (proc, "host:port")."""
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro.replication.worker",
            "--data-dir", str(data_dir),
            "--structure", "SWConnectivityEager",
            "--n", str(N), "--seed", "13",
            "--port", "0", "--fid", str(fid),
            "--tail-interval", str(TAIL_INTERVAL_S * k),
            "--max-records", "1",
            "--busy-timeout", str(BUSY_TIMEOUT_S),
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        text=True,
        env=env,
    )
    line = proc.stdout.readline().strip()
    if not line.startswith("REPRO-WORKER READY"):
        proc.kill()
        raise RuntimeError(f"worker {fid} failed to start: {line!r}")
    _, _, host, port, _ = line.split()
    return proc, f"{host}:{port}"


def _run_config(workers: int, tmp_path, cost: CostModel):
    """One pass: returns (reads/s, p50 ms, p99 ms, ingest rounds/s)."""

    def factory():
        return SWConnectivityEager(N, seed=13, cost=cost)

    cfg = ServiceConfig(flush_edges=10**9, snapshot_every=0, fsync=True)
    data_dir = tmp_path / f"gw-{workers}"
    rng = random.Random(13)
    stream = bursty_stream(
        N,
        rounds=INGEST_ROUNDS,
        base_batch=BASE_BATCH,
        burst_batch=BURST_BATCH,
        window=WINDOW,
        rng=rng,
    )
    procs: list[subprocess.Popen] = []
    with ReplicatedService(factory, data_dir, cfg, followers=0) as rs:
        # Populate the window before workers bootstrap, so every replica
        # answers over a warm structure.
        for batch in itertools.islice(itertools.cycle(stream), PRELOAD_ROUNDS):
            rs.write(batch.edges, expire=batch.expire)
        addrs = []
        try:
            for fid in range(workers):
                proc, addr = _spawn_worker(data_dir, fid, workers)
                procs.append(proc)
                addrs.append(addr)
            gw = Gateway(rs, GatewayConfig(port=0, workers=tuple(addrs)))
            with gw:
                gw.start()
                host, port = gw.address
                stop = threading.Event()
                committed = [0]

                def ingest() -> None:
                    # Back-to-back durable commits: the write lock is
                    # the contended resource the worker tier routes
                    # reads around.
                    for batch in itertools.cycle(stream):
                        if stop.is_set():
                            return
                        rs.write(batch.edges, expire=batch.expire)
                        committed[0] += 1

                writer = threading.Thread(target=ingest, daemon=True)
                writer.start()
                time.sleep(0.05)  # let ingest reach steady state
                t0 = time.perf_counter()
                report = run_load(
                    host,
                    port,
                    LoadConfig(
                        duration_s=MEASURE_S,
                        clients=CLIENTS,
                        think_s=THINK_S,
                        read_fraction=READ_FRACTION,
                        n=N,
                        pool=POOL,
                        seed=13,
                    ),
                )
                ingest_wall = time.perf_counter() - t0
                stop.set()
                writer.join()
        finally:
            for proc in procs:
                proc.terminate()
            for proc in procs:
                try:
                    proc.wait(timeout=10)
                except subprocess.TimeoutExpired:
                    proc.kill()
    return (
        report.reads_per_s,
        report.p50_ms,
        report.p99_ms,
        committed[0] / ingest_wall,
    )


def test_gateway_scaling(record_table, record_json, benchmark, tmp_path):
    state: dict = {}

    def run():
        cost = CostModel()
        rows = []
        for k in WORKER_COUNTS:
            passes = [
                _run_config(k, tmp_path / f"p{i}", cost)
                for i in range(PASSES)
            ]
            # Median per metric across passes: a per-pass tuple would
            # couple the latency columns to whichever pass had the
            # median throughput.
            rows.append(
                (k, *(statistics.median(p[j] for p in passes) for j in range(4)))
            )
        state.clear()
        state.update(cost=cost, rows=rows)

    t0 = time.perf_counter()
    benchmark.pedantic(run, rounds=1, iterations=1)
    wall = time.perf_counter() - t0
    cost, rows = state["cost"], state["rows"]

    table = format_table(
        ["workers", "reads/s", "p50 ms", "p99 ms", "ingest/s"],
        [
            [k, f"{r:.0f}", f"{p50:.1f}", f"{p99:.1f}", f"{w:.0f}"]
            for k, r, p50, p99, w in rows
        ],
        title=(
            f"Gateway serving scaling: open-loop HTTP load "
            f"({CLIENTS} clients, think {THINK_S:.0f}s) against a "
            f"saturated fsync primary, n = {N}, median of {PASSES} x "
            f"{MEASURE_S:.1f}s per config"
        ),
    )
    record_table("gateway", table)
    record_json(
        "gateway",
        cost,
        params={
            "n": N,
            "workers": WORKER_COUNTS,
            "measure_s": MEASURE_S,
            "passes": PASSES,
            "clients": CLIENTS,
            "think_s": THINK_S,
            "read_fraction": READ_FRACTION,
            "pool": POOL,
            "window": WINDOW,
            "base_batch": BASE_BATCH,
            "burst_batch": BURST_BATCH,
            "tail_interval_s": TAIL_INTERVAL_S,
            "busy_timeout_s": BUSY_TIMEOUT_S,
            "seed": 13,
        },
        extra={
            "reads_per_sec": {str(k): r for k, r, _, _, _ in rows},
            "p50_ms": {str(k): p for k, _, p, _, _ in rows},
            "p99_ms": {str(k): p for k, _, _, p, _ in rows},
            "ingest_rounds_per_sec": {str(k): w for k, _, _, _, w in rows},
        },
        wall_s=wall,
    )
    tputs = [r for _, r, _, _, _ in rows]
    assert min(tputs) > 0
    if not SMOKE:
        # The committed artifact's claim: out-of-process followers buy
        # monotone end-to-end read throughput, 0 -> 4 worker processes.
        for prev, nxt in zip(tputs, tputs[1:]):
            assert nxt > prev
