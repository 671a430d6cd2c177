"""Replicated read scaling: query throughput vs follower count.

Claim under test: the replication layer takes reads off the durable
write path.  The primary ingests with ``fsync=True``, so every commit
holds the writer lock across a disk flush -- a read routed to the
primary (the 0-follower configuration) stalls behind that I/O, while a
read routed to a follower never touches the write path at all (replay
is in-memory; durability was already paid by the primary).  Batch-read
throughput with followers must therefore clear the primary-only floor,
and adding followers must not degrade it (busy-avoiding round-robin
routing spreads concurrent readers across the allowed replicas, skipping
any replica whose lock a replay poll currently holds).

Harness: a primary ingests a bursty sliding-window stream on a
background thread while ``READERS`` reader threads issue mixed query
batches through :class:`~repro.service.query.QueryService` for a fixed
wall budget, at follower counts 0/1/2/4 (staggered background
replication shipping the WAL).  Per configuration we record answered
queries/sec and the read-lag distribution (p50/p99 rounds behind the
primary's durable tip), as a versioned JSON record that
``python -m repro.report --trace`` renders.
"""

from __future__ import annotations

import itertools
import pathlib
import random
import threading
import time

import numpy as np

from repro.analysis import format_table
from repro.graphgen import bursty_stream
from repro.replication import ReplicatedService
from repro.runtime import CostModel
from repro.service import QueryService, ServiceConfig
from repro.sliding_window import SWConnectivityEager
from repro.trace import TraceRecorder

#: One configuration's run (1 follower, first pass) is captured as a
#: replayable trace artifact -- concurrent writes and reads interleaved
#: exactly as the threads landed them (docs/tracing.md).
TRACE_PATH = (
    pathlib.Path(__file__).resolve().parent.parent
    / "bench_results"
    / "replication_reads.trace.jsonl"
)

N = 512
FOLLOWER_COUNTS = [0, 1, 2, 4]
READERS = 4
MEASURE_S = 2.0
PASSES = 2
INGEST_ROUNDS = 400
BASE_BATCH = 8
BURST_BATCH = 24
WINDOW = 1024
SNAPSHOT_EVERY = 0  # no checkpoint stalls mid-measurement
SHIP_INTERVAL_S = 0.05  # per shipped round; scaled by follower count
SHIP_BATCH = 1
QUERY_BATCH = [
    ("connected", 0, 1),
    ("connected", 2, 3),
    ("path_max", 0, 4),
    ("components",),
    ("window_size",),
]


def _run_config(followers: int, tmp_path, cost: CostModel, recorder=None):
    """One configuration: returns (queries/sec, lag p50, lag p99)."""

    def factory():
        return SWConnectivityEager(N, seed=13, cost=cost)

    cfg = ServiceConfig(
        flush_edges=10**9,
        snapshot_every=SNAPSHOT_EVERY,
        fsync=True,
        recorder=recorder,
    )
    data_dir = tmp_path / f"repl-{followers}"
    rng = random.Random(13)
    stream = bursty_stream(
        N,
        rounds=INGEST_ROUNDS,
        base_batch=BASE_BATCH,
        burst_batch=BURST_BATCH,
        window=WINDOW,
        rng=rng,
    )

    with ReplicatedService(factory, data_dir, cfg, followers=followers) as rs:
        # Spread reads across every replica the consistency level allows
        # (no tokens here, so the whole fleet): per-replica lock stalls
        # during replay polls then hit 1/k of the readers, not all.
        qs = QueryService(
            rs, on_lag="catch_up", spread_lag=10**9, recorder=recorder
        )
        stop = threading.Event()

        def ingest():
            # Cycle the stream so ingest outlasts the measurement window
            # regardless of the fsync-bound commit rate.
            for b in itertools.cycle(stream):
                if stop.is_set():
                    return
                rs.write(b.edges, expire=b.expire)

        answered = [0] * READERS
        lags: list[list[int]] = [[] for _ in range(READERS)]

        def read(slot: int) -> None:
            deadline = time.perf_counter() + MEASURE_S
            while time.perf_counter() < deadline:
                res = qs.run(QUERY_BATCH)
                answered[slot] += len(res.answers)
                lags[slot].append(max(0, rs.primary.next_lsn - res.lsn))

        if followers:
            # A fixed *aggregate* replication budget: each follower ships
            # one round per poll, polling 1/k as often with k followers,
            # so replay steals the same CPU share at every follower count
            # and backlog shows up as (reported) lag instead.
            rs.start_replication(
                interval=SHIP_INTERVAL_S * followers, max_records=SHIP_BATCH
            )
        writer = threading.Thread(target=ingest, daemon=True)
        writer.start()
        # Warm the window so queries see a populated structure.
        time.sleep(0.05)
        t0 = time.perf_counter()
        threads = [
            threading.Thread(target=read, args=(i,)) for i in range(READERS)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        wall = time.perf_counter() - t0
        stop.set()
        writer.join()
        if followers:
            rs.stop_replication()

    lag_all = np.asarray([x for per in lags for x in per] or [0])
    p50, p99 = np.percentile(lag_all, [50, 99])
    return sum(answered) / wall, float(p50), float(p99)


def test_replication_reads(record_table, record_json, benchmark, tmp_path):
    state: dict = {}

    def run():
        cost = CostModel()
        rows = []
        for k in FOLLOWER_COUNTS:
            # Best of PASSES runs: the sustainable rate, not the one most
            # perturbed by scheduler jitter.
            passes = []
            for i in range(PASSES):
                recorder = None
                if k == 1 and i == 0:
                    TRACE_PATH.parent.mkdir(exist_ok=True)
                    TRACE_PATH.unlink(missing_ok=True)
                    recorder = TraceRecorder(
                        TRACE_PATH,
                        meta={
                            "factory": {
                                "structure": "SWConnectivityEager",
                                "n": N,
                                "seed": 13,
                            },
                            "generator": {
                                "kind": "bench_replication_reads",
                                "followers": k,
                                "readers": READERS,
                            },
                        },
                    )
                passes.append(
                    _run_config(k, tmp_path / f"p{i}", cost, recorder=recorder)
                )
                if recorder is not None:
                    recorder.close()
            best = max(passes, key=lambda r: r[0])
            rows.append((k, *best))
        state.clear()
        state.update(cost=cost, rows=rows)

    benchmark.pedantic(run, rounds=1, iterations=1)
    cost, rows = state["cost"], state["rows"]

    table = format_table(
        ["followers", "reads/s", "lag p50", "lag p99"],
        [
            [k, f"{tput:.0f}", f"{lag50:.1f}", f"{lag99:.1f}"]
            for k, tput, lag50, lag99 in rows
        ],
        title=(
            f"Replicated read scaling: {READERS} readers over QueryService, "
            f"n = {N}, ingest running, {MEASURE_S:.1f}s per config"
        ),
    )
    record_table("replication_reads", table)
    record_json(
        "replication_reads",
        cost,
        params={
            "n": N,
            "followers": FOLLOWER_COUNTS,
            "readers": READERS,
            "measure_s": MEASURE_S,
            "ingest_rounds": INGEST_ROUNDS,
            "base_batch": BASE_BATCH,
            "burst_batch": BURST_BATCH,
            "window": WINDOW,
            "snapshot_every": SNAPSHOT_EVERY,
            "seed": 13,
        },
        extra={
            "reads_per_sec": {str(k): t for k, t, _, _ in rows},
            "lag_p50": {str(k): p for k, _, p, _ in rows},
            "lag_p99": {str(k): p for k, _, _, p in rows},
            "trace": TRACE_PATH.name,
        },
    )
    assert TRACE_PATH.exists()  # the 1-follower pass left its trace
    tputs = [t for _, t, _, _ in rows]
    # Every replicated configuration must beat the 0-follower
    # (primary-only) floor, and adding followers must not collapse
    # throughput (30% scheduler-noise allowance -- the readers are
    # GIL-bound, so gains past the first follower come only from reduced
    # lock contention).
    assert min(tputs[1:]) > tputs[0]
    for prev, nxt in zip(tputs[1:], tputs[2:]):
        assert nxt >= 0.7 * prev
