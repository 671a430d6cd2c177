"""Batched read throughput vs batch size through ``QueryService``.

Claim under test: the vectorized batch read kernels make grouped reads
*cheap* -- ``QueryService`` groups a mixed read batch by kind and answers
each group off one shared ``batch-query`` sweep of the RC tree
(``batch_is_connected`` / ``batch_heaviest_edges``; docs/batch_queries.md),
so per-query cost falls as the batch grows.  A batch of one pays the full
routing + root-walk price per answer; a batch of 256 pays it once and
amortizes a single SoA level sweep over every pair.

Harness: a primary ingests a bursty sliding-window stream, one follower
replays it, and a single reader issues fixed query batches (alternating
``connected`` / ``path_max``) through :class:`~repro.service.query.
QueryService` for a wall budget, at batch sizes 1/16/64/256.  Per size we
record answered queries/sec and the speedup over the single-query
configuration, as a versioned JSON record that
``python -m repro.report --trace`` renders.  Batched reads must clear
``SPEEDUP_FLOOR`` x at every batch size >= 64.

``REPRO_BENCH_SMOKE=1`` shrinks everything to a CI-sized smoke run (tiny
n, one ingest round, no throughput assertion).
"""

from __future__ import annotations

import os
import random
import time

from repro.analysis import format_table
from repro.graphgen import bursty_stream
from repro.replication import ReplicatedService
from repro.runtime import CostModel
from repro.service import QueryService, ServiceConfig
from repro.sliding_window import SWConnectivityEager

SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "").strip() not in ("", "0")

N = 64 if SMOKE else 1024
INGEST_ROUNDS = 1 if SMOKE else 160
BASE_BATCH = 16
BURST_BATCH = 48
WINDOW = 256 if SMOKE else 4096
BATCH_SIZES = [1, 16, 64, 256]
MEASURE_S = 0.05 if SMOKE else 1.0
PASSES = 1 if SMOKE else 2
SPEEDUP_FLOOR = 5.0  # floor at batch >= 64


def _query_batch(rng: random.Random, size: int) -> list[tuple]:
    """A fixed mixed read batch: alternating connectivity / path-max."""
    out: list[tuple] = []
    for i in range(size):
        u, v = rng.randrange(N), rng.randrange(N)
        out.append(("connected", u, v) if i % 2 == 0 else ("path_max", u, v))
    return out


def test_batch_reads(record_table, record_json, benchmark, tmp_path):
    state: dict = {}

    def run():
        cost = CostModel()

        def factory():
            return SWConnectivityEager(N, seed=13, cost=cost)

        cfg = ServiceConfig(flush_edges=10**9, snapshot_every=0, fsync=False)
        rng = random.Random(13)
        stream = bursty_stream(
            N,
            rounds=INGEST_ROUNDS,
            base_batch=BASE_BATCH,
            burst_batch=BURST_BATCH,
            window=WINDOW,
            rng=rng,
        )
        rows = []
        with ReplicatedService(factory, tmp_path / "svc", cfg, followers=1) as rs:
            for b in stream:
                rs.write(b.edges, expire=b.expire)
            # on_lag="catch_up" replays the follower on first contact; the
            # window is static during measurement, so every subsequent read
            # is a pure query -- the batch-read path is all that varies.
            qs = QueryService(rs, on_lag="catch_up", spread_lag=10**9)
            for size in BATCH_SIZES:
                batch = _query_batch(random.Random(101 + size), size)
                qs.run(batch)  # warm: replay + first-touch caches
                best = 0.0
                for _ in range(PASSES):
                    answered = 0
                    t0 = time.perf_counter()
                    deadline = t0 + MEASURE_S
                    while time.perf_counter() < deadline:
                        res = qs.run(batch)
                        answered += len(res.answers)
                    best = max(best, answered / (time.perf_counter() - t0))
                rows.append((size, best))
        state.clear()
        state.update(cost=cost, rows=rows)

    benchmark.pedantic(run, rounds=1, iterations=1)
    cost, rows = state["cost"], state["rows"]

    base = rows[0][1]
    speedups = {size: tput / base for size, tput in rows}
    table = format_table(
        ["batch", "queries/s", "speedup vs batch=1"],
        [
            [size, f"{tput:.0f}", f"{speedups[size]:.1f}x"]
            for size, tput in rows
        ],
        title=(
            "Batched reads over QueryService: one "
            f"follower, n = {N}, static window, {MEASURE_S:.1f}s per size"
        ),
    )
    record_table("batch_reads", table)
    record_json(
        "batch_reads",
        cost,
        params={
            "n": N,
            "batch_sizes": BATCH_SIZES,
            "measure_s": MEASURE_S,
            "ingest_rounds": INGEST_ROUNDS,
            "base_batch": BASE_BATCH,
            "burst_batch": BURST_BATCH,
            "window": WINDOW,
            "smoke": SMOKE,
            "seed": 13,
        },
        extra={
            "queries_per_sec": {str(size): tput for size, tput in rows},
            "speedup_vs_single": {
                str(size): speedups[size] for size, _ in rows
            },
        },
    )
    if not SMOKE:
        # The headline claim: batched reads beat single-query reads >= 5x
        # once the batch reaches 64.
        for size, _ in rows:
            if size >= 64:
                assert speedups[size] >= SPEEDUP_FLOOR, (size, speedups[size])
