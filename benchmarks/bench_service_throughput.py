"""Service layer throughput: rounds/sec and flush-latency tail.

Claims under test: the service's adaptive micro-batching preserves the
``O(l lg(1 + n/l))`` per-batch economics end to end -- larger committed
rounds mean less work per edge -- while the WAL + snapshot machinery adds
only constant per-round overhead.

Harness: drive a bursty sliding-window stream through a *durable*
:class:`~repro.service.StreamService` (WAL + periodic snapshots in a
scratch directory) over eager window connectivity, then report
throughput (rounds/sec, edges/sec) and the flush-latency distribution
(p50/p99), recorded as a versioned JSON record that
``python -m repro.report --trace`` renders.
"""

from __future__ import annotations

import pathlib
import random
import time

import numpy as np

from repro.analysis import format_table
from repro.graphgen import bursty_stream
from repro.runtime import CostModel
from repro.service import ServiceConfig, StreamService
from repro.sliding_window import SWConnectivityEager
from repro.trace import TraceRecorder

#: Every run leaves its committed rounds as a replayable trace artifact
#: (docs/tracing.md) -- feed it to ``scripts/gate.py --traces-dir`` or
#: ``repro.trace.replay_trace`` to re-drive this exact workload.
TRACE_PATH = (
    pathlib.Path(__file__).resolve().parent.parent
    / "bench_results"
    / "service_throughput.trace.jsonl"
)

N = 2048
ROUNDS = 48
BASE_BATCH = 64
BURST_BATCH = 512
WINDOW = 2048
FLUSH_EDGES = 256
SNAPSHOT_EVERY = 16


def test_service_throughput(record_table, record_json, benchmark, tmp_path):
    state: dict = {}

    def run():
        cost = CostModel()
        sw = SWConnectivityEager(N, seed=13, cost=cost)
        data_dir = tmp_path / f"svc-{len(state)}"
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
                    "kind": "bench_service_throughput",
                    "seed": 13,
                    "rounds": ROUNDS,
                },
            },
        )
        svc = StreamService(
            sw,
            data_dir=data_dir,
            config=ServiceConfig(
                flush_edges=FLUSH_EDGES,
                snapshot_every=SNAPSHOT_EVERY,
                recorder=recorder,
            ),
        )
        rng = random.Random(13)
        stream = bursty_stream(
            N,
            rounds=ROUNDS,
            base_batch=BASE_BATCH,
            burst_batch=BURST_BATCH,
            window=WINDOW,
            rng=rng,
        )
        edges = sum(len(b.edges) for b in stream)
        t0 = time.perf_counter()
        for b in stream:
            svc.submit(b)
        svc.drain()
        wall = time.perf_counter() - t0
        svc.close()
        recorder.close()
        state.clear()
        state.update(
            svc=svc,
            cost=cost,
            wall=wall,
            edges=edges,
            trace_events=recorder.events_recorded,
        )

    benchmark.pedantic(run, rounds=1, iterations=1)
    svc, cost, wall, edges = state["svc"], state["cost"], state["wall"], state["edges"]

    lat_ms = np.asarray(svc.flush_wall) * 1e3
    p50, p99 = np.percentile(lat_ms, [50, 99])
    committed = svc.rounds_applied
    rounds_per_sec = committed / wall
    edges_per_sec = edges / wall
    mean_batch = edges / committed

    table = format_table(
        ["rounds", "edges", "rounds/s", "edges/s", "mean l", "p50 ms", "p99 ms"],
        [
            [
                committed,
                edges,
                f"{rounds_per_sec:.1f}",
                f"{edges_per_sec:.0f}",
                f"{mean_batch:.0f}",
                f"{p50:.2f}",
                f"{p99:.2f}",
            ]
        ],
        title=(
            f"Service throughput: durable StreamService over SW connectivity, "
            f"n = {N}, WAL + snapshots every {SNAPSHOT_EVERY} rounds"
        ),
    )
    record_table("service_throughput", table)
    record_json(
        "service_throughput",
        cost,
        params={
            "n": N,
            "rounds": ROUNDS,
            "base_batch": BASE_BATCH,
            "burst_batch": BURST_BATCH,
            "window": WINDOW,
            "flush_edges": FLUSH_EDGES,
            "snapshot_every": SNAPSHOT_EVERY,
            "seed": 13,
        },
        wall_s=wall,
        extra={
            "rounds_committed": committed,
            "rounds_per_sec": rounds_per_sec,
            "edges_per_sec": edges_per_sec,
            "mean_committed_batch": mean_batch,
            "p50_flush_ms": float(p50),
            "p99_flush_ms": float(p99),
            "trace": TRACE_PATH.name,
            "trace_events": state["trace_events"],
        },
    )
    assert committed <= ROUNDS  # coalescing can only merge rounds, not split
    assert p99 >= p50 > 0
    # Capture rides the commit path: one trace event per committed round.
    assert state["trace_events"] == committed
