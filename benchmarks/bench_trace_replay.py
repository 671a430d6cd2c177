"""Trace capture/replay cost: recording overhead and replay throughput.

Claims under test: trace capture is cheap enough to leave on (one JSON
encode and one buffered append per committed round -- the recorder must
not perturb the workload it measures), and deterministic replay is fast
enough to gate on (a golden trace replays in seconds, so
``scripts/gate.py`` can afford best-of-N measurement in CI).

Harness: record a bursty sliding-window workload with periodic grouped
read batches through a live :class:`~repro.replication.ReplicatedService`
with a :class:`~repro.trace.TraceRecorder` attached, then replay the
trace under two configurations -- preserved rounds (the byte-identity
gate mode) and re-batching mode (ops re-coalesced under the target
flush policy).  Every replay's final state
is asserted byte-identical to the trace oracle (or its own WAL oracle in
re-batching mode) before any number is reported: a fast-but-wrong replay
is worthless.  The recorded trace is left in ``bench_results/`` for
inspection and ad-hoc gating.
"""

from __future__ import annotations

import pathlib
import random
import time

from repro.analysis import format_table
from repro.graphgen import bursty_stream
from repro.replication import ReplicatedService
from repro.runtime import CostModel
from repro.service import QueryService, ServiceConfig
from repro.sliding_window import SWConnectivityEager
from repro.trace import (
    ReplayConfig,
    TraceRecorder,
    TraceReplayer,
    read_trace,
    state_fingerprint,
    trace_oracle,
)
from repro.trace.replay import factory_from_meta

N = 512
ROUNDS = 96
BASE_BATCH = 8
BURST_BATCH = 24
WINDOW = 256
READS_EVERY = 4
SEED = 13

RESULTS_DIR = pathlib.Path(__file__).resolve().parent.parent / "bench_results"
QUERY_BATCH = [
    ("connected", 0, 1),
    ("connected", 2, 3),
    ("path_max", 0, 4),
    ("components",),
    ("window_size",),
]


def _record_trace(trace_path, data_dir, cost):
    """Drive the live pipeline with capture on; returns (wall_s, rounds)."""

    def factory():
        return SWConnectivityEager(N, seed=SEED, cost=cost)

    trace_path.unlink(missing_ok=True)
    rng = random.Random(SEED)
    stream = bursty_stream(
        N,
        rounds=ROUNDS,
        base_batch=BASE_BATCH,
        burst_batch=BURST_BATCH,
        window=WINDOW,
        rng=rng,
    )
    meta = {
        "factory": {"structure": "SWConnectivityEager", "n": N, "seed": SEED},
        "generator": {"kind": "bench_trace_replay", "seed": SEED, "rounds": ROUNDS},
    }
    with TraceRecorder(trace_path, meta=meta) as rec:
        cfg = ServiceConfig(
            flush_edges=10**9, snapshot_every=0, recorder=rec
        )
        svc = ReplicatedService(factory, data_dir, config=cfg)
        qs = QueryService(svc, recorder=rec)
        t0 = time.perf_counter()
        for i, batch in enumerate(stream):
            lsn = svc.write(batch.edges, expire=batch.expire)
            if i % READS_EVERY == 0:
                qs.run(QUERY_BATCH, at_least=lsn)
        wall = time.perf_counter() - t0
        fp = state_fingerprint(svc.primary.structure)
        svc.close()
    return wall, fp


def test_trace_replay(record_table, record_json, benchmark, tmp_path):
    state: dict = {}
    trace_path = RESULTS_DIR / "trace_replay.trace.jsonl"
    RESULTS_DIR.mkdir(exist_ok=True)

    def run():
        cost = CostModel()
        record_wall, live_fp = _record_trace(trace_path, tmp_path / "rec", cost)
        meta, events = read_trace(trace_path)
        oracle, _ = trace_oracle(factory_from_meta(meta), events)
        assert state_fingerprint(oracle) == live_fp  # capture was faithful

        modes = [
            ("preserved", ReplayConfig()),
            (
                "re-batched",
                ReplayConfig(
                    preserve_rounds=False,
                    service=ServiceConfig(flush_edges=64, snapshot_every=0),
                ),
            ),
        ]
        rows = []
        for i, (label, cfg) in enumerate(modes):
            res = TraceReplayer(
                (meta, events),
                factory=factory_from_meta(meta),
                config=cfg,
                data_dir=tmp_path / f"rp{i}",
            ).run()
            assert res.deterministic is True, label
            if cfg.preserve_rounds:
                assert res.fingerprint == live_fp, label
            rows.append((label, res))
        state.clear()
        state.update(
            cost=cost,
            record_wall=record_wall,
            events=len(events),
            rows=rows,
        )

    benchmark.pedantic(run, rounds=1, iterations=1)
    cost, rows = state["cost"], state["rows"]
    n_events = state["events"]
    record_wall = state["record_wall"]

    table = format_table(
        ["mode", "events/s", "write p99 ms", "reads/s", "wall s"],
        [
            [
                label,
                f"{n_events / res.wall_s:.0f}",
                f"{res.write_p99_ms:.2f}",
                f"{res.reads_per_s:.0f}",
                f"{res.wall_s:.2f}",
            ]
            for label, res in rows
        ],
        title=(
            f"Trace replay: {n_events} events over n = {N}, recorded in "
            f"{record_wall:.2f}s with capture on, replayed per mode"
        ),
    )
    record_table("trace_replay", table)
    record_json(
        "trace_replay",
        cost,
        params={
            "n": N,
            "rounds": ROUNDS,
            "base_batch": BASE_BATCH,
            "burst_batch": BURST_BATCH,
            "window": WINDOW,
            "reads_every": READS_EVERY,
            "seed": SEED,
        },
        wall_s=record_wall,
        extra={
            "trace_events": n_events,
            "record_wall_s": record_wall,
            "replay": {
                label: {
                    "events_per_s": n_events / res.wall_s,
                    "write_p99_ms": res.write_p99_ms,
                    "reads_per_s": res.reads_per_s,
                    "wall_s": res.wall_s,
                }
                for label, res in rows
            },
        },
    )
    # Replay must not be slower than live recording: it skips fsync-free
    # capture but adds oracle checks, so parity is the honest floor.
    assert all(res.rounds == ROUNDS for _, res in rows)
