"""The ``ingest_bulk`` workload: a closed loop of submit+flush rounds.

One caller drives a durable :class:`StreamService` (WAL on, no fsync,
default snapshot cadence) over :class:`SWConnectivityEager` on the
default engine.  Each round expires ``ELL`` edges and inserts ``ELL``
uniform random edges, so the window stays at ``WINDOW`` edges; expiring
first keeps every round one WAL record.
"""

from __future__ import annotations

import gc
import random
import time

from common import Tracer, emit, median, pct, peak_rss_mb, remove_run_dir, run_dir
from layers import install_write_path, per_layer, ratio

from repro.service import ServiceConfig, StreamService
from repro.sliding_window import SWConnectivityEager

N = 8192
WINDOW = 8192
ELL = 512
#: Steady-state rounds run during set-up, after the window is full.
WARMUP_ROUNDS = 4
SETUPS = 3


class EdgeStream:
    """The seeded edge stream; keeps every edge so the oracle can see the
    live window."""

    def __init__(self, seed: int) -> None:
        self._rng = random.Random(f"ingest-{seed}")
        self.edges: list[tuple[int, int]] = []

    def take(self, k: int) -> list[tuple[int, int]]:
        r = self._rng.randrange
        batch = [(r(N), r(N)) for _ in range(k)]
        self.edges.extend(batch)
        return batch


def commit_round(svc: StreamService, expire: int, edges: list) -> None:
    """One round as the caller submits it; the service flushes inline once
    the pending items reach its size trigger."""
    if expire:
        svc.submit_expire(expire)
    svc.submit_insert(edges)
    if svc.queue_depth:
        svc.flush()


def set_up(seed: int, data_dir):
    t0 = time.perf_counter()
    stream = EdgeStream(seed)
    svc = StreamService(
        SWConnectivityEager(N), data_dir=data_dir, config=ServiceConfig()
    )
    for _ in range(WINDOW // ELL):
        commit_round(svc, 0, stream.take(ELL))
    for _ in range(WARMUP_ROUNDS):
        commit_round(svc, ELL, stream.take(ELL))
    return svc, stream, time.perf_counter() - t0


def _fingerprint(s) -> tuple:
    return (s.cost.work, s.cost.span, sorted(s.forest_edges()))


def kruskal_by_recency(edges: list[tuple[int, int]], first_tau: int) -> set:
    """The unique MSF of the window when newer edges are lighter."""
    parent = list(range(N))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    kept = set()
    for i in range(len(edges) - 1, -1, -1):
        u, v = edges[i]
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
            kept.add((u, v, first_tau + i))
    return kept


def run(seed: int, seconds: float, trace: bool) -> None:
    base = run_dir("ingest")
    svc = None
    try:
        setup_s, fingerprints = [], []
        for i in range(SETUPS):
            if svc is not None:
                # Drop every reference first, so the peak RSS counts one
                # structure, not the previous set-up's as well.
                svc.close()
                svc = stream = None
                gc.collect()
            svc, stream, dt = set_up(seed, base / f"setup{i}")
            setup_s.append(dt)
            fingerprints.append(_fingerprint(svc.structure))
        pram_ok = all(f == fingerprints[0] for f in fingerprints)
        work, span = fingerprints[-1][0], fingerprints[-1][1]

        lat, traced_lat = [], []
        tracer = Tracer() if trace else None
        deadline = time.perf_counter() + seconds
        rounds = 0
        while time.perf_counter() < deadline:
            edges = stream.take(ELL)
            on = tracer is not None and rounds % 2 == 1
            if on:
                install_write_path(tracer)
            t0 = time.perf_counter()
            commit_round(svc, ELL, edges)
            dt = time.perf_counter() - t0
            if on:
                tracer.restore()
                traced_lat.append(dt)
            else:
                lat.append(dt)
            rounds += 1
        rss = peak_rss_mb()

        s = svc.structure
        live = stream.edges[-WINDOW:]
        expected = kruskal_by_recency(live, len(stream.edges) - WINDOW)
        forest_ok = (
            s.window_size == WINDOW and set(s.forest_edges()) == expected
        )
        correct = pram_ok and forest_ok

        if tracer is None:
            metrics = {
                "edges_per_s": (ELL * len(lat) / sum(lat), "edges/s"),
                "latency_p50_ms": (pct(lat, 50) * 1e3, "ms"),
                "served_frac": (1.0, "frac"),
                "setup_s": (median(setup_s), "s"),
                "peak_rss_mb": (rss, "MiB"),
            }
        else:
            c, flushes = tracer.counts, tracer.samples["service.flush"]
            q = max(1, len(flushes) // 4)
            metrics = per_layer(
                tracer.samples,
                {
                    "trees.cpt_vertices_per_mark": ratio(
                        c["trees.cpt_vertices"], c["trees.cpt_marks"]
                    ),
                    "core.accept_ratio": ratio(c["core.links"], c["core.batch_edges"]),
                    "service.wal_bytes_per_round": ratio(
                        c["service.wal_bytes"], c["service.wal_rounds"]
                    ),
                    "pram.work": work,
                    "pram.span": span,
                    "service.flush_drift": ratio(
                        median(flushes[-q:]), median(flushes[:q])
                    ),
                    "unattributed_frac": 1.0 - ratio(tracer.top, sum(traced_lat)),
                    "trace_overhead_frac": ratio(median(traced_lat), median(lat)) - 1.0,
                    "samples": rounds,
                    "e2e.commit_p50_ms": pct(lat, 50) * 1e3,
                    "e2e.commit_p90_ms": pct(lat, 90) * 1e3,
                    "e2e.latency_tail_ms": pct(lat, 90) * 1e3,
                },
            )
        emit(correct, rounds, 0, metrics)
    finally:
        if svc is not None:
            svc.close()
        remove_run_dir(base)
