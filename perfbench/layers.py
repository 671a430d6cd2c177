"""The per-layer ledger: which public entry points are timed, and how the
per-layer metrics are assembled from the timers.

Import this module only after :func:`common.use_source`; it imports the
program.
"""

from __future__ import annotations

from typing import Any

from common import Tracer, pct

from repro.core.batch_msf import BatchIncrementalMSF
from repro.gateway.server import Gateway
from repro.gateway.workers import WorkerPool
from repro.replication import worker as worker_module
from repro.replication.follower import Follower
from repro.replication.replicated import ReplicatedService
from repro.replication.worker import WorkerServer
from repro.service.query import QueryService
from repro.service.service import StreamService
from repro.service.snapshot import SnapshotStore
from repro.service.wal import SegmentedWal
from repro.sliding_window import SWConnectivityEager
from repro.trees.forest import DynamicForest

#: Every timer, in write-path then read-path order.  Each is reported as
#: ``<name>.p50_ms``, ``.p99_ms``, ``.total_s`` and ``.calls``.
TIMERS = [
    "service.flush",
    "service.wal_append",
    "service.snapshot_save",
    "sliding_window.insert",
    "sliding_window.expire",
    "core.batch_insert",
    "core.semisort",
    "msf.kernel",
    "core.forget_edges",
    "trees.cpt",
    "trees.batch_update",
    "trees.batch_cut",
    "gateway.handle_read",
    "gateway.handle_write",
    "gateway.workers_read",
    "service.query_run",
    "replication.write",
    "replication.worker_dispatch",
    "service.answer_queries",
    "replication.catch_up",
]

#: Derived per-layer metrics and their units.
DERIVED = {
    "gateway.http_overhead_ms": "ms",
    "gateway.frame_overhead_ms": "ms",
    "client.send_delay_ms.p99": "ms",
    "gateway.worker_hit_ratio": "ratio",
    "replication.busy_ratio": "ratio",
    "replication.lag_rounds.p50": "rounds",
    "trees.cpt_vertices_per_mark": "ratio",
    "core.accept_ratio": "ratio",
    "service.wal_bytes_per_round": "bytes",
    "pram.work": "count",
    "pram.span": "count",
    "service.flush_drift": "ratio",
    "unattributed_frac": "frac",
    "trace_overhead_frac": "frac",
    "samples": "count",
    # Latencies too unsteady on a shared 2-vCPU host to gate as end-to-end
    # metrics; measured on the untraced part of the traced run.
    "e2e.commit_p50_ms": "ms",
    "e2e.commit_p90_ms": "ms",
    "e2e.latency_tail_ms": "ms",
}

#: Cost-model phases with no public entry point of their own, read from
#: the structure's ``cost.phases`` around each ``core.batch_insert``.
_PHASE_TIMERS = (("semisort", "core.semisort"), ("msf-kernel", "msf.kernel"))


def phase_wall(cost: Any, names: tuple[str, ...]) -> list[float]:
    """Total wall seconds recorded so far under each phase name, summed
    over every position the phase takes in ``cost.phases``."""
    totals = dict.fromkeys(names, 0.0)
    for _, node in cost.phases.walk():
        if node.name in totals:
            totals[node.name] += node.wall
    return [totals[n] for n in names]


def timer_metrics(samples: dict[str, list[float]], names: list[str]) -> dict:
    """``<name>.p50_ms``, ``.p99_ms``, ``.total_s`` and ``.calls`` per timer."""
    out: dict[str, tuple[float, str]] = {}
    for name in names:
        vals = samples.get(name, [])
        out[f"{name}.p50_ms"] = (pct(vals, 50) * 1e3, "ms")
        out[f"{name}.p99_ms"] = (pct(vals, 99) * 1e3, "ms")
        out[f"{name}.total_s"] = (sum(vals), "s")
        out[f"{name}.calls"] = (len(vals), "count")
    return out


def _phases_before(msf: Any, *_: Any) -> list[float]:
    return phase_wall(msf.cost, tuple(p for p, _ in _PHASE_TIMERS))


def _batch_insert_after(tracer: Tracer, before: list[float], args, report) -> None:
    after = _phases_before(args[0])
    for (_, name), t0, t1 in zip(_PHASE_TIMERS, before, after):
        tracer.add_sample(name, t1 - t0)
    tracer.counts["core.links"] += len(report.inserted)
    tracer.counts["core.batch_edges"] += len(report.inserted) + len(report.rejected)


def _cpt_after(tracer: Tracer, _: Any, args, cpt) -> None:
    tracer.counts["trees.cpt_marks"] += len(cpt.marked)
    tracer.counts["trees.cpt_vertices"] += cpt.num_vertices


def _wal_after(tracer: Tracer, before: int, args, _: Any) -> None:
    tracer.counts["service.wal_bytes"] += args[0].bytes_written - before
    tracer.counts["service.wal_rounds"] += 1


def install_write_path(tracer: Tracer) -> None:
    """Timers from ``StreamService.flush`` down to the dynamic forest."""
    tracer.wrap(StreamService, "flush", "service.flush")
    tracer.wrap(
        SegmentedWal, "append", "service.wal_append",
        before=lambda wal, *_: wal.bytes_written, after=_wal_after,
    )
    tracer.wrap(SnapshotStore, "save", "service.snapshot_save")
    tracer.wrap(SWConnectivityEager, "batch_insert", "sliding_window.insert")
    tracer.wrap(SWConnectivityEager, "batch_expire", "sliding_window.expire")
    tracer.wrap(
        BatchIncrementalMSF, "batch_insert", "core.batch_insert",
        before=_phases_before, after=_batch_insert_after,
    )
    tracer.wrap(BatchIncrementalMSF, "forget_edges", "core.forget_edges")
    # Resolved through the class, so batch_cut's inner batch_update call
    # is timed as trees.batch_update too.
    tracer.wrap(DynamicForest, "compressed_path_tree", "trees.cpt", after=_cpt_after)
    tracer.wrap(DynamicForest, "batch_update", "trees.batch_update")
    tracer.wrap(DynamicForest, "batch_cut", "trees.batch_cut")


def install_gateway(tracer: Tracer) -> None:
    """Timers of the gateway process's read and write handlers."""
    tracer.wrap(Gateway, "handle_read", "gateway.handle_read")
    tracer.wrap(Gateway, "handle_write", "gateway.handle_write")
    tracer.wrap(WorkerPool, "read", "gateway.workers_read")
    tracer.wrap(QueryService, "run", "service.query_run")
    tracer.wrap(ReplicatedService, "write", "replication.write")


def _dispatch_after(tracer: Tracer, _: Any, args, reply: dict) -> None:
    if args[1].get("op") == "read":
        tracer.counts["replication.read_frames"] += 1
        if reply.get("error") == "busy":
            tracer.counts["replication.busy"] += 1


def install_worker(tracer: Tracer) -> None:
    """Timers of the worker process: frames, batch reads and replay."""
    tracer.wrap(
        WorkerServer, "dispatch", "replication.worker_dispatch",
        after=_dispatch_after,
    )
    # The worker resolves answer_queries through its own module globals.
    tracer.wrap(worker_module, "answer_queries", "service.answer_queries")
    tracer.wrap(Follower, "catch_up", "replication.catch_up")


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(samples: dict, derived: dict) -> dict:
    """Every per-layer metric, in order; a timer or derived value that a
    workload does not reach reads 0."""
    unknown = set(derived) - set(DERIVED)
    if unknown:
        raise KeyError(f"undeclared derived metrics: {sorted(unknown)}")
    out = timer_metrics(samples, TIMERS)
    for name, unit in DERIVED.items():
        out[name] = (derived.get(name, 0.0), unit)
    return out
