"""The determinism contract of trace replay, property-tested.

The claims, each pinned here:

- **Round trip**: a workload recorded from a live replicated pipeline
  (writes with expirations, grouped batch reads with consistency
  tokens) replays into byte-identical final MSF state *and* identical
  ``(work, span)`` cost charges -- on the production RC-tree engine and
  the ``RCForest`` reference, with or without read replicas.
- **Chaos composition, both directions**: a trace recorded *under* a
  chaos tape (primary kills, follower churn) replays clean against the
  fault-free oracle -- crashed rounds were never durable, retried
  rounds record once -- and a clean trace replayed *while* a chaos tape
  fires still converges to the trace oracle.
"""

from __future__ import annotations

import itertools
import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.chaos.schedule import ChaosSchedule
from repro.graphgen import bursty_stream
from repro.replication import ReplicatedService
from repro.service.query import QueryService
from repro.service.service import ServiceConfig
from repro.sliding_window import SWConnectivityEager
from repro.service.wal import ops_from_json
from repro.trace import (
    ReplayConfig,
    TraceRecorder,
    TraceReplayer,
    read_trace,
    state_fingerprint,
    trace_oracle,
)
from repro.trace.replay import factory_from_meta
from tests.helpers import rc_engine

N = 16
SEED = 11


def factory():
    return SWConnectivityEager(N, seed=SEED)


def trace_meta():
    return {"factory": {"structure": "SWConnectivityEager", "n": N, "seed": SEED}}


def record_workload(tmp_path, rounds, name="w"):
    """Drive a live replicated pipeline through ``rounds`` with capture on.

    ``rounds`` is a list of ``(edges, expire, queries)``; expirations are
    clamped to the live window size so every round commits.  Returns the
    trace path, the recording run's final fingerprint, and its
    ``(work, span)`` cost charges.
    """
    trace_path = tmp_path / f"{name}.trace.jsonl"
    rec = TraceRecorder(trace_path, meta=trace_meta())
    cfg = ServiceConfig(flush_edges=10**9, snapshot_every=0, recorder=rec)
    svc = ReplicatedService(factory, tmp_path / f"{name}-rec", config=cfg)
    qs = QueryService(svc, recorder=rec)
    window = 0
    for edges, expire, queries in rounds:
        expire = min(expire, window)
        if not edges and not expire:
            continue
        lsn = svc.write(edges, expire)
        window += len(edges) - expire
        if queries:
            qs.run(queries, at_least=lsn)
    fp = state_fingerprint(svc.primary.structure)
    cost = svc.primary.structure.cost
    charges = (cost.work, cost.span)
    svc.close()
    rec.close()
    return trace_path, fp, charges


# ----------------------------------------------------------------------
# Hypothesis round trip: state and cost charges survive record -> replay
# ----------------------------------------------------------------------


def edges_strategy():
    # SWConnectivityEager takes (u, v) pairs: "weights" are recency
    # timestamps the structure assigns itself (that assignment being
    # deterministic is part of what the round trip proves).
    pair = st.tuples(st.integers(0, N - 1), st.integers(0, N - 1)).filter(
        lambda t: t[0] != t[1]
    )
    return st.lists(pair, min_size=0, max_size=6)


def queries_strategy():
    pair_q = st.tuples(
        st.sampled_from(["connected", "path_max"]),
        st.integers(0, N - 1),
        st.integers(0, N - 1),
    )
    scalar_q = st.sampled_from([("components",), ("window_size",)])
    return st.lists(st.one_of(pair_q, scalar_q), min_size=0, max_size=5)


def rounds_strategy():
    one_round = st.tuples(
        edges_strategy(), st.integers(0, 3), queries_strategy()
    )
    return st.lists(one_round, min_size=1, max_size=5)


# Hypothesis reuses one tmp_path across examples (and resets the random
# module's state per example, so random names would collide and the
# trace writer would *resume* a prior example's file): a process-global
# counter is the only safe uniquifier here.
_example_ids = itertools.count()


class TestRoundTripProperties:
    @settings(
        max_examples=15,
        deadline=None,
        suppress_health_check=[
            HealthCheck.too_slow,
            HealthCheck.function_scoped_fixture,
        ],
    )
    @given(rounds=rounds_strategy())
    def test_record_replay_state_and_charges(self, tmp_path, rounds):
        trace_path, fp, charges = record_workload(
            tmp_path, rounds, name=f"w{next(_example_ids)}"
        )
        meta, events = read_trace(trace_path)
        if not any(e.kind == "write" for e in events):
            return  # every generated round was empty; nothing to claim

        oracle, _ = trace_oracle(factory_from_meta(meta), events)
        assert state_fingerprint(oracle) == fp

        fps = {}
        for engine in ("array", "object"):
            with rc_engine(engine):
                res = TraceReplayer(
                    (meta, events),
                    data_dir=tmp_path / f"rp-{engine}-{trace_path.stem}",
                ).run()
            assert res.deterministic is True, engine
            fps[engine] = res.fingerprint
        assert fps["array"] == fp
        assert fps["object"] == fp  # rc.snapshot() is engine-independent


# ----------------------------------------------------------------------
# Deterministic replay: followers, charges
# ----------------------------------------------------------------------


def sample_rounds(rounds=10, seed=SEED):
    rng = random.Random(seed)
    out = []
    for i, batch in enumerate(
        bursty_stream(
            N, rounds=rounds, base_batch=3, burst_batch=8, window=20, rng=rng
        )
    ):
        queries = []
        if i % 2 == 0:
            queries = [
                ("connected", rng.randrange(N), rng.randrange(N))
                for _ in range(4)
            ] + [("components",), ("window_size",)]
        out.append((list(batch.edges), batch.expire, queries))
    return out


class TestDeterministicReplay:
    def test_replay_charges_match_recording(self, tmp_path):
        trace_path, fp, charges = record_workload(tmp_path, sample_rounds())
        replayer = TraceReplayer(
            trace_path,
            config=ReplayConfig(),
            data_dir=tmp_path / "rp",
        )
        res = replayer.run()
        assert res.fingerprint == fp
        assert res.deterministic is True
        # Replay the ops+reads once more on a bare pipeline to read the
        # cost charges off the served structure.
        meta, events = read_trace(trace_path)
        svc = ReplicatedService(
            factory_from_meta(meta),
            tmp_path / "charges",
            config=ServiceConfig(flush_edges=10**9, snapshot_every=0),
        )
        qs = QueryService(svc)
        for ev in events:
            if ev.kind == "write":
                svc.write_ops(ops_from_json(ev.body["ops"]))
            elif ev.kind == "read":
                qs.run(
                    [tuple(q) for q in ev.body["queries"]],
                    at_least=ev.body.get("at_least"),
                )
        cost = svc.primary.structure.cost
        assert (cost.work, cost.span) == charges
        assert state_fingerprint(svc.primary.structure) == fp
        svc.close()

    def test_replay_with_follower_matches_recording(self, tmp_path):
        trace_path, fp, _ = record_workload(tmp_path, sample_rounds())
        res = TraceReplayer(
            trace_path,
            config=ReplayConfig(followers=1),
            data_dir=tmp_path / "rp-follower",
        ).run()
        assert res.fingerprint == fp
        assert res.deterministic is True

    def test_rebatching_mode_preserves_logical_state(self, tmp_path):
        """``preserve_rounds=False`` re-batches under the target flush
        policy: round boundaries change, but the replay must stay
        byte-identical to its *own* WAL oracle and logically identical
        (window content, connectivity) to the trace oracle."""
        trace_path, fp, _ = record_workload(tmp_path, sample_rounds())
        meta, events = read_trace(trace_path)
        res = TraceReplayer(
            (meta, events),
            config=ReplayConfig(
                preserve_rounds=False,
                service=ServiceConfig(flush_edges=8, snapshot_every=0),
            ),
            data_dir=tmp_path / "rp-rebatch",
        ).run()
        assert res.deterministic is True  # vs its own WAL chain
        oracle, _ = trace_oracle(factory_from_meta(meta), events)
        want = dict(x for x in state_fingerprint(oracle) if isinstance(x, tuple))
        got = dict(x for x in res.fingerprint if isinstance(x, tuple))
        assert got["window_size"] == want["window_size"]
        assert got["num_components"] == want["num_components"]


# ----------------------------------------------------------------------
# Chaos composition
# ----------------------------------------------------------------------


class TestChaosComposition:
    def test_trace_recorded_under_chaos_replays_clean(self, tmp_path):
        """Primary kills during recording must not corrupt the trace:
        the crashed round was never durable (and never recorded), the
        retried round records once on the new primary -- so the trace
        replays byte-identical against the fault-free oracle."""
        from repro.chaos.schedule import ChaosDriver

        rec = TraceRecorder(tmp_path / "c.trace.jsonl", meta=trace_meta())
        cfg = ServiceConfig(
            flush_edges=10**9, snapshot_every=0, recorder=rec
        )
        svc = ReplicatedService(
            factory, tmp_path / "chaos-rec", config=cfg, followers=2
        )
        schedule = ChaosSchedule.generate(
            seed=7, events=8, steps=12, primary_kills=2
        )
        driver = ChaosDriver(svc, schedule)
        rng = random.Random(3)
        stream = bursty_stream(
            N, rounds=12, base_batch=3, burst_batch=8, window=20, rng=rng
        )
        for step, batch in enumerate(stream):
            driver.step(step, batch.edges, batch.expire)
        driver.finish()
        assert driver.stats["promotions"] >= 1  # chaos actually bit
        fp = state_fingerprint(svc.primary.structure)
        svc.close()
        rec.close()

        meta, events = read_trace(rec.path)
        lsns = [e.body["lsn"] for e in events if e.kind == "write"]
        assert lsns == sorted(set(lsns))  # each round recorded exactly once
        oracle, _ = trace_oracle(factory_from_meta(meta), events)
        assert state_fingerprint(oracle) == fp
        res = TraceReplayer(
            (meta, events),
            config=ReplayConfig(),
            data_dir=tmp_path / "chaos-rp",
        ).run()
        assert res.fingerprint == fp
        assert res.deterministic is True

    def test_replay_under_chaos_converges_to_oracle(self, tmp_path):
        """The other direction: a clean trace replayed while a chaos
        tape fires (kills, promotions) still ends at the trace oracle's
        state -- failover retries preserve every recorded round."""
        trace_path, fp, _ = record_workload(tmp_path, sample_rounds(rounds=12))
        meta, events = read_trace(trace_path)
        writes = sum(1 for e in events if e.kind == "write")
        schedule = ChaosSchedule.generate(
            seed=5, events=6, steps=writes, primary_kills=1
        )
        res = TraceReplayer(
            (meta, events),
            config=ReplayConfig(followers=2),
            data_dir=tmp_path / "rp-chaos",
            chaos=schedule,
        ).run()
        assert res.stats["promotions"] >= 1
        assert res.fingerprint == fp
        assert res.deterministic is True

    def test_chaos_requires_preserved_rounds(self, tmp_path):
        trace_path, _, _ = record_workload(tmp_path, sample_rounds(rounds=3))
        with pytest.raises(ValueError):
            TraceReplayer(
                trace_path,
                config=ReplayConfig(preserve_rounds=False),
                data_dir=tmp_path / "rp",
                chaos=ChaosSchedule.generate(seed=1, events=2, steps=3),
            )
