"""Chaos engineering: fault injection, retry/backoff, degraded serving.

Fast sections unit-test each resilience primitive in isolation -- the
seeded :class:`FaultyIO` adversary, the WAL's append-repair invariant
under it, :class:`RetryPolicy`, :class:`CircuitBreaker`, overload
shedding, and degraded reads through a dead primary.  The slow section
is the acceptance soak: a seeded :class:`ChaosSchedule` of >= 50
adversities (follower kills/restarts, storage fault windows, primary
kills with failover) played against a live replicated service, after
which every surviving node must be byte-identical to the fault-free
oracle replayed from the winning WAL chain -- on the production RC-tree
engine and on the ``RCForest`` reference.
"""

from __future__ import annotations

import errno
import random
import time

import pytest

from repro.chaos import ChaosDriver, ChaosEvent, ChaosSchedule, FaultyIO
from repro.chaos.faults import SNAPSHOT_SUFFIX, is_snapshot_path
from repro.chaos.schedule import replay_oracle
from repro.graphgen.streams import bursty_stream
from repro.replication import ReplicatedService
from repro.service import (
    CircuitBreaker,
    RetryPolicy,
    SegmentedWal,
    ServiceClosed,
    ServiceConfig,
    ServiceOverloaded,
    StalenessExceeded,
    StorageIO,
    StreamService,
    WalCursor,
    is_transient_io,
)
from repro.service.query import QueryService
from repro.service.wal import WalCorruption
from repro.sliding_window import SWConnectivityEager
from tests.helpers import rc_engine

N = 24
SEED = 13
OPS = [("i", ((0, 1),))]

NO_SLEEP = lambda s: None  # noqa: E731


def make_sw():
    return SWConnectivityEager(N, seed=SEED)


def fingerprint(sw):
    return (
        sw.num_components,
        sorted(sw.forest_edges()),
        sw._msf.forest.rc.snapshot(),
    )


def stream_rounds(rounds=8, seed=SEED):
    rng = random.Random(seed)
    return bursty_stream(
        N, rounds=rounds, base_batch=4, burst_batch=10, window=20, rng=rng
    )


def chaos_config(faults, **kw):
    # Chaos runs keep the full chain (the oracle replays from lsn 0) and
    # flush one explicit round per step.
    kw.setdefault("flush_edges", 10**9)
    kw.setdefault("snapshot_every", 10**9)
    kw.setdefault("io", faults)
    kw.setdefault("retry", RetryPolicy(sleep=NO_SLEEP))
    return ServiceConfig(**kw)


class ScriptedIO(StorageIO):
    """Raises a transient EIO on exactly the scripted call indices."""

    def __init__(self, fail_reads=(), fail_appends=()):
        self.fail_reads = set(fail_reads)
        self.fail_appends = set(fail_appends)
        self.reads = 0
        self.appends = 0

    def read_from(self, path, offset):
        self.reads += 1
        if self.reads in self.fail_reads:
            raise OSError(errno.EIO, "scripted read error")
        return super().read_from(path, offset)

    def append(self, f, data):
        self.appends += 1
        if self.appends in self.fail_appends:
            raise OSError(errno.EIO, "scripted append error")
        super().append(f, data)


# ---------------------------------------------------------------------------
# FaultyIO
# ---------------------------------------------------------------------------


class TestFaultyIO:
    def test_disarmed_injects_nothing(self, tmp_path):
        io = FaultyIO(seed=1, p_write_error=1.0, p_read_error=1.0)
        wal = SegmentedWal(tmp_path, io=io)
        wal.append(OPS)
        assert io.injected == 0
        wal.close()

    def test_same_seed_same_decisions(self):
        def decisions(seed):
            io = FaultyIO(seed=seed, p_read_error=0.5)
            io.arm()
            return [io._roll(io.p_read_error, "read_error") for _ in range(64)]

        assert decisions(3) == decisions(3)
        assert decisions(3) != decisions(4)

    def test_budget_bounds_a_window(self):
        io = FaultyIO(seed=0, p_read_error=1.0)
        io.arm(max_faults=2)
        hits = 0
        for _ in range(10):
            try:
                io.read_from("/nonexistent", 0)
            except OSError as exc:
                if exc.errno == errno.EIO:
                    hits += 1
        assert hits == 2  # later calls fail on the real path, not injection
        assert io.injected == 2
        assert not io.armed

    def test_torn_write_leaves_strict_prefix(self, tmp_path):
        io = FaultyIO(seed=5, p_torn_write=1.0)
        p = tmp_path / "f.bin"
        io.arm()
        with open(p, "wb") as f:
            with pytest.raises(OSError):
                io.append(f, b"x" * 100)
        assert 0 < p.stat().st_size < 100

    def test_bitflip_targets_snapshots_only(self, tmp_path):
        io = FaultyIO(seed=2, p_bitflip=1.0)
        snap = tmp_path / ("s" + SNAPSHOT_SUFFIX)
        log = tmp_path / "seg.jsonl"
        payload = b"\x00" * 32
        snap.write_bytes(payload)
        log.write_bytes(payload)
        io.arm()
        assert is_snapshot_path(snap) and not is_snapshot_path(log)
        assert io.read_bytes(snap) != payload
        assert io.read_bytes(log) == payload

    def test_transient_errnos_classified(self):
        assert is_transient_io(OSError(errno.EIO, "x"))
        assert is_transient_io(OSError(errno.ENOSPC, "x"))
        assert not is_transient_io(OSError(errno.EBADF, "x"))
        assert not is_transient_io(WalCorruption("x"))
        assert not is_transient_io(ValueError("x"))


# ---------------------------------------------------------------------------
# WAL under faults
# ---------------------------------------------------------------------------


class TestWalUnderFaults:
    def test_append_repairs_and_retries_same_lsn(self, tmp_path):
        io = ScriptedIO(fail_appends={3})  # call 1 is the segment header
        wal = SegmentedWal(tmp_path, io=io)
        wal.append(OPS)
        with pytest.raises(OSError):
            wal.append(OPS)
        # The failed round was discarded whole; the retry reuses its LSN.
        assert wal.append(OPS) == 1
        wal.close()
        cur = WalCursor(tmp_path)
        assert [r.lsn for r in cur.poll()] == [0, 1]

    def test_torn_append_repairs_on_retry(self, tmp_path):
        io = FaultyIO(seed=11, p_torn_write=1.0)
        wal = SegmentedWal(tmp_path, io=io)
        wal.append(OPS)
        io.arm(max_faults=1)
        with pytest.raises(OSError):
            wal.append(OPS)
        assert wal.append(OPS) == 1  # prefix truncated away, clean retry
        wal.close()
        cur = WalCursor(tmp_path)
        assert [r.lsn for r in cur.poll()] == [0, 1]

    def test_cursor_mid_poll_fault_keeps_partial_progress(self, tmp_path):
        # Regression: a transient read fault on a *later* iteration of one
        # poll() must not discard records already extracted (the cursor
        # position has advanced past them -- raising would skip them
        # forever).  Rotation forces poll() to read twice.
        wal = SegmentedWal(tmp_path)
        wal.append(OPS)
        wal.rotate()
        wal.append(OPS)
        wal.close()
        io = ScriptedIO(fail_reads={2})
        cur = WalCursor(tmp_path, io=io)
        first = cur.poll()
        assert [r.lsn for r in first] == [0]  # partial delivery, no raise
        assert [r.lsn for r in cur.poll()] == [1]

    def test_cursor_first_read_fault_raises_clean(self, tmp_path):
        # With nothing delivered yet the poll raises, and crucially the
        # position is untouched: a retry sees every record.
        wal = SegmentedWal(tmp_path)
        wal.append(OPS)
        wal.close()
        io = ScriptedIO(fail_reads={1})
        cur = WalCursor(tmp_path, io=io)
        with pytest.raises(OSError):
            cur.poll()
        assert [r.lsn for r in cur.poll()] == [0]

    def test_service_commit_retries_transient_append(self, tmp_path):
        io = ScriptedIO(fail_appends={2})  # call 1 is the segment header
        svc = StreamService(
            make_sw(),
            data_dir=tmp_path,
            config=ServiceConfig(
                flush_edges=10**9, io=io, retry=RetryPolicy(sleep=NO_SLEEP)
            ),
        )
        svc.submit_insert([(0, 1), (1, 2)])
        assert svc.flush() == 0  # retried under the policy, not surfaced
        assert svc.alive
        svc.close()


# ---------------------------------------------------------------------------
# RetryPolicy
# ---------------------------------------------------------------------------


class TestRetryPolicy:
    def test_backoffs_deterministic_and_bounded(self):
        p = RetryPolicy(attempts=5, base_delay=0.01, max_delay=0.04, seed=9)
        a, b = p.backoffs(), p.backoffs()
        assert a == b and len(a) == 4
        assert all(0.005 <= d <= 0.04 for d in a)
        assert a != RetryPolicy(attempts=5, base_delay=0.01, seed=10).backoffs()

    def test_retries_transient_then_succeeds(self):
        calls = []

        def flaky():
            calls.append(1)
            if len(calls) < 3:
                raise OSError(errno.EIO, "transient")
            return "ok"

        slept = []
        p = RetryPolicy(attempts=4, sleep=slept.append)
        assert p.call(flaky) == "ok"
        assert len(calls) == 3 and len(slept) == 2

    def test_non_transient_raises_immediately(self):
        calls = []

        def bad():
            calls.append(1)
            raise WalCorruption("damage")

        with pytest.raises(WalCorruption):
            RetryPolicy(attempts=5, sleep=NO_SLEEP).call(bad)
        assert len(calls) == 1  # corruption is never retried

    def test_attempts_exhausted_raises_last_error(self):
        calls = []

        def always():
            calls.append(1)
            raise OSError(errno.ENOSPC, "full")

        with pytest.raises(OSError):
            RetryPolicy(attempts=3, sleep=NO_SLEEP).call(always)
        assert len(calls) == 3

    def test_deadline_stops_early(self):
        def always():
            raise OSError(errno.EIO, "transient")

        p = RetryPolicy(
            attempts=50, base_delay=10.0, deadline=0.001, sleep=NO_SLEEP
        )
        t0 = time.monotonic()
        with pytest.raises(OSError):
            p.call(always)
        assert time.monotonic() - t0 < 1.0


# ---------------------------------------------------------------------------
# CircuitBreaker
# ---------------------------------------------------------------------------


class TestCircuitBreaker:
    def make(self):
        self.now = 0.0
        return CircuitBreaker(
            failure_threshold=2, cooldown=1.0, clock=lambda: self.now
        )

    def test_lifecycle(self):
        br = self.make()
        assert br.state("a") == "closed" and br.allow("a")
        br.record_failure("a")
        assert br.state("a") == "closed"
        br.record_failure("a")
        assert br.state("a") == "open" and not br.allow("a")
        self.now = 1.5
        assert br.state("a") == "half-open"
        assert br.allow("a")  # the single probe
        assert not br.allow("a")  # second caller rejected
        br.record_success("a")
        assert br.state("a") == "closed" and br.allow("a")

    def test_failed_probe_reopens(self):
        br = self.make()
        br.record_failure("a")
        br.record_failure("a")
        self.now = 1.5
        assert br.allow("a")
        br.record_failure("a")
        assert br.state("a") == "open"
        self.now = 2.0
        assert br.state("a") == "open"  # fresh cooldown from the re-open

    def test_cancel_hands_probe_back(self):
        br = self.make()
        br.record_failure("a")
        br.record_failure("a")
        self.now = 1.5
        assert br.allow("a")
        assert not br.allow("a")
        br.cancel("a")  # probe never ran (replica busy)
        assert br.allow("a")  # next caller may probe instead

    def test_keys_independent(self):
        br = self.make()
        br.record_failure("a")
        br.record_failure("a")
        assert not br.allow("a") and br.allow("b")
        br.reset("a")
        assert br.allow("a")


# ---------------------------------------------------------------------------
# Degraded serving and admission control
# ---------------------------------------------------------------------------


class TestDegradedServing:
    def kill_primary(self, svc):
        svc.primary.failpoints["before-wal-append"] = lambda lsn: True
        from repro.service import InjectedCrash

        with pytest.raises(InjectedCrash):
            svc.write([(9, 10)])
        assert not svc.primary.alive

    def test_degrade_serves_stale_from_best_follower(self, tmp_path):
        with ReplicatedService(
            make_sw, tmp_path, ServiceConfig(flush_edges=10**9), followers=2
        ) as svc:
            token = 0
            for rnd in stream_rounds(5):
                token = svc.write(rnd.edges, rnd.expire)
            svc.poll()
            self.kill_primary(svc)
            qs = QueryService(svc, on_primary_down="degrade")
            # A token no follower can ever reach (the round died with the
            # primary) forces the primary fallback -- which is dead.
            res = qs.run([("components",)], at_least=token + 5)
            assert res.stale and res.replica.startswith("follower")
            # A plain read off a live follower is NOT flagged stale.
            assert qs.run([("components",)]).stale is False

    def test_fail_mode_raises_service_closed(self, tmp_path):
        with ReplicatedService(
            make_sw, tmp_path, ServiceConfig(flush_edges=10**9), followers=1
        ) as svc:
            token = svc.write([(0, 1)])
            self.kill_primary(svc)
            qs = QueryService(svc, on_primary_down="fail")
            with pytest.raises(ServiceClosed):
                qs.run([("components",)], at_least=token + 5)

    def test_degrade_with_no_live_follower_raises_staleness(self, tmp_path):
        with ReplicatedService(
            make_sw, tmp_path, ServiceConfig(flush_edges=10**9), followers=1
        ) as svc:
            svc.write([(0, 1)])
            self.kill_primary(svc)
            for f in svc.followers:
                f.kill()
            qs = QueryService(svc, on_primary_down="degrade")
            with pytest.raises(StalenessExceeded):
                qs.run([("components",)])

    def test_wait_fails_fast_with_no_live_replicas(self, tmp_path):
        # _wait_for is entered with a live replica that then dies; it must
        # fail fast instead of burning wait_timeout when nobody can ever
        # catch up, and fall back to the primary when *it* can serve.
        with ReplicatedService(
            make_sw, tmp_path, ServiceConfig(flush_edges=10**9), followers=1
        ) as svc:
            token = svc.write([(0, 1)])
            qs = QueryService(svc, on_lag="wait", wait_timeout=30.0)
            for f in svc.followers:
                f.kill()
            # Primary alive and has the round: fall back (None).
            assert qs._wait_for(token + 1) is None
            self.kill_primary(svc)
            t0 = time.monotonic()
            with pytest.raises(StalenessExceeded, match="no live replicas"):
                qs._wait_for(token + 1)
            assert time.monotonic() - t0 < 5.0  # not the 30s timeout

    def test_breaker_skips_repeat_offender(self, tmp_path):
        with ReplicatedService(
            make_sw, tmp_path, ServiceConfig(flush_edges=10**9), followers=2
        ) as svc:
            svc.write([(0, 1)])
            svc.poll()
            from repro.replication import FollowerDead

            dead = svc.followers[0]

            def boom(fn):
                # Looks alive to routing but fails every read.
                raise FollowerDead(f"follower {dead.fid} is flaky")

            dead.try_query = boom
            dead.query = boom
            br = CircuitBreaker(failure_threshold=1, cooldown=60.0)
            qs = QueryService(svc, breaker=br)
            for _ in range(4):
                res = qs.run([("components",)])
                assert res.answers == [N - 1]
            assert br.state(dead.fid) == "open"

    def test_overload_sheds_with_retry_after(self, tmp_path):
        with ReplicatedService(
            make_sw, tmp_path, ServiceConfig(flush_edges=10**9), followers=1
        ) as svc:
            svc.write([(0, 1)])
            svc.poll()
            qs = QueryService(svc, max_inflight=1)
            assert qs.run([("components",)]).answers == [N - 1]
            assert qs._inflight.acquire(blocking=False)  # occupy the slot
            try:
                with pytest.raises(ServiceOverloaded) as ei:
                    qs.run([("components",)])
                assert ei.value.retry_after >= 0.0
            finally:
                qs._inflight.release()
            assert qs.run([("components",)]).answers == [N - 1]


# ---------------------------------------------------------------------------
# Schedules and the driver
# ---------------------------------------------------------------------------


class TestChaosSchedule:
    def test_same_seed_same_tape(self):
        a = ChaosSchedule.generate(seed=4, events=30, steps=100)
        b = ChaosSchedule.generate(seed=4, events=30, steps=100)
        assert a.events == b.events
        assert a.events != ChaosSchedule.generate(seed=5, events=30, steps=100).events

    def test_counts_and_primary_kills(self):
        s = ChaosSchedule.generate(seed=0, events=50, steps=200, primary_kills=3)
        c = s.counts()
        assert sum(c.values()) == 50
        assert c["primary_kill"] == 3
        assert all(0 <= e.step < 200 for e in s.events)
        with pytest.raises(ValueError):
            ChaosSchedule.generate(events=1, primary_kills=2)

    def test_at_returns_sorted_events(self):
        s = ChaosSchedule(
            seed=0,
            steps=10,
            events=[
                ChaosEvent(step=3, kind="kill_follower"),
                ChaosEvent(step=3, kind="fault_window", duration=2, budget=1),
                ChaosEvent(step=7, kind="restart_follower"),
            ],
        )
        assert [e.kind for e in s.at(3)] == ["fault_window", "kill_follower"]
        assert s.at(7) == [ChaosEvent(step=7, kind="restart_follower")]
        assert s.at(5) == []


class TestChaosDriver:
    def run_tape(self, tmp_path, seed=7, rounds=60):
        factory = make_sw
        faults = FaultyIO(
            seed=seed,
            p_write_error=0.3,
            p_torn_write=0.2,
            p_fsync_error=0.2,
            p_read_error=0.2,
            p_bitflip=0.5,
            sleep=NO_SLEEP,
        )
        sched = ChaosSchedule.generate(
            seed=seed, events=25, steps=rounds, primary_kills=2
        )
        svc = ReplicatedService(
            factory,
            tmp_path,
            chaos_config(faults),
            followers=3,
            follower_retry=RetryPolicy(sleep=NO_SLEEP),
        )
        driver = ChaosDriver(svc, sched, faults)
        for step, rnd in enumerate(stream_rounds(rounds, seed=seed)):
            driver.step(step, rnd.edges, rnd.expire)
        driver.finish()
        return svc, driver, faults, factory

    def test_short_tape_converges_to_oracle(self, tmp_path):
        svc, driver, faults, factory = self.run_tape(tmp_path)
        oracle, tip = replay_oracle(factory, tmp_path)
        want = fingerprint(oracle)
        assert driver.stats["rounds"] == 60
        assert driver.stats["promotions"] >= 2
        assert faults.injected > 0
        assert fingerprint(svc.primary.structure) == want
        for f in svc.followers:
            if not f.alive:
                f.restart()
            f.catch_up()
            assert fingerprint(f.structure) == want
        svc.close()

    def test_oracle_requires_full_chain(self, tmp_path):
        svc = StreamService(
            make_sw(),
            data_dir=tmp_path,
            config=ServiceConfig(
                flush_edges=10**9, snapshot_every=2, retain_snapshots=1
            ),
        )
        for rnd in stream_rounds(10):
            svc.submit_insert(rnd.edges)
            if rnd.expire:
                svc.submit_expire(rnd.expire)
            svc.flush()
        svc.close()
        from repro.service.wal import WalTruncated

        with pytest.raises(WalTruncated):
            replay_oracle(make_sw, tmp_path)


# ---------------------------------------------------------------------------
# The acceptance soak (slow)
# ---------------------------------------------------------------------------


@pytest.mark.slow
@pytest.mark.parametrize("engine", ["array", "object"])
@pytest.mark.parametrize("seed", [7, 21])
def test_chaos_soak_converges_on_oracle(tmp_path, engine, seed):
    """>= 50 seeded adversities; every node must match the replay oracle."""
    rounds = 120

    def factory():
        with rc_engine(engine):
            return make_sw()

    faults = FaultyIO(
        seed=seed,
        p_write_error=0.3,
        p_torn_write=0.2,
        p_fsync_error=0.2,
        p_read_error=0.2,
        p_bitflip=0.5,
        sleep=NO_SLEEP,
    )
    sched = ChaosSchedule.generate(
        seed=seed, events=50, steps=rounds, primary_kills=3
    )
    assert sum(sched.counts().values()) >= 50
    svc = ReplicatedService(
        factory,
        tmp_path,
        chaos_config(faults),
        followers=3,
        follower_retry=RetryPolicy(sleep=NO_SLEEP),
    )
    driver = ChaosDriver(svc, sched, faults)
    for step, rnd in enumerate(stream_rounds(rounds, seed=seed)):
        driver.step(step, rnd.edges, rnd.expire)
    driver.finish()

    # The oracle replays on the production engine whichever engine served.
    oracle, tip = replay_oracle(make_sw, tmp_path)
    want = fingerprint(oracle)
    assert driver.stats["rounds"] == rounds
    assert driver.stats["promotions"] >= 3
    assert driver.stats["follower_kills"] > 0
    assert faults.injected > 0
    assert svc.primary.next_lsn == tip
    assert fingerprint(svc.primary.structure) == want
    for f in svc.followers:
        if not f.alive:
            f.restart()
        f.catch_up()
        assert f.replayed_lsn == tip
        assert fingerprint(f.structure) == want
    svc.close()
