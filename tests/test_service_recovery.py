"""Property: WAL replay + snapshot restore reproduce an uninterrupted run.

Hypothesis drives a random round sequence (inserts of arbitrary batches
interleaved with expirations), crashes the apply loop at a random WAL
offset and failpoint, recovers with :meth:`StreamService.open`, finishes
the run, and then requires the recovered structure to be *byte-identical*
to a twin that never went through a service at all: same RC-tree
contraction snapshot, same MSF edge set, same answer to every
connectivity query.  The service runs on the production RC-tree engine
or on the ``RCForest`` reference; the twin always runs on production.

The replicated twin (``test_replicated_followers_converge``) runs the
same property against :class:`~repro.replication.ReplicatedService`: a
random kill/restart schedule interrupts followers mid-stream, yet every
follower -- revived and caught up -- must land on the twin's exact
fingerprint, because followers replay the same WAL through the same
apply path (the split-brain variant lives in ``tests/test_replication``).
"""

from __future__ import annotations

import itertools
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.replication import ReplicatedService
from repro.service import (
    InjectedCrash,
    ServiceConfig,
    SnapshotStore,
    StreamService,
)
from repro.sliding_window import SWConnectivityEager
from tests.helpers import rc_engine

N = 12
SEED = 0xC0FFEE

edge = st.tuples(st.integers(0, N - 1), st.integers(0, N - 1)).filter(
    lambda e: e[0] != e[1]
)
# A round must commit something, so that one round == one WAL record and
# resuming from ``rounds[next_lsn:]`` is exact.
round_ = st.tuples(
    st.lists(edge, min_size=0, max_size=6), st.integers(0, 4)
).filter(lambda r: bool(r[0]) or r[1] > 0)
rounds_ = st.lists(round_, min_size=1, max_size=8)


def drive_direct(rounds):
    sw = SWConnectivityEager(N, seed=SEED)
    for edges, expire in rounds:
        if edges:
            sw.batch_insert(edges)
        if expire:
            sw.batch_expire(expire)
    return sw


def fingerprint(sw):
    return (
        sw.num_components,
        sorted(sw.forest_edges()),
        sw._msf.forest.rc.snapshot(),
        [(u, v, sw.is_connected(u, v)) for u in range(N) for v in range(u + 1, N)],
    )


@pytest.mark.parametrize("engine", ["object", "array"])
@settings(max_examples=30, deadline=None)
@given(
    rounds=rounds_,
    crash_frac=st.floats(0.0, 1.0),
    point=st.sampled_from(["before-wal-append", "after-wal-append", "mid-apply"]),
    snapshot_every=st.sampled_from([0, 1, 2]),
)
def test_crash_recover_matches_uninterrupted(
    tmp_path_factory, engine, rounds, crash_frac, point, snapshot_every
):
    tmp_path = tmp_path_factory.mktemp("svc")
    cfg = ServiceConfig(flush_edges=10**9, snapshot_every=snapshot_every)

    def factory():
        with rc_engine(engine):
            return SWConnectivityEager(N, seed=SEED)

    twin = SWConnectivityEager(N, seed=SEED)
    for edges, expire in rounds:
        if edges:
            twin.batch_insert(edges)
        if expire:
            twin.batch_expire(expire)

    crash_lsn = min(int(crash_frac * len(rounds)), len(rounds) - 1)
    svc = StreamService(factory(), data_dir=tmp_path, config=cfg)
    svc.failpoints[point] = lambda lsn: lsn == crash_lsn
    died = False
    for edges, expire in rounds:
        try:
            if edges:
                svc.submit_insert(edges)
            if expire:
                svc.submit_expire(expire)
            svc.flush()
        except InjectedCrash:
            died = True
            break
    # If crash_lsn never committed (only possible when every remaining
    # round raised first), the run completes and recovery is a plain reopen.
    if not died:
        svc.close()

    svc2 = StreamService.open(tmp_path, factory, config=cfg)
    for edges, expire in rounds[svc2.next_lsn :]:
        if edges:
            svc2.submit_insert(edges)
        if expire:
            svc2.submit_expire(expire)
        svc2.flush()
    svc2.close()

    assert fingerprint(svc2.structure) == fingerprint(twin)


def test_checkpoint_from_an_older_schema_is_skipped(tmp_path):
    """A checkpoint tagged with the v1 schema (an older pickled engine
    layout) must not be loaded: recovery skips it and replays the whole
    WAL to the uninterrupted run's fingerprint."""
    rounds = [([(0, 1), (1, 2), (3, 4)], 0), ([(2, 3), (5, 6)], 1),
              ([(6, 7), (4, 8), (9, 10)], 2), ([(10, 11), (0, 7)], 0)]
    cfg = ServiceConfig(flush_edges=10**9, snapshot_every=0)
    svc = StreamService(SWConnectivityEager(N, seed=SEED), tmp_path, cfg)
    for edges, expire in rounds:
        svc.submit_insert(edges)
        if expire:
            svc.submit_expire(expire)
        svc.flush()
    svc.close()

    # Claims to cover the first two rounds but holds the empty structure,
    # so loading it would lose them.
    snaps = tmp_path / "snapshots"
    snaps.mkdir()
    (snaps / "snapshot-000000000001.pkl").write_bytes(
        pickle.dumps(
            {
                "schema": "repro.service/snapshot/v1",
                "lsn": 1,
                "epoch": 0,
                "structure": SWConnectivityEager(N, seed=SEED),
            }
        )
    )
    assert SnapshotStore(snaps).load_latest() is None

    recovered = StreamService.open(
        tmp_path, lambda: SWConnectivityEager(N, seed=SEED), config=cfg
    )
    assert recovered.next_lsn == len(rounds)
    assert fingerprint(recovered.structure) == fingerprint(drive_direct(rounds))
    recovered.close()


# One optional follower disruption per round: kill or revive replica 0/1.
action_ = st.sampled_from(
    [None, (0, "kill"), (0, "restart"), (1, "kill"), (1, "restart")]
)


@pytest.mark.slow
@pytest.mark.parametrize("engine", ["object", "array"])
@settings(max_examples=20, deadline=None)
@given(
    rounds=rounds_,
    schedule=st.lists(action_, min_size=0, max_size=8),
    snapshot_every=st.sampled_from([0, 1, 2]),
)
def test_replicated_followers_converge(
    tmp_path_factory, engine, rounds, schedule, snapshot_every
):
    tmp_path = tmp_path_factory.mktemp("repl")
    cfg = ServiceConfig(flush_edges=10**9, snapshot_every=snapshot_every)

    def factory():
        with rc_engine(engine):
            return SWConnectivityEager(N, seed=SEED)

    twin = SWConnectivityEager(N, seed=SEED)
    for edges, expire in rounds:
        if edges:
            twin.batch_insert(edges)
        if expire:
            twin.batch_expire(expire)

    with ReplicatedService(factory, tmp_path, cfg, followers=2) as rs:
        for (edges, expire), action in itertools.zip_longest(
            rounds, schedule[: len(rounds)]
        ):
            if action is not None:
                f = rs.followers[action[0]]
                if action[1] == "kill" and f.alive:
                    f.kill()
                elif action[1] == "restart" and not f.alive:
                    f.restart()
            rs.write(edges, expire=expire)
            rs.poll()

        # Revive everything; a re-bootstrapped replica must converge too.
        for f in rs.followers:
            if not f.alive:
                f.restart()
        rs.poll()

        want = fingerprint(twin)
        assert rs.primary.query(fingerprint) == want
        for f in rs.followers:
            assert f.replayed_lsn == rs.primary.next_lsn
            assert f.query(fingerprint) == want
