"""Failure injection: malformed batches must raise *before* mutating state,
and a killed service apply loop must recover to the uninterrupted state.

Every rejection path is followed by a full invariant check and a
from-scratch snapshot comparison, proving the failed call was atomic.
The service section kills the apply loop at *every* WAL offset, at every
failpoint the commit sequence passes, with the service on the production
RC-tree engine or on the ``RCForest`` reference, and requires recovery +
resume to answer queries identically to a production run that never
crashed.
"""

import random

import pytest

from repro.core import BatchIncrementalMSF
from repro.graphgen.streams import bursty_stream
from repro.service import InjectedCrash, ServiceClosed, ServiceConfig, StreamService
from repro.sliding_window import SWConnectivityEager
from repro.trees import DynamicForest
from tests.helpers import rc_engine


def snapshot_state(f: DynamicForest):
    return (f.rc.snapshot(), sorted(f.edges()), f.num_components)


@pytest.fixture()
def forest():
    f = DynamicForest(8, seed=5)
    f.batch_link([(0, 1, 1.0, 0), (1, 2, 2.0, 1), (3, 4, 3.0, 2)])
    return f


class TestForestRejections:
    def test_cut_unknown_edge_is_atomic(self, forest):
        before = snapshot_state(forest)
        with pytest.raises(KeyError):
            forest.batch_cut([99])
        assert snapshot_state(forest) == before

    def test_cut_same_edge_twice_is_atomic(self, forest):
        before = snapshot_state(forest)
        with pytest.raises(KeyError):
            forest.batch_cut([0, 0])
        assert snapshot_state(forest) == before
        forest.batch_cut([0])  # a clean retry still works

    def test_mixed_batch_with_bad_cut_leaves_links_unapplied(self, forest):
        before = snapshot_state(forest)
        with pytest.raises(KeyError):
            forest.batch_update(links=[(5, 6, 1.0, 10)], cut_eids=[0, 77])
        assert snapshot_state(forest) == before
        assert not forest.has_edge(10)

    def test_self_loop_link_is_atomic(self, forest):
        before = snapshot_state(forest)
        with pytest.raises(ValueError):
            forest.batch_link([(5, 6, 1.0, 10), (7, 7, 1.0, 11)])
        assert snapshot_state(forest) == before

    def test_duplicate_eid_within_batch_is_atomic(self, forest):
        before = snapshot_state(forest)
        with pytest.raises(ValueError):
            forest.batch_link([(5, 6, 1.0, 10), (6, 7, 1.0, 10)])
        assert snapshot_state(forest) == before

    def test_reusing_live_eid_is_atomic(self, forest):
        before = snapshot_state(forest)
        with pytest.raises(ValueError):
            forest.batch_link([(5, 6, 1.0, 0)])
        assert snapshot_state(forest) == before

    def test_cut_and_relink_same_eid_in_one_batch_allowed(self, forest):
        forest.batch_update(links=[(5, 6, 9.0, 0)], cut_eids=[0])
        assert forest.edge_info(0) == (5, 6, 9.0)

    def test_out_of_range_endpoint_is_atomic(self, forest):
        before = snapshot_state(forest)
        with pytest.raises(ValueError):
            forest.batch_link([(0, 99, 1.0, 10)])
        assert snapshot_state(forest) == before

    def test_negative_eid_is_atomic(self, forest):
        before = snapshot_state(forest)
        with pytest.raises(ValueError):
            forest.batch_link([(5, 6, 1.0, -1)])
        assert snapshot_state(forest) == before


class TestForestChecking:
    def test_check_forest_rejects_cycle(self, forest):
        with pytest.raises(ValueError, match="cycle"):
            forest.batch_update(links=[(0, 2, 1.0, 10)], check_forest=True)
        assert not forest.has_edge(10)
        forest.rc.check_invariants()

    def test_check_forest_rejects_cycle_within_batch(self, forest):
        # The two links individually join distinct components, but together
        # they close a cycle.
        with pytest.raises(ValueError, match="cycle"):
            forest.batch_update(
                links=[(0, 3, 1.0, 10), (2, 4, 1.0, 11)], check_forest=True
            )
        forest.rc.check_invariants()

    def test_check_forest_accepts_valid_batch(self, forest):
        forest.batch_update(
            links=[(2, 3, 1.0, 10), (5, 6, 1.0, 11)], check_forest=True
        )
        assert forest.num_edges == 5
        forest.rc.check_invariants()

    def test_check_forest_allows_relink_after_cut(self, forest):
        # Cutting 0 disconnects {0} from {1,2}; relinking 0-2 is legal.
        forest.batch_update(
            links=[(0, 2, 7.0, 10)], cut_eids=[0], check_forest=True
        )
        assert forest.connected(0, 2)
        forest.rc.check_invariants()


class TestMSFRejections:
    def test_failed_batch_leaves_msf_intact(self):
        m = BatchIncrementalMSF(5)
        m.batch_insert([(0, 1, 1.0), (1, 2, 2.0)])
        before = sorted(m.msf_edges())
        with pytest.raises(ValueError):
            m.batch_insert([(0, 9, 1.0)])  # out of range
        assert sorted(m.msf_edges()) == before

    def test_forget_unknown_edge_raises(self):
        m = BatchIncrementalMSF(3)
        m.batch_insert([(0, 1, 1.0)])
        with pytest.raises(KeyError):
            m.forget_edges([42])
        assert m.num_msf_edges == 1


# ----------------------------------------------------------------------
# Service crash recovery: kill the apply loop at every WAL offset
# ----------------------------------------------------------------------

SVC_N = 32
SVC_SEED = 21
SVC_ROUNDS = 6


def _svc_stream():
    rng = random.Random(SVC_SEED)
    return bursty_stream(
        SVC_N, rounds=SVC_ROUNDS, base_batch=4, burst_batch=12, window=24, rng=rng
    )


def _svc_config():
    # One flush per round; snapshot cadence 2 so replay crosses checkpoints.
    return ServiceConfig(flush_edges=10**9, snapshot_every=2)


def _svc_fingerprint(sw):
    return (
        sw.num_components,
        sorted(sw.forest_edges()),
        sw._msf.forest.rc.snapshot(),
        [
            (u, v, sw.is_connected(u, v))
            for u in range(SVC_N)
            for v in range(u + 1, SVC_N)
        ],
    )


@pytest.mark.slow
@pytest.mark.parametrize("engine", ["object", "array"])
class TestServiceCrashRecovery:
    @staticmethod
    def _uninterrupted():
        sw = SWConnectivityEager(SVC_N, seed=SVC_SEED)
        for b in _svc_stream():
            sw.batch_insert(list(b.edges))
            if b.expire:
                sw.batch_expire(b.expire)
        return sw

    @pytest.mark.parametrize(
        "point", ["before-wal-append", "after-wal-append", "mid-apply", "after-apply"]
    )
    def test_kill_at_every_wal_offset(self, tmp_path, engine, point):
        expected = _svc_fingerprint(self._uninterrupted())
        stream = _svc_stream()

        def factory():
            with rc_engine(engine):
                return SWConnectivityEager(SVC_N, seed=SVC_SEED)

        for crash_lsn in range(SVC_ROUNDS):
            data_dir = tmp_path / f"{point}-{crash_lsn}"
            svc = StreamService(factory(), data_dir=data_dir, config=_svc_config())
            svc.failpoints[point] = lambda lsn, k=crash_lsn: lsn == k
            died = False
            for b in stream:
                try:
                    svc.submit(b)
                    svc.flush()
                except InjectedCrash:
                    died = True
                    break
            assert died, (point, crash_lsn)
            # The dead service behaves like a dead process.
            with pytest.raises(ServiceClosed):
                svc.submit_insert([(0, 1)])

            svc2 = StreamService.open(data_dir, factory, config=_svc_config())
            for b in stream[svc2.next_lsn :]:
                svc2.submit(b)
                svc2.flush()
            svc2.close()
            assert _svc_fingerprint(svc2.structure) == expected, (point, crash_lsn)

    @pytest.mark.parametrize("point", ["before-snapshot", "after-snapshot"])
    def test_kill_during_snapshot(self, tmp_path, engine, point):
        expected = _svc_fingerprint(self._uninterrupted())
        stream = _svc_stream()

        def factory():
            with rc_engine(engine):
                return SWConnectivityEager(SVC_N, seed=SVC_SEED)

        # With snapshot_every=2 the cadence fires at lsn 1, 3, 5.
        crash_lsn = 3
        data_dir = tmp_path / f"{point}-{crash_lsn}"
        svc = StreamService(factory(), data_dir=data_dir, config=_svc_config())
        svc.failpoints[point] = lambda lsn: lsn == crash_lsn
        died = False
        for b in stream:
            try:
                svc.submit(b)
                svc.flush()
            except InjectedCrash:
                died = True
                break
        assert died
        svc2 = StreamService.open(data_dir, factory, config=_svc_config())
        for b in stream[svc2.next_lsn :]:
            svc2.submit(b)
            svc2.flush()
        svc2.close()
        assert _svc_fingerprint(svc2.structure) == expected
