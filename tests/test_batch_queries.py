"""Batched read kernels: differential, determinism, and service grouping.

The vectorized batch reads (``batch_is_connected`` / ``batch_path_max``;
docs/batch_queries.md) have three implementations -- the shared scalar
reference (:mod:`repro.trees.batchquery`), used by the ``RCForest``
reference engine and by the production engine under ``DENSE_THRESHOLD``,
and the production engine's NumPy level sweep.  All three must return
the answers of the per-query oracles and charge identical work/span to
identical phases; Hypothesis drives all three through identical random
forests and pair batches.

Reads must also be *pure*: interleaving batch reads with an insert
stream must leave the maintained MSF byte-identical.  And the service
layer's read grouping must dispatch through the batched entry points
when the structure has them, falling back (with a ``query.fallback``
metric, never silently) when it has only the per-query methods.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import BatchIncrementalMSF
from repro.obs.metrics import get_metrics
from repro.runtime import CostModel, measure
from repro.service import UnsupportedQuery
from repro.service.query import answer_queries
from repro.trees import DynamicForest
from tests.helpers import rc_engine, reference_rc

# Small vertex counts force shared ancestors, repeated endpoints,
# self-pairs, and cross-component pairs in nearly every example.
N = 12
_VERTS = st.integers(0, N - 1)
_WEIGHT = st.integers(0, 6).map(float)
_EDGE = st.tuples(_VERTS, _VERTS, _WEIGHT)
_BATCHES = st.lists(st.lists(_EDGE, max_size=10), min_size=1, max_size=4)
_PAIRS = st.lists(st.tuples(_VERTS, _VERTS), min_size=1, max_size=24)


def _strip_wall(d):
    """Drop ``wall_s`` (real time); the simulated phase tree -- names,
    work, span, calls, items -- is what must be deterministic."""
    return {
        k: ([_strip_wall(c) for c in v] if k == "children" else v)
        for k, v in d.items()
        if k != "wall_s"
    }


def _forest_trio(seed=5):
    """(reference, array-scalar, array-dense) forests with their models.

    The third forest forces the dense SoA sweep for *every* batch read
    via the ``DENSE_THRESHOLD`` instance override, so each example
    exercises both production read paths.
    """
    co, ca, cd = CostModel(), CostModel(), CostModel()
    with reference_rc():
        fo = DynamicForest(N, seed=seed, cost=co)
    fa = DynamicForest(N, seed=seed, cost=ca)
    fd = DynamicForest(N, seed=seed, cost=cd)
    fd.rc.DENSE_THRESHOLD = 0
    return (fo, co), (fa, ca), (fd, cd)


class TestKernelDifferential:
    @given(batches=_BATCHES, pairs=_PAIRS)
    @settings(deadline=None)
    def test_three_paths_match_oracle_and_each_other(self, batches, pairs):
        (fo, co), (fa, ca), (fd, cd) = _forest_trio()
        # Per-query oracle runs on its own forest so the compared cost
        # models only ever see links + batch reads.
        with reference_rc():
            oracle = DynamicForest(N, seed=5)
        # Union-find keeps every batch a forest batch (acyclic after
        # in-batch links too), mirroring the CPT differential test.
        parent = list(range(N))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        next_eid = 0
        for batch in batches:
            links = []
            for u, v, w in batch:
                ru, rv = find(u), find(v)
                if ru == rv:
                    continue
                parent[ru] = rv
                links.append((u, v, w, next_eid))
                next_eid += 1
            for f in (fo, fa, fd, oracle):
                f.batch_link(links)

            with measure(co) as conn_op_o:
                conn_o = fo.batch_connected(pairs)
            with measure(ca) as conn_op_a:
                conn_a = fa.batch_connected(pairs)
            with measure(cd) as conn_op_d:
                conn_d = fd.batch_connected(pairs)
            # Per-query oracle, then cross-implementation agreement.
            assert conn_o == [oracle.connected(u, v) for u, v in pairs]
            assert conn_o == conn_a == conn_d
            assert (
                (conn_op_o.work, conn_op_o.span)
                == (conn_op_a.work, conn_op_a.span)
                == (conn_op_d.work, conn_op_d.span)
            )

            with measure(co) as path_op_o:
                path_o = fo.batch_path_max(pairs)
            with measure(ca) as path_op_a:
                path_a = fa.batch_path_max(pairs)
            with measure(cd) as path_op_d:
                path_d = fd.batch_path_max(pairs)
            assert path_o == [oracle.path_max(u, v) for u, v in pairs]
            assert path_o == path_a == path_d
            assert (
                (path_op_o.work, path_op_o.span)
                == (path_op_a.work, path_op_a.span)
                == (path_op_d.work, path_op_d.span)
            )

        # Whole-run phase trees (updates + reads) agree across all three
        # paths: same phase names, same work/span/calls/items everywhere.
        t_o = _strip_wall(co.phases.to_dict())
        t_a = _strip_wall(ca.phases.to_dict())
        t_d = _strip_wall(cd.phases.to_dict())
        assert t_o == t_a == t_d

    @given(batches=_BATCHES, pairs=_PAIRS)
    @settings(deadline=None)
    def test_msf_batch_reads_match_per_query(self, batches, pairs):
        with reference_rc():
            mo = BatchIncrementalMSF(N, seed=5)
        ma = BatchIncrementalMSF(N, seed=5)
        for batch in batches:
            rows = [(u, v, w) for u, v, w in batch if u != v]
            mo.batch_insert(rows)
            ma.batch_insert(rows)
            for m in (mo, ma):
                assert m.batch_connected(pairs) == [
                    m.connected(u, v) for u, v in pairs
                ]
                assert m.batch_heaviest_edges(pairs) == [
                    m.heaviest_edge(u, v) for u, v in pairs
                ]
            assert mo.batch_heaviest_edges(pairs) == ma.batch_heaviest_edges(
                pairs
            )

    def test_empty_and_invalid_batches(self):
        (fo, _), (fa, _), (fd, _) = _forest_trio()
        for f in (fo, fa, fd):
            assert f.batch_connected([]) == []
            assert f.batch_path_max([]) == []
            with pytest.raises(KeyError):
                f.batch_connected([(0, N)])
            with pytest.raises(KeyError):
                f.batch_path_max([(-1, 0)])


class TestReadsDoNotMutate:
    """Interleaved batch reads must leave the MSF byte-identical."""

    _PAIR_SAMPLE = [(0, 1), (2, 7), (3, 11), (5, 6), (0, 0), (4, 10)]

    @pytest.mark.parametrize("engine", ["object", "array"])
    def test_interleaved_reads_leave_state_identical(self, engine):
        import random

        rng = random.Random(99)
        batches = [
            [
                (rng.randrange(N), rng.randrange(N), float(rng.randrange(7)))
                for _ in range(rng.randrange(1, 10))
            ]
            for _ in range(5)
        ]
        with rc_engine(engine):
            quiet = BatchIncrementalMSF(N, seed=7)
            noisy = BatchIncrementalMSF(N, seed=7)
        if engine == "array":
            # Exercise the dense sweep on the read-heavy copy too.
            noisy.forest.rc.DENSE_THRESHOLD = 0
        for batch in batches:
            rows = [(u, v, w) for u, v, w in batch if u != v]
            quiet.batch_insert(rows)
            noisy.batch_insert(rows)
            noisy.batch_connected(self._PAIR_SAMPLE)
            noisy.batch_heaviest_edges(self._PAIR_SAMPLE)
        assert bytes(json.dumps(quiet.msf_edges()), "utf-8") == bytes(
            json.dumps(noisy.msf_edges()), "utf-8"
        )
        assert quiet.forest.rc.snapshot() == noisy.forest.rc.snapshot()


class _Recording:
    """Stub with full batch capability; records which entry points ran."""

    def __init__(self):
        self.calls = []

    def batch_is_connected(self, pairs):
        self.calls.append(("batch_is_connected", tuple(pairs)))
        return [True] * len(pairs)

    def batch_heaviest_edges(self, pairs):
        self.calls.append(("batch_heaviest_edges", tuple(pairs)))
        return [None] * len(pairs)

    @property
    def window_size(self):
        return 3


class _ConnBatchOnly:
    """Mixed capability: batched connectivity, per-query path max."""

    def __init__(self, msf):
        self._msf = msf

    def batch_is_connected(self, pairs):
        return self._msf.batch_connected(pairs)

    def heaviest_edge(self, u, v):
        return self._msf.heaviest_edge(u, v)


class TestServiceGrouping:
    def test_grouped_reads_dispatch_batched(self):
        s = _Recording()
        before = get_metrics().counter("query.fallback").value
        answers = answer_queries(
            s,
            [
                ("connected", 0, 1),
                ("path_max", 2, 3),
                ("window_size",),
                ("connected", 4, 5),
            ],
        )
        assert answers == [True, None, 3, True]
        # One shared call per kind, pairs in query order.
        assert s.calls == [
            ("batch_is_connected", ((0, 1), (4, 5))),
            ("batch_heaviest_edges", ((2, 3),)),
        ]
        assert get_metrics().counter("query.fallback").value == before

    def test_mixed_capability_falls_back_with_metric(self):
        msf = BatchIncrementalMSF(8, seed=1)
        msf.batch_insert([(0, 1, 1.0), (1, 2, 2.0)])
        s = _ConnBatchOnly(msf)
        m = get_metrics()
        before = m.counter("query.fallback").value
        before_pm = m.counter("query.fallback.path_max").value
        before_conn = m.counter("query.fallback.connected").value
        answers = answer_queries(
            s,
            [
                ("connected", 0, 2),
                ("path_max", 0, 2),
                ("connected", 0, 3),
                ("path_max", 0, 3),
            ],
        )
        assert answers == [True, (2.0, 1), False, None]
        # The group missing its batch method degraded loudly ...
        assert m.counter("query.fallback").value == before + 2
        assert m.counter("query.fallback.path_max").value == before_pm + 2
        # ... while the batch-capable group did not degrade at all.
        assert m.counter("query.fallback.connected").value == before_conn

    def test_unanswerable_kind_raises(self):
        class Empty:
            pass

        with pytest.raises(UnsupportedQuery):
            answer_queries(Empty(), [("connected", 0, 1)])
        with pytest.raises(UnsupportedQuery):
            answer_queries(Empty(), [("no_such_kind",)])
