"""Reference differential tests: the production RC-tree engine vs RCForest.

The production engine (``repro.trees.rcarray``) is required to be
*extensionally identical* to the reference ``RCForest`` (swapped in with
``tests.helpers.reference_rc``): same query answers, same compressed path
trees, same maintained MSF, and -- because both charge the simulated cost
model through the same accounting contract -- the same work/span for every
operation.  Hypothesis drives the reference and two production instances
through identical random batch streams and compares everything after
every step.  At this size the production engine only takes its scalar
path, so the second instance forces the vectorized path for every level
pass (``DENSE_THRESHOLD = 0``).

Seeded determinism rides along: a (stream, seed) pair must reproduce
byte-identical MSF edge ids and phase trees on *both* engines across
independent runs, which is what makes the benchmark A/B comparisons in
``benchmarks/`` meaningful.
"""

from __future__ import annotations

import json
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import BatchIncrementalMSF
from repro.msf.graph import EdgeArray
from repro.msf.kruskal import kruskal_msf
from repro.runtime import CostModel, measure
from repro.trees import DynamicForest, RCArrayForest, RCForest
from tests.helpers import rc_engine, reference_rc

# Small vertex counts + a coarse weight pool force collisions: parallel
# edges, weight ties (broken by eid), repeated endpoints, self-loops.
N = 12
_VERTS = st.integers(0, N - 1)
_WEIGHT = st.integers(0, 6).map(float)
_EDGE = st.tuples(_VERTS, _VERTS, _WEIGHT)
_BATCHES = st.lists(st.lists(_EDGE, max_size=12), min_size=1, max_size=6)

# A fixed query sample covering every vertex at least once (the full
# O(n^2) sweep per step would dominate the suite's runtime).
_QUERY_PAIRS = [
    (0, 1), (2, 7), (3, 11), (5, 6), (8, 9), (4, 10), (1, 11), (0, 6),
]


def _build_trio(n=N, seed=5):
    """Fresh (reference, production, production-dense) MSFs with their
    cost models, sharing nothing but the seed."""
    with reference_rc():
        ref = BatchIncrementalMSF(n, seed=seed, cost=CostModel())
    arr = BatchIncrementalMSF(n, seed=seed, cost=CostModel())
    dense = BatchIncrementalMSF(n, seed=seed, cost=CostModel())
    dense.forest.rc.DENSE_THRESHOLD = 0
    return ref, arr, dense


def _kruskal_edges(n, edges):
    """Oracle MSF edge ids via the static Kruskal kernel."""
    if not edges:
        return set()
    arr = EdgeArray.from_tuples(n, edges)
    return set(arr.eid[kruskal_msf(arr)].tolist())


class TestBatchMSFDifferential:
    @given(batches=_BATCHES)
    @settings(deadline=None)
    def test_engines_agree_on_everything(self, batches):
        mo, *prods = _build_trio()
        all_edges = []
        next_eid = 0
        for batch in batches:
            rows = []
            for u, v, w in batch:
                rows.append((u, v, w, next_eid))
                next_eid += 1
            all_edges.extend(r for r in rows if r[0] != r[1])

            with measure(mo.cost) as op_o:
                rep_o = mo.batch_insert(rows)
            msf_o = mo.msf_edges()
            assert {e[3] for e in msf_o} == _kruskal_edges(N, all_edges)
            answers_o = [
                (mo.connected(u, v), mo.heaviest_edge(u, v))
                for u, v in _QUERY_PAIRS
            ]
            for ma in prods:
                with measure(ma.cost) as op_a:
                    rep_a = ma.batch_insert(rows)

                # Identical simulated cost for the *operation*, not just
                # the running totals (which could mask compensating drift).
                assert (op_o.work, op_o.span) == (op_a.work, op_a.span)

                # Identical insert reports (inserted / evicted / rejected).
                assert rep_o.inserted == rep_a.inserted
                assert rep_o.evicted == rep_a.evicted
                assert rep_o.rejected == rep_a.rejected

                # Identical MSF edge sets (the reference's match Kruskal)
                # and identical contractions.
                assert msf_o == ma.msf_edges()
                assert mo.forest.rc.snapshot() == ma.forest.rc.snapshot()

                # Point queries agree everywhere sampled.
                assert answers_o == [
                    (ma.connected(u, v), ma.heaviest_edge(u, v))
                    for u, v in _QUERY_PAIRS
                ]
        for ma in prods:
            assert (mo.cost.work, mo.cost.span) == (ma.cost.work, ma.cost.span)

    @given(batches=_BATCHES)
    @settings(deadline=None)
    def test_summary_queries_agree(self, batches):
        mo, *prods = _build_trio()
        assert type(mo.forest.rc) is RCForest
        assert all(type(ma.forest.rc) is RCArrayForest for ma in prods)
        for batch in batches:
            rows = [(u, v, w) for u, v, w in batch if u != v]
            mo.batch_insert(rows)
            for ma in prods:
                ma.batch_insert(rows)
                assert mo.num_components == ma.num_components
                assert mo.num_msf_edges == ma.num_msf_edges
                assert mo.total_weight() == ma.total_weight()


class TestCPTDifferential:
    @given(
        batches=_BATCHES,
        marks=st.lists(_VERTS, min_size=1, max_size=6),
        seed=st.integers(0, 3),
    )
    @settings(deadline=None)
    def test_compressed_path_trees_identical(self, batches, marks, seed):
        with reference_rc():
            fo = DynamicForest(N, seed=seed)
        prods = [DynamicForest(N, seed=seed), DynamicForest(N, seed=seed)]
        prods[1].rc.DENSE_THRESHOLD = 0
        # Union-find over accepted edges keeps every batch a forest batch
        # (links must be acyclic *after* in-batch links too).
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
            fo.batch_link(links)
            fo.cost = co = CostModel()
            cpt_o = fo.compressed_path_tree(marks)
            for fa in prods:
                fa.batch_link(links)
                fa.cost = ca = CostModel()
                cpt_a = fa.compressed_path_tree(marks)
                # Same node set, same edge set (with annotations), same
                # aggregates, same marked set -- and the same charges.
                assert cpt_o.vertices == cpt_a.vertices
                assert cpt_o.edges == cpt_a.edges
                assert cpt_o.aggregates == cpt_a.aggregates
                assert cpt_o.marked == cpt_a.marked
                assert (co.work, co.span) == (ca.work, ca.span)


def _strip_wall(d):
    """Drop the ``wall_s`` measurement (real time is never deterministic;
    the *simulated* phase tree -- names, work, span, calls, items -- is)."""
    return {
        k: ([_strip_wall(c) for c in v] if k == "children" else v)
        for k, v in d.items()
        if k != "wall_s"
    }


class TestSeededDeterminism:
    """Same stream + same seed => byte-identical results, run to run."""

    @staticmethod
    def _stream(seed):
        rng = random.Random(seed)
        batches = []
        for _ in range(5):
            batches.append(
                [
                    (rng.randrange(24), rng.randrange(24), float(rng.randrange(9)))
                    for _ in range(rng.randrange(1, 14))
                ]
            )
        return batches

    @classmethod
    def _run(cls, engine, seed):
        cost = CostModel()
        with rc_engine(engine):
            m = BatchIncrementalMSF(24, seed=seed, cost=cost)
        for batch in cls._stream(seed):
            m.batch_insert([(u, v, w) for u, v, w in batch if u != v])
        msf_ids = bytes(
            json.dumps([e[3] for e in m.msf_edges()]), "utf-8"
        )
        phase_tree = bytes(
            json.dumps(_strip_wall(cost.phases.to_dict()), sort_keys=True), "utf-8"
        )
        return msf_ids, phase_tree

    def test_byte_identical_across_runs_and_engines(self):
        for seed in (0, 7, 2024):
            runs = {
                engine: [self._run(engine, seed) for _ in range(2)]
                for engine in ("object", "array")
            }
            # Two independent runs of the same engine: byte-identical MSF
            # edge ids and byte-identical phase trees.
            for engine, (r1, r2) in runs.items():
                assert r1[0] == r2[0], f"{engine} MSF ids differ across runs"
                assert r1[1] == r2[1], f"{engine} phase tree differs across runs"
            # And across engines: the production engine replays the
            # reference's phases with the same names and the same charges.
            assert runs["object"][0] == runs["array"][0]
            assert runs["object"][1] == runs["array"][1]
