"""Robustness: long mixed workloads, cross-structure determinism, and
parallel read-only queries.

The soak test drives every layer at once (batch MSF inserts feeding a
sliding window with interleaved expiry) for hundreds of rounds with
periodic invariant checks; the determinism tests pin the pure-function
property end to end; the scheduler test shows concurrent readers observe
consistent answers (queries never mutate the structures).
"""

import random

import networkx as nx
import pytest

from repro.core import BatchIncrementalMSF
from repro.msf import EdgeArray, kruskal_msf
from repro.runtime import ThreadPoolScheduler
from repro.sliding_window import SWConnectivityEager
from repro.trees import DynamicForest


class TestSoak:
    def test_long_mixed_workload(self):
        rng = random.Random(99)
        n = 64
        msf = BatchIncrementalMSF(n, seed=9)
        all_edges = []
        for round_ in range(120):
            batch = []
            for _ in range(rng.randrange(1, 10)):
                u, v = rng.randrange(n), rng.randrange(n)
                if u != v:
                    batch.append((u, v, round(rng.uniform(0, 50), 2), len(all_edges) + len(batch)))
            msf.batch_insert(batch)
            all_edges.extend(batch)
            if round_ % 20 == 19:
                msf.forest.rc.check_invariants()
                ea = EdgeArray.from_tuples(n, all_edges)
                expect = sorted(ea.eid[kruskal_msf(ea)].tolist())
                assert sorted(e[3] for e in msf.msf_edges()) == expect

    def test_long_window_workload(self):
        rng = random.Random(7)
        n = 48
        sw = SWConnectivityEager(n, seed=3)
        stream, tw = [], 0
        for round_ in range(150):
            batch = [(rng.randrange(n), rng.randrange(n)) for _ in range(rng.randrange(1, 6))]
            batch = [e for e in batch if e[0] != e[1]]
            stream += batch
            sw.batch_insert(batch)
            if len(stream) - tw > 100:
                d = len(stream) - tw - 100
                tw += d
                sw.batch_expire(d)
            if round_ % 30 == 29:
                g = nx.MultiGraph()
                g.add_nodes_from(range(n))
                g.add_edges_from(stream[tw:])
                assert sw.num_components == nx.number_connected_components(g)
                sw._msf.forest.rc.check_invariants()

    def test_repeated_fill_and_drain(self):
        # Ternarization copies persist after a drain (slots are recycled, so
        # space is bounded by the high-water degree): the structure reaches a
        # steady state after the first fill/drain cycle and must return to it
        # exactly on every later cycle.
        f = DynamicForest(32, seed=4)
        links = [(i, i + 1, float(i), i) for i in range(31)]
        f.batch_link(links)
        f.batch_cut([eid for _, _, _, eid in links])
        steady_empty = f.rc.snapshot()
        copies = f.ternary.num_copies
        for _ in range(4):
            f.batch_link(links)
            assert f.num_components == 1
            f.batch_cut([eid for _, _, _, eid in links])
            assert f.num_components == 32
            assert f.rc.snapshot() == steady_empty
            assert f.ternary.num_copies == copies  # slots recycled, no growth

    def test_node_table_is_bounded_by_live_content(self):
        # A sliding window runs forever, so the RC engine's node table must
        # not grow with stream length: every registered vertex owns a leaf
        # and a composite, every live edge a leaf, and cut edge leaves are
        # reused.  (The vertex count itself still creeps with the
        # ternarization's high-water degrees.)  20 windows of 32-edge
        # rounds; without leaf reuse the dead rows grow by one per cut.
        rng = random.Random(5)
        n = window = 512
        ell = 32
        sw = SWConnectivityEager(n)
        rc = sw._msf.forest.rc

        def dead_rows():
            return rc._nn - (2 * rc.num_vertices + rc.num_edges)

        for w in range(1, 21):
            for _ in range(window // ell):
                if sw.window_size + ell > window:
                    sw.batch_expire(ell)
                sw.batch_insert(
                    [(rng.randrange(n), rng.randrange(n)) for _ in range(ell)]
                )
            if w == 2:
                dead_after_2 = dead_rows()
        assert 0 <= dead_rows() <= dead_after_2 + ell
        rc.check_invariants()


class TestDeterminism:
    def _drive(self, seed: int):
        rng = random.Random(1234)  # identical workload both runs
        m = BatchIncrementalMSF(50, seed=seed)
        for _ in range(25):
            batch = []
            for _ in range(rng.randrange(1, 8)):
                u, v = rng.randrange(50), rng.randrange(50)
                if u != v:
                    batch.append((u, v, rng.uniform(0, 9)))
            m.batch_insert(batch)
        return m

    def test_identical_runs_identical_state(self):
        a = self._drive(seed=11)
        b = self._drive(seed=11)
        assert a.msf_edges() == b.msf_edges()
        assert a.forest.rc.snapshot() == b.forest.rc.snapshot()
        assert a.cost.work == b.cost.work and a.cost.span == b.cost.span

    def test_msf_is_seed_independent(self):
        # Contraction coins change the RC tree, never the MSF.
        a = self._drive(seed=11)
        b = self._drive(seed=999)
        assert a.msf_edges() == b.msf_edges()
        assert a.forest.rc.snapshot() != b.forest.rc.snapshot()


class TestParallelReaders:
    def test_concurrent_queries_consistent(self):
        rng = random.Random(2)
        n = 256
        f = DynamicForest(n, seed=8)
        f.batch_link(
            [(rng.randrange(v), v, rng.uniform(0, 5), v) for v in range(1, n)]
        )
        pairs = [(rng.randrange(n), rng.randrange(n)) for _ in range(200)]
        sequential = [f.path_max(u, v) if u != v else None for u, v in pairs]
        with ThreadPoolScheduler(max_workers=8) as pool:
            parallel = pool.map(
                lambda p: f.path_max(p[0], p[1]) if p[0] != p[1] else None, pairs
            )
        assert parallel == sequential

    def test_concurrent_component_queries(self):
        n = 128
        f = DynamicForest(n, seed=8)
        f.batch_link([(i, i + 1, 1.0, i) for i in range(n - 1)])
        with ThreadPoolScheduler(max_workers=4) as pool:
            sizes = pool.map(f.component_size, range(n))
        assert sizes == [n] * n
