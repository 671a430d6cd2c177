"""Tests for the applications package (single-linkage, bottleneck/widest
paths) against brute-force oracles."""

import itertools
import math
import random

import networkx as nx
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.applications import BottleneckPaths, SingleLinkageClustering, WidestPaths


def bottleneck_floyd_warshall(n, g):
    """All-pairs widest-path capacity (max over paths of the min edge
    ``cap``) by Floyd-Warshall over the (max, min) semiring; ``0.0``
    where no path exists (capacities are positive)."""
    best = [[0.0] * n for _ in range(n)]
    for a, b, cap in g.edges(data="cap"):
        best[a][b] = best[b][a] = cap
    for k in range(n):
        bk = best[k]
        for i in range(n):
            bik = best[i][k]
            if bik:
                bi = best[i]
                for j in range(n):
                    via = min(bik, bk[j])
                    if via > bi[j]:
                        bi[j] = via
    return best


def brute_minimax(edges, n, u, v):
    """Minimax path value by thresholding + union-find."""
    if u == v:
        return float("-inf")
    best = math.inf
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for w, a, b in sorted((w, a, b) for a, b, w in edges):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb
        if find(u) == find(v):
            return w
    return None


class TestSingleLinkage:
    def test_basic_merging(self):
        sl = SingleLinkageClustering(4)
        sl.batch_insert([(0, 1, 1.0), (1, 2, 5.0), (2, 3, 2.0)])
        assert sl.merge_distance(0, 1) == 1.0
        assert sl.merge_distance(0, 3) == 5.0  # through the 5.0 edge
        assert sl.same_cluster(0, 1, 1.0)
        assert not sl.same_cluster(0, 3, 4.9)
        assert sl.same_cluster(0, 3, 5.0)

    def test_num_clusters_by_threshold(self):
        sl = SingleLinkageClustering(4)
        sl.batch_insert([(0, 1, 1.0), (1, 2, 5.0), (2, 3, 2.0)])
        assert sl.num_clusters(0.5) == 4
        assert sl.num_clusters(1.0) == 3
        assert sl.num_clusters(2.0) == 2
        assert sl.num_clusters(5.0) == 1
        assert sl.num_components == 1

    def test_merge_heights_sorted(self):
        sl = SingleLinkageClustering(5)
        sl.batch_insert([(0, 1, 3.0), (1, 2, 1.0), (3, 4, 2.0)])
        assert sl.merge_heights() == [1.0, 2.0, 3.0]

    def test_clusters_partition(self):
        sl = SingleLinkageClustering(5)
        sl.batch_insert([(0, 1, 1.0), (1, 2, 2.0), (3, 4, 1.5)])
        assert sl.clusters(1.0) == [[0, 1], [2], [3], [4]]
        assert sl.clusters(1.5) == [[0, 1], [2], [3, 4]]
        assert sl.clusters(2.0) == [[0, 1, 2], [3, 4]]

    def test_better_edges_tighten_merges(self):
        sl = SingleLinkageClustering(3)
        sl.batch_insert([(0, 1, 9.0), (1, 2, 9.0)])
        assert sl.merge_distance(0, 2) == 9.0
        sl.batch_insert([(0, 2, 2.0)])
        assert sl.merge_distance(0, 2) == 2.0
        assert sl.num_clusters(2.0) == 2  # {0,2} merged, 1 apart

    def test_negative_dissimilarity_rejected(self):
        sl = SingleLinkageClustering(3)
        with pytest.raises(ValueError):
            sl.batch_insert([(0, 1, -1.0)])

    def test_disconnected_merge_distance(self):
        sl = SingleLinkageClustering(3)
        assert sl.merge_distance(0, 2) == math.inf
        assert sl.merge_distance(1, 1) == 0.0

    @pytest.mark.parametrize("seed", range(3))
    def test_against_scipy_style_oracle(self, seed):
        rng = random.Random(seed)
        n = 20
        sl = SingleLinkageClustering(n, seed=seed)
        edges = []
        for _ in range(80):
            u, v = rng.randrange(n), rng.randrange(n)
            if u != v:
                edges.append((u, v, round(rng.uniform(0, 10), 3)))
        for i in range(0, len(edges), 7):
            sl.batch_insert(edges[i : i + 7])
        for theta in (0.5, 2.0, 5.0, 10.0):
            g = nx.Graph()
            g.add_nodes_from(range(n))
            for u, v, w in edges:
                if w <= theta and (not g.has_edge(u, v) or g[u][v]["w"] > w):
                    g.add_edge(u, v, w=w)
            assert sl.num_clusters(theta) == nx.number_connected_components(g)
            comps = [sorted(c) for c in nx.connected_components(g)]
            assert sl.clusters(theta) == sorted(comps)


class TestBottleneckPaths:
    def test_small(self):
        bp = BottleneckPaths(4)
        bp.batch_insert([(0, 1, 5.0), (1, 2, 1.0), (0, 2, 3.0), (2, 3, 7.0)])
        b, _ = bp.bottleneck(0, 2)
        assert b == 3.0  # direct edge beats 0-1-2's max of 5
        assert bp.bottleneck(0, 3)[0] == 7.0
        assert bp.bottleneck(1, 1) == (float("-inf"), -1)
        assert bp.bottleneck(0, 3) is not None
        assert bp.reachable_within(0, 2, 3.0)
        assert not bp.reachable_within(0, 2, 2.9)

    def test_disconnected(self):
        bp = BottleneckPaths(3)
        bp.batch_insert([(0, 1, 1.0)])
        assert bp.bottleneck(0, 2) is None
        assert not bp.reachable_within(0, 2, 1e18)
        assert bp.num_components == 2

    @pytest.mark.parametrize("seed", range(4))
    def test_random_oracle(self, seed):
        rng = random.Random(seed)
        n = 16
        bp = BottleneckPaths(n, seed=seed)
        edges = []
        for _ in range(60):
            u, v = rng.randrange(n), rng.randrange(n)
            if u != v:
                edges.append((u, v, round(rng.uniform(0, 9), 3)))
        for i in range(0, len(edges), 9):
            bp.batch_insert(edges[i : i + 9])
        for u, v in itertools.combinations(range(n), 2):
            expect = brute_minimax(edges, n, u, v)
            got = bp.bottleneck(u, v)
            if expect is None:
                assert got is None
            else:
                assert got[0] == expect


class TestWidestPaths:
    def test_small(self):
        wp = WidestPaths(4)
        wp.batch_insert([(0, 1, 10.0), (1, 2, 3.0), (0, 2, 5.0), (2, 3, 8.0)])
        assert wp.widest_path(0, 2)[0] == 5.0  # direct 5 beats min(10, 3)
        assert wp.widest_path(0, 3)[0] == 5.0  # 0-2-3: min(5, 8)
        assert wp.widest_path(2, 2) == (float("inf"), -1)
        assert wp.supports_demand(0, 3, 5.0)
        assert not wp.supports_demand(0, 3, 5.1)

    def test_upgrades_improve_capacity(self):
        wp = WidestPaths(3)
        wp.batch_insert([(0, 1, 2.0), (1, 2, 2.0)])
        assert wp.widest_path(0, 2)[0] == 2.0
        wp.batch_insert([(0, 2, 9.0)])
        assert wp.widest_path(0, 2)[0] == 9.0

    def test_disconnected(self):
        wp = WidestPaths(3)
        assert wp.widest_path(0, 1) is None
        assert not wp.supports_demand(0, 1, 0.0)

    @pytest.mark.parametrize("seed", range(3))
    def test_random_oracle(self, seed):
        rng = random.Random(100 + seed)
        n = 14
        wp = WidestPaths(n, seed=seed)
        g = nx.Graph()
        g.add_nodes_from(range(n))
        batch = []
        for _ in range(50):
            u, v = rng.randrange(n), rng.randrange(n)
            if u != v:
                c = round(rng.uniform(1, 9), 3)
                batch.append((u, v, c))
                if not g.has_edge(u, v) or g[u][v]["cap"] < c:
                    g.add_edge(u, v, cap=c)
        wp.batch_insert(batch)
        widest = bottleneck_floyd_warshall(n, g)
        for u, v in itertools.combinations(range(n), 2):
            got = wp.widest_path(u, v)
            if not nx.has_path(g, u, v):
                assert got is None
                continue
            assert got[0] == pytest.approx(widest[u][v])


@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    n=st.integers(2, 10),
    edges=st.lists(
        st.tuples(st.integers(0, 9), st.integers(0, 9), st.integers(0, 12)),
        max_size=30,
    ),
)
def test_property_minimax_matches_oracle(n, edges):
    rows = [(u % n, v % n, float(w)) for u, v, w in edges if u % n != v % n]
    bp = BottleneckPaths(n)
    bp.batch_insert(rows)
    for u in range(n):
        for v in range(u + 1, n):
            expect = brute_minimax(rows, n, u, v)
            got = bp.bottleneck(u, v)
            assert (got is None) == (expect is None)
            if got is not None:
                assert got[0] == expect
