"""The paper's worked examples, reproduced as executable tests.

- Figure 1: a weighted tree with marked vertices A..E whose compressed path
  tree has edges weighted {6, 10, 9, 7, 12, 3} and two Steiner branch
  vertices.  The arXiv source does not give machine-readable coordinates, so
  the tree below is a faithful reconstruction realising exactly the
  published CPT (same marked set, same Steiner count, same edge weights).
- Figure 2: the 12-vertex tree on {a..l} whose RC tree the paper draws; we
  verify the contraction produces a legal recursive clustering with the
  properties the figure illustrates (single root, disjoint-union children,
  one composite cluster per contracted vertex).
"""

import networkx as nx
import pytest

from repro.paperdata import (
    FIG1_EDGES,
    FIG1_EXPECTED_CPT,
    FIG2_EDGES_NAMED,
    FIG2_NAMES,
    fig2_links,
)
from repro.trees import DynamicForest
from repro.trees.cluster import ClusterKind
from tests.helpers import reference_rc

A, B, C, D, E, X, Y = range(7)


class TestFigure1:
    @pytest.fixture()
    def forest(self):
        f = DynamicForest(14, seed=2020)
        f.batch_link(FIG1_EDGES)
        return f

    def test_cpt_matches_figure(self, forest):
        cpt = forest.compressed_path_tree([A, B, C, D, E])
        got = {frozenset((a, b)): w for a, b, w, _ in cpt.edges}
        assert got == FIG1_EXPECTED_CPT
        assert sorted(cpt.vertices) == [A, B, C, D, E, X, Y]
        assert cpt.marked == {A, B, C, D, E}

    def test_cpt_weights_multiset_as_published(self, forest):
        cpt = forest.compressed_path_tree([A, B, C, D, E])
        assert sorted(w for _, _, w, _ in cpt.edges) == [3.0, 6.0, 7.0, 9.0, 10.0, 12.0]

    def test_cpt_stable_under_contraction_seed(self):
        for seed in (1, 7, 42, 1234):
            f = DynamicForest(14, seed=seed)
            f.batch_link(FIG1_EDGES)
            cpt = f.compressed_path_tree([A, B, C, D, E])
            got = {frozenset((a, b)): w for a, b, w, _ in cpt.edges}
            assert got == FIG1_EXPECTED_CPT, f"seed {seed}"

    def test_edge_annotations_point_at_physical_edges(self, forest):
        cpt = forest.compressed_path_tree([A, B, C, D, E])
        by_eid = {eid: (u, v, w) for u, v, w, eid in FIG1_EDGES}
        for _, _, w, eid in cpt.edges:
            assert by_eid[eid][2] == w


# -- Figure 2 reconstruction ------------------------------------------------


class TestFigure2:
    @pytest.fixture()
    def forest(self):
        # These tests walk the reference engine's per-node cluster graph
        # (vleaf / comp / root_cluster), so they build on RCForest.
        with reference_rc():
            f = DynamicForest(12, seed=2)
        f.batch_link(fig2_links())
        return f

    def test_tree_is_connected(self, forest):
        assert forest.num_components == 1
        assert forest.connected(0, 11)  # a .. l

    def test_single_nullary_root(self, forest):
        rc = forest.rc
        roots = {id(rc.root_cluster(rc.vleaf[v].rep)) for v in rc.vleaf}
        assert len(roots) == 1
        root = rc.root_cluster(next(iter(rc.vleaf)))
        assert root.kind is ClusterKind.NULLARY

    def test_children_disjoint_union(self, forest):
        """Every composite cluster is the disjoint union of its children
        (the defining property illustrated in Figure 2c)."""
        rc = forest.rc
        root = rc.root_cluster(0)

        def contents(node):
            if node.kind is ClusterKind.VERTEX:
                return {("v", node.rep)}
            if node.kind is ClusterKind.EDGE:
                return {("e", node.eid)}
            out = set()
            for c in node.children:
                sub = contents(c)
                assert not (out & sub), "children overlap"
                out |= sub
            return out

        everything = contents(root)
        verts = {x for t, x in everything if t == "v"}
        eids = {x for t, x in everything if t == "e"}
        assert verts == set(rc.vleaf)
        assert eids == set(rc.eleaf)

    def test_every_contracted_vertex_has_one_cluster(self, forest):
        rc = forest.rc
        for v in rc.vleaf:
            node = rc.comp[v]
            assert node.rep == v
            assert node.kind in (
                ClusterKind.UNARY,
                ClusterKind.BINARY,
                ClusterKind.NULLARY,
            )

    def test_rc_tree_height_logarithmic(self, forest):
        rc = forest.rc
        heights = [rc.rc_height(v) for v in rc.vleaf]
        assert max(heights) <= 24  # small tree: height stays very small

    def test_path_queries_on_figure_tree(self, forest):
        idx = {c: i for i, c in enumerate(FIG2_NAMES)}
        # Unweighted tree (all 1.0): ties in the path maximum resolve to the
        # largest edge id on the path -- here (k, l), edge 10.
        w, eid = forest.path_max(idx["a"], idx["l"])
        assert w == 1.0 and eid == 10
