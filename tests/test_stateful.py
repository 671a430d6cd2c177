"""Hypothesis stateful (rule-based) testing.

Two machines drive the library through arbitrary interleavings of
operations while maintaining a networkx model; every rule cross-checks a
random sample of queries, and invariants run between steps.  This explores
operation orderings no hand-written scenario covers.
"""

import networkx as nx
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.core import BatchIncrementalMSF
from repro.msf.graph import EdgeArray
from repro.msf.kruskal import kruskal_msf
from repro.sliding_window import SWConnectivityEager
from repro.trees import DynamicForest
from tests.helpers import reference_rc

N = 12


class DynamicForestMachine(RuleBasedStateMachine):
    """Random link/cut/query interleavings vs a networkx model."""

    def __init__(self):
        super().__init__()
        self.forest = DynamicForest(N, seed=97)
        self.model = nx.Graph()
        self.model.add_nodes_from(range(N))
        self.next_eid = 0
        self.live: dict[int, tuple[int, int, float]] = {}

    @rule(
        u=st.integers(0, N - 1),
        v=st.integers(0, N - 1),
        w=st.integers(0, 30),
    )
    def link(self, u, v, w):
        if u == v or nx.has_path(self.model, u, v):
            return
        eid = self.next_eid
        self.next_eid += 1
        self.forest.batch_link([(u, v, float(w), eid)])
        self.model.add_edge(u, v, w=float(w), eid=eid)
        self.live[eid] = (u, v, float(w))

    @precondition(lambda self: self.live)
    @rule(pick=st.randoms(use_true_random=False))
    def cut(self, pick):
        eid = pick.choice(sorted(self.live))
        u, v, _ = self.live.pop(eid)
        self.forest.batch_cut([eid])
        self.model.remove_edge(u, v)

    @precondition(lambda self: self.live)
    @rule(data=st.data())
    def batch_mixed(self, data):
        # One combined cut + link propagation pass.
        cut_ids = data.draw(
            st.lists(st.sampled_from(sorted(self.live)), unique=True, max_size=3)
        )
        for eid in cut_ids:
            u, v, _ = self.live.pop(eid)
            self.model.remove_edge(u, v)
        links = []
        for _ in range(data.draw(st.integers(0, 3))):
            u = data.draw(st.integers(0, N - 1))
            v = data.draw(st.integers(0, N - 1))
            if u == v or nx.has_path(self.model, u, v):
                continue
            eid = self.next_eid
            self.next_eid += 1
            w = float(data.draw(st.integers(0, 30)))
            links.append((u, v, w, eid))
            self.model.add_edge(u, v, w=w, eid=eid)
            self.live[eid] = (u, v, w)
        self.forest.batch_update(links=links, cut_eids=cut_ids)

    @rule(u=st.integers(0, N - 1), v=st.integers(0, N - 1))
    def query_connectivity(self, u, v):
        assert self.forest.connected(u, v) == nx.has_path(self.model, u, v)

    @rule(u=st.integers(0, N - 1), v=st.integers(0, N - 1))
    def query_path_max(self, u, v):
        got = self.forest.path_max(u, v)
        if u == v or not nx.has_path(self.model, u, v):
            assert got is None
        else:
            path = nx.shortest_path(self.model, u, v)
            expect = max(
                (self.model[a][b]["w"], self.model[a][b]["eid"])
                for a, b in zip(path, path[1:])
            )
            assert got == expect

    @rule(v=st.integers(0, N - 1))
    def query_component_size(self, v):
        assert self.forest.component_size(v) == len(
            nx.node_connected_component(self.model, v)
        )

    @invariant()
    def counts_match(self):
        assert self.forest.num_edges == self.model.number_of_edges()
        assert self.forest.num_components == nx.number_connected_components(
            self.model
        )


class SlidingWindowMachine(RuleBasedStateMachine):
    """Random insert/expire interleavings vs window recomputation."""

    def __init__(self):
        super().__init__()
        self.sw = SWConnectivityEager(N, seed=13)
        self.stream: list[tuple[int, int]] = []
        self.tw = 0

    @rule(
        edges=st.lists(
            st.tuples(st.integers(0, N - 1), st.integers(0, N - 1)), max_size=5
        )
    )
    def insert(self, edges):
        batch = [e for e in edges if e[0] != e[1]]
        self.stream += batch
        self.sw.batch_insert(batch)

    @precondition(lambda self: len(self.stream) > self.tw)
    @rule(data=st.data())
    def expire(self, data):
        d = data.draw(st.integers(1, len(self.stream) - self.tw))
        self.tw += d
        self.sw.batch_expire(d)

    def _window_graph(self):
        g = nx.MultiGraph()
        g.add_nodes_from(range(N))
        g.add_edges_from(self.stream[self.tw :])
        return g

    @rule(u=st.integers(0, N - 1), v=st.integers(0, N - 1))
    def query(self, u, v):
        assert self.sw.is_connected(u, v) == nx.has_path(self._window_graph(), u, v)

    @invariant()
    def component_count_matches(self):
        assert self.sw.num_components == nx.number_connected_components(
            self._window_graph()
        )
        assert self.sw.window_size == len(self.stream) - self.tw


class CrossEngineMSFMachine(RuleBasedStateMachine):
    """The production RC-tree engine and the ``RCForest`` reference driven
    through identical random MSF streams.

    Every rule applies the same command (``batch_insert`` /
    ``forget_edges`` / queries) to a reference and a production
    :class:`BatchIncrementalMSF`; invariants demand the two agree with
    each other, charge identical simulated work/span, and match a Kruskal
    oracle.  The oracle is applied *incrementally* -- ``kruskal_msf`` over
    (surviving forest + new batch) per insert, edge removal per forget --
    which models exactly the structure's documented semantics: while no
    edge has been forgotten it coincides with global Kruskal over the
    whole stream, and ``forget_edges`` is a cut *without replacement*
    (the sliding-window expiry primitive), not a general deletion.  This
    is the stateful counterpart of ``tests/test_engine_differential.py``
    -- interleavings instead of single shots, and Hypothesis shrinks any
    divergence to a minimal command sequence.
    """

    def __init__(self):
        super().__init__()
        with reference_rc():
            self.obj = BatchIncrementalMSF(N, seed=41)
        self.arr = BatchIncrementalMSF(N, seed=41)
        self.oracle: list[tuple[int, int, float, int]] = []
        self.next_eid = 0

    @rule(
        edges=st.lists(
            st.tuples(
                st.integers(0, N - 1),
                st.integers(0, N - 1),
                st.integers(0, 6),
            ),
            max_size=8,
        )
    )
    def insert(self, edges):
        rows = []
        for u, v, w in edges:
            rows.append((u, v, float(w), self.next_eid))
            self.next_eid += 1
        rep_o = self.obj.batch_insert(rows)
        rep_a = self.arr.batch_insert(rows)
        assert rep_o.inserted == rep_a.inserted
        assert rep_o.evicted == rep_a.evicted
        assert rep_o.rejected == rep_a.rejected
        pool = self.oracle + [r for r in rows if r[0] != r[1]]
        if pool:
            arr = EdgeArray.from_tuples(N, pool)
            keep = set(arr.eid[kruskal_msf(arr)].tolist())
            self.oracle = [r for r in pool if r[3] in keep]

    @rule(data=st.data())
    def forget(self, data):
        if not self.oracle:
            return
        eids = sorted(r[3] for r in self.oracle)
        chosen = data.draw(
            st.lists(st.sampled_from(eids), unique=True, max_size=4),
            label="forgotten eids",
        )
        if not chosen:
            return
        self.obj.forget_edges(chosen)
        self.arr.forget_edges(chosen)
        gone = set(chosen)
        self.oracle = [r for r in self.oracle if r[3] not in gone]

    @rule(u=st.integers(0, N - 1), v=st.integers(0, N - 1))
    def query_connected(self, u, v):
        assert self.obj.connected(u, v) == self.arr.connected(u, v)

    @rule(u=st.integers(0, N - 1), v=st.integers(0, N - 1))
    def query_heaviest(self, u, v):
        assert self.obj.heaviest_edge(u, v) == self.arr.heaviest_edge(u, v)

    @invariant()
    def engines_and_oracle_agree(self):
        msf_o = self.obj.msf_edges()
        assert msf_o == self.arr.msf_edges()
        assert self.obj.num_components == self.arr.num_components
        assert self.obj.total_weight() == self.arr.total_weight()
        assert {e[3] for e in msf_o} == {r[3] for r in self.oracle}

    @invariant()
    def engines_charge_identical_costs(self):
        assert (self.obj.cost.work, self.obj.cost.span) == (
            self.arr.cost.work,
            self.arr.cost.span,
        )


TestDynamicForestStateful = DynamicForestMachine.TestCase
TestDynamicForestStateful.settings = settings(
    max_examples=25, stateful_step_count=30, deadline=None
)

TestSlidingWindowStateful = SlidingWindowMachine.TestCase
TestSlidingWindowStateful.settings = settings(
    max_examples=25, stateful_step_count=30, deadline=None
)

TestCrossEngineMSFStateful = CrossEngineMSFMachine.TestCase
TestCrossEngineMSFStateful.settings = settings(
    max_examples=25, stateful_step_count=30, deadline=None
)
