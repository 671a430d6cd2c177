"""Shared test utilities: random graph construction, networkx oracles,
and the switch onto the reference RC-tree engine."""

from __future__ import annotations

import contextlib
import random
from unittest import mock

import networkx as nx
import numpy as np

from repro.msf.graph import EdgeArray
from repro.trees import DynamicForest, RCForest


def reference_rc():
    """Context manager: every :class:`DynamicForest` built inside the
    block runs on the reference :class:`RCForest` instead of the
    production engine (the class attribute is restored on exit)."""
    return mock.patch.object(DynamicForest, "_rc_class", RCForest)


def rc_engine(name: str):
    """Context manager for a test parametrized over RC engines:
    ``"object"`` is the :class:`RCForest` reference (:func:`reference_rc`),
    ``"array"`` the production engine (no substitution)."""
    if name == "object":
        return reference_rc()
    if name == "array":
        return contextlib.nullcontext()
    raise ValueError(f"unknown RC engine {name!r}")


def random_edge_array(
    n: int,
    m: int,
    rng: random.Random,
    weight_range: tuple[float, float] = (0.0, 1.0),
    allow_parallel: bool = True,
) -> EdgeArray:
    """A random multigraph edge list with distinct eids 0..m-1."""
    lo, hi = weight_range
    rows = []
    seen = set()
    attempts = 0
    while len(rows) < m and attempts < 50 * m + 100:
        attempts += 1
        u = rng.randrange(n)
        v = rng.randrange(n)
        if u == v:
            continue
        key = (min(u, v), max(u, v))
        if not allow_parallel and key in seen:
            continue
        seen.add(key)
        rows.append((u, v, rng.uniform(lo, hi), len(rows)))
    return EdgeArray.from_tuples(n, rows)


def nx_msf_weight(edges: EdgeArray) -> float:
    """Total MSF weight computed by networkx (oracle)."""
    g = nx.Graph()
    g.add_nodes_from(range(edges.n))
    for u, v, w, eid in edges.iter_tuples():
        if g.has_edge(u, v):
            if (w, eid) < (g[u][v]["weight"], g[u][v]["eid"]):
                g[u][v]["weight"] = w
                g[u][v]["eid"] = eid
        else:
            g.add_edge(u, v, weight=w, eid=eid)
    forest = nx.minimum_spanning_edges(g, algorithm="kruskal", data=True)
    return sum(d["weight"] for _, _, d in forest)


def msf_weight_of(edges: EdgeArray, positions: np.ndarray) -> float:
    return float(edges.w[positions].sum())


def is_forest(edges: EdgeArray, positions: np.ndarray) -> bool:
    g = nx.MultiGraph()
    g.add_nodes_from(range(edges.n))
    for p in positions:
        g.add_edge(int(edges.u[p]), int(edges.v[p]))
    return nx.number_of_edges(g) == edges.n - nx.number_connected_components(g)


def spans_same_components(edges: EdgeArray, positions: np.ndarray) -> bool:
    """The selected forest connects exactly the components of the graph."""
    g_all = nx.Graph()
    g_all.add_nodes_from(range(edges.n))
    g_all.add_edges_from(zip(edges.u.tolist(), edges.v.tolist()))
    g_sel = nx.Graph()
    g_sel.add_nodes_from(range(edges.n))
    for p in positions:
        g_sel.add_edge(int(edges.u[p]), int(edges.v[p]))
    comps_all = {frozenset(c) for c in nx.connected_components(g_all)}
    comps_sel = {frozenset(c) for c in nx.connected_components(g_sel)}
    return comps_all == comps_sel
