"""T1-sparsifier -- Table 1 row "eps-sparsifier".

Claims: sliding-window batch insert O(eps^-2 l lg^4 n lg(1 + n/l)) work;
sparsify() returns an eps-sparsifier with O(eps^-2 n lg^3 n) edges.

Harness (with the reduced polylog constants documented in DESIGN.md):
per-edge insert work across an l sweep, sparsifier size versus window
density, and cut-preservation quality on a dense window.
"""

from __future__ import annotations

import random

import networkx as nx
import pytest

from repro.analysis import format_table
from repro.runtime import CostModel, measure
from repro.sliding_window import SWSparsifier

N = 32
ELLS = [8, 32, 128]


def _fresh(seed: int, cost=None) -> SWSparsifier:
    return SWSparsifier(N, eps=1.0, seed=seed, cost=cost)


def test_table1_row_sparsifier_insert_work(record_table, record_json, benchmark):
    costs: list[CostModel] = []

    def sweep():
        costs.clear()
        out = []
        for ell in ELLS:
            rng = random.Random(ell)
            cost = CostModel()
            costs.append(cost)
            sp = _fresh(31, cost=cost)
            inserted = 0
            work = 0
            for _ in range(3):
                batch = []
                for _ in range(ell):
                    u, v = rng.randrange(N), rng.randrange(N)
                    if u != v:
                        batch.append((u, v))
                with measure(cost) as c:
                    sp.batch_insert(batch)
                work += c.work
                inserted += len(batch)
            out.append((ell, work / max(inserted, 1)))
        return out

    data = benchmark.pedantic(sweep, rounds=1, iterations=1)
    rows = [[ell, f"{w:.0f}"] for ell, w in data]
    table = format_table(
        ["l", "insert work/edge"],
        rows,
        title=(
            f"Table 1 'eps-sparsifier': per-edge insert work, n = {N} "
            "(polylog constants reduced; see DESIGN.md)"
        ),
    )
    record_table("table1_sparsifier_work", table)
    record_json(
        "table1_sparsifier_work",
        costs,
        params={"n": N, "ells": ELLS, "eps": 1.0, "rounds": 3},
    )
    # Per-edge work is polylog-bounded: flat-ish in l, far below n^2.
    works = [w for _, w in data]
    assert max(works) < 40 * min(works)


def test_sparsifier_size_and_quality(record_table, benchmark):
    rng = random.Random(37)

    def run():
        sp = _fresh(37)
        # Sampling engages once connectivity exceeds eps^-2 lg^2 n, so the
        # window is a multiplicity-8 complete multigraph (min cut ~ 8(n-1)).
        edges = [(i, j) for i in range(N) for j in range(i + 1, N)] * 8
        rng.shuffle(edges)
        sp.batch_insert(edges)
        out = sp.sparsify()
        return edges, out

    edges, out = benchmark.pedantic(run, rounds=1, iterations=1)
    g = nx.Graph()
    g.add_nodes_from(range(N))
    g.add_edges_from(edges)
    h = nx.Graph()
    h.add_nodes_from(range(N))
    for u, v, w in out:
        if h.has_edge(u, v):
            h[u][v]["weight"] += w
        else:
            h.add_edge(u, v, weight=w)

    ratios = []
    for _ in range(40):
        s = set(rng.sample(range(N), rng.randrange(1, N)))
        cg = sum(1 for u, v in g.edges() if (u in s) != (v in s))
        if cg == 0:
            continue
        ch = sum(d["weight"] for u, v, d in h.edges(data=True) if (u in s) != (v in s))
        ratios.append(ch / cg)
    rows = [
        ["window edges", len(edges)],
        ["sparsifier edges", len(out)],
        ["compression", f"{len(edges) / max(len(out), 1):.2f}x"],
        ["cut ratio min", f"{min(ratios):.2f}"],
        ["cut ratio median", f"{sorted(ratios)[len(ratios) // 2]:.2f}"],
        ["cut ratio max", f"{max(ratios):.2f}"],
    ]
    record_table(
        "table1_sparsifier_quality",
        format_table(
            ["metric", "value"],
            rows,
            title=f"Theorem 5.8 shape: sparsifier of K_{N} (eps = 1, reduced constants)",
        ),
    )
    assert len(out) < len(edges)
    good = sum(1 for r in ratios if 0.2 <= r <= 5.0)
    assert good >= 0.85 * len(ratios)


@pytest.mark.parametrize("ell", [32])
def test_wallclock_insert(benchmark, ell):
    rng = random.Random(41)
    sp = _fresh(41)

    def setup():
        batch = []
        for _ in range(ell):
            u, v = rng.randrange(N), rng.randrange(N)
            if u != v:
                batch.append((u, v))
        return (batch,), {}

    benchmark.pedantic(lambda b: sp.batch_insert(b), setup=setup, rounds=3)
