"""ABL-batch -- ablation: why batching matters (the Section 1 story).

Insert the same m edges into an n-vertex MSF three ways:

1. one at a time (the sequential dynamic-trees baseline [47]);
2. in batches of l, sweeping l (Algorithm 2);
3. as one giant batch (where Theorem 1.1 approaches the optimal linear
   work of a from-scratch KKT build).

The total work should fall and the span collapse as l grows; the one-batch
run is compared against a from-scratch static KKT build as the lower
bound reference.
"""

from __future__ import annotations

import random

import pytest

from repro.analysis import format_table
from repro.core import BatchIncrementalMSF, SequentialIncrementalMSF
from repro.graphgen import gnm_edges
from repro.msf import EdgeArray, kkt_msf
from repro.runtime import CostModel

N = 1024
M = 2048


def _edges(seed: int):
    return gnm_edges(N, M, random.Random(seed))


def _run_batched(ell: int, seed: int) -> tuple[int, int, CostModel]:
    cost = CostModel()
    m = BatchIncrementalMSF(N, seed=seed, cost=cost)
    edges = _edges(seed)
    for i in range(0, len(edges), ell):
        m.batch_insert(edges[i : i + ell])
    return cost.work, cost.span, cost


def _run_sequential(seed: int) -> tuple[int, int]:
    cost = CostModel()
    s = SequentialIncrementalMSF(N, seed=seed, cost=cost)
    for u, v, w in _edges(seed):
        s.insert(u, v, w)
    return cost.work, cost.span


def test_batching_ablation(record_table, record_json, benchmark):
    costs: list[CostModel] = []

    def sweep():
        costs.clear()
        rows = []
        seq_w, seq_s = _run_sequential(29)
        rows.append(["1 (sequential [47])", seq_w, seq_s])
        for ell in (16, 128, 1024, M):
            w, s, cost = _run_batched(ell, 29)
            costs.append(cost)
            rows.append([f"{ell}", w, s])
        static_cost = CostModel()
        kkt_msf(EdgeArray.from_tuples(N, _edges(29)), cost=static_cost)
        rows.append(["static KKT (reference)", static_cost.work, static_cost.span])
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    table = format_table(
        ["batch size l", "total work", "total span"],
        rows,
        title=f"Ablation: inserting m = {M} edges into n = {N} vertices",
    )
    record_table("ablation_batching", table)
    record_json(
        "ablation_batching",
        costs,
        params={"n": N, "m": M, "ells": [16, 128, 1024, M], "seed": 29},
    )

    seq_work, seq_span = rows[0][1], rows[0][2]
    one_batch_work, one_batch_span = rows[-2][1], rows[-2][2]
    static_work = rows[-1][1]
    assert one_batch_work < seq_work, "batching must reduce total work"
    assert one_batch_span < seq_span / 20, "batching must collapse the span"
    assert one_batch_work < 40 * static_work, (
        "one-batch insertion should be within a constant of a static build"
    )
    # Work decreases monotonically-ish along the sweep (allow 15% noise).
    works = [r[1] for r in rows[:-1]]
    for a, b in zip(works, works[1:]):
        assert b < a * 1.15


@pytest.mark.parametrize("ell", [1, 128, M])
def test_wallclock_insert_all(benchmark, ell):
    def run():
        if ell == 1:
            s = SequentialIncrementalMSF(N, seed=31)
            for u, v, w in _edges(31):
                s.insert(u, v, w)
        else:
            m = BatchIncrementalMSF(N, seed=31)
            edges = _edges(31)
            for i in range(0, len(edges), ell):
                m.batch_insert(edges[i : i + ell])

    benchmark.pedantic(run, rounds=1, iterations=1)
