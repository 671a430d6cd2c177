"""ABL-msf -- ablation: the static MSF kernel on Line 4 of Algorithm 2.

The paper uses Cole-Klein-Tarjan (expected linear work) on the O(l)-size
graph ``CPT + E+``; our KKT realisation is compared against Kruskal
(O(l lg l)), Boruvka (O(l lg l)) and Prim on graphs of the shape the batch
inserter actually produces, plus end-to-end batch-insert timing under each
kernel.
"""

from __future__ import annotations

import random

import pytest

from repro.analysis import format_table
from repro.core import BatchIncrementalMSF
from repro.msf import (
    EdgeArray,
    boruvka_msf,
    filter_kruskal_msf,
    kkt_msf,
    kruskal_msf,
    prim_msf,
)
from repro.runtime import CostModel

KERNELS = {
    "kkt": kkt_msf,
    "kruskal": kruskal_msf,
    "filter-kruskal": filter_kruskal_msf,
    "boruvka": boruvka_msf,
    "prim": prim_msf,
}


def _local_graph(ell: int, seed: int) -> EdgeArray:
    """A graph shaped like CPT + E+: a sparse tree skeleton plus l extras."""
    rng = random.Random(seed)
    n = ell
    rows = [(rng.randrange(v), v, rng.random(), v) for v in range(1, n)]
    rows += [
        (rng.randrange(n), rng.randrange(n), rng.random(), n + j)
        for j in range(ell)
    ]
    rows = [r for r in rows if r[0] != r[1]]
    return EdgeArray.from_tuples(n, rows)


def test_kernel_work_comparison(record_table, record_json, benchmark):
    costs: list[CostModel] = []

    def sweep():
        costs.clear()
        out = []
        for ell in (64, 512, 4096):
            g = _local_graph(ell, seed=ell)
            row = [ell, g.m]
            expected = None
            for name, kernel in KERNELS.items():
                cost = CostModel()
                with cost.phase(name, items=g.m):
                    pos = kernel(g, cost=cost)
                costs.append(cost)
                if expected is None:
                    expected = sorted(pos.tolist())
                else:
                    assert sorted(pos.tolist()) == expected, name
                row.append(cost.work)
            out.append(row)
        return out

    data = benchmark.pedantic(sweep, rounds=1, iterations=1)
    table = format_table(
        ["l", "m", *KERNELS],
        data,
        title="Ablation: static MSF kernel work on CPT + E+ shaped graphs",
    )
    record_table("ablation_msf_kernel_work", table)
    record_json(
        "ablation_msf_kernel_work",
        costs,
        params={"ells": [64, 512, 4096], "kernels": sorted(KERNELS)},
    )
    # KKT's expected-linear work must grow slower than Kruskal's sort-bound.
    kkt_growth = data[-1][2] / data[0][2]
    kruskal_growth = data[-1][3] / data[0][3]
    assert kkt_growth < kruskal_growth


@pytest.mark.parametrize("kernel", sorted(KERNELS))
def test_wallclock_kernel(benchmark, kernel):
    g = _local_graph(2048, seed=5)
    fn = KERNELS[kernel]
    benchmark(lambda: fn(g))


@pytest.mark.parametrize("kernel", sorted(KERNELS))
def test_wallclock_end_to_end_batch_insert(benchmark, kernel):
    n = 1024
    rng = random.Random(11)
    m = BatchIncrementalMSF(n, seed=11, kernel=kernel)
    m.batch_insert([(rng.randrange(i + 1), i + 1, rng.random()) for i in range(n - 1)])

    def setup():
        batch = []
        for _ in range(256):
            u, v = rng.randrange(n), rng.randrange(n)
            if u != v:
                batch.append((u, v, rng.random()))
        return (batch,), {}

    benchmark.pedantic(lambda b: m.batch_insert(b), setup=setup, rounds=3)
