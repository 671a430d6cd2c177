"""THM1.1 -- the headline bound: BatchInsert of l edges into an n-vertex MSF
costs O(l lg(1 + n/l)) expected work and O(lg^2 n) span w.h.p.

Harness: build a random forest on n vertices, then measure the cost model's
(work, span) for one batch of l random edges across a geometric l sweep.
The claimed model must fit the measured work with a visibly smaller
residual than the naive alternatives (l lg n, n, l); the span must fit
lg^2 n across an n sweep.
"""

from __future__ import annotations

import random

import pytest

from repro.analysis import BOUND_MODELS, format_table, goodness_of_fit
from repro.core import BatchIncrementalMSF
from repro.graphgen import gnm_edges, random_tree_edges
from repro.runtime import CostModel, measure

N = 4096
ELLS = [1, 4, 16, 64, 256, 1024, 4096]


def _prepared_structure(n: int, seed: int) -> BatchIncrementalMSF:
    """An MSF over a random forest covering ~n/2 vertices."""
    rng = random.Random(seed)
    cost = CostModel()
    m = BatchIncrementalMSF(n, seed=seed, cost=cost)
    base = random_tree_edges(n // 2, rng)
    m.batch_insert(base)
    return m


def _measure_batch_work(n: int, ell: int, seed: int) -> tuple[int, int, CostModel]:
    rng = random.Random(seed * 7919 + ell)
    m = _prepared_structure(n, seed)
    batch = gnm_edges(n, ell, rng)
    with measure(m.cost) as c:
        m.batch_insert(batch)
    return c.work, c.span, m.cost


def test_work_scaling_matches_bound(record_table, record_json, benchmark):
    costs: list[CostModel] = []

    def sweep():
        costs.clear()
        out = []
        for ell in ELLS:
            work, span, cost = _measure_batch_work(N, ell, seed=1)
            costs.append(cost)
            out.append((ell, work, span))
        return out

    data = benchmark.pedantic(sweep, rounds=1, iterations=1)
    rows = []
    xs, ys = [], []
    for ell, work, span in data:
        xs.append((ell, N))
        ys.append(work)
        bound = BOUND_MODELS["l*lg(1+n/l)"](ell, N)
        rows.append([ell, work, f"{work / bound:.1f}", span])
    fits = {
        name: goodness_of_fit(xs, ys, BOUND_MODELS[name])[1]
        for name in ("l*lg(1+n/l)", "l*lg(n)", "l", "n")
    }
    table = format_table(
        ["l", "work", "work / (l lg(1+n/l))", "span"],
        rows,
        title=f"Theorem 1.1: batch insert work, n = {N}",
    )
    fit_table = format_table(
        ["model", "relative residual"],
        [[k, f"{v:.3f}"] for k, v in sorted(fits.items(), key=lambda kv: kv[1])],
        title="model fits (lower is better; the paper's bound should win)",
    )
    record_table("thm11_work_scaling", table + "\n\n" + fit_table)
    record_json(
        "thm11_work_scaling",
        costs,
        params={"n": N, "ells": ELLS, "seed": 1},
        extra={"fit_residuals": {k: round(v, 6) for k, v in fits.items()}},
    )
    assert fits["l*lg(1+n/l)"] < fits["n"]
    assert fits["l*lg(1+n/l)"] < fits["l*lg(n)"]


def test_span_scaling_polylog(record_table, record_json, benchmark):
    costs: list[CostModel] = []

    def sweep():
        costs.clear()
        out = []
        for n in (256, 1024, 4096):
            _, span, cost = _measure_batch_work(n, 64, seed=2)
            costs.append(cost)
            out.append((n, span))
        return out

    data = benchmark.pedantic(sweep, rounds=1, iterations=1)
    rows = []
    for n, span in data:
        bound = BOUND_MODELS["lg^2(n)"](64, n)
        rows.append([n, span, f"{span / bound:.1f}"])
    table = format_table(
        ["n", "span", "span / lg^2(n)"],
        rows,
        title="Theorem 1.1: batch insert span, l = 64",
    )
    record_table("thm11_span_scaling", table)
    record_json(
        "thm11_span_scaling",
        costs,
        params={"ns": [256, 1024, 4096], "ell": 64, "seed": 2},
    )
    # Span must grow far slower than n: polylog shape.
    spans = [r[1] for r in rows]
    assert spans[-1] <= spans[0] * 8  # 16x n growth, <= 8x span growth


@pytest.mark.parametrize("ell", [16, 256, 4096])
def test_wallclock_batch_insert(benchmark, ell):
    seeds = iter(range(10_000))

    def setup():
        s = next(seeds)
        rng = random.Random(s)
        m = _prepared_structure(N, s)
        return (m, gnm_edges(N, ell, rng)), {}

    benchmark.pedantic(
        lambda m, batch: m.batch_insert(batch), setup=setup, rounds=3
    )
