"""THM3.2 -- compressed path tree construction: O(l lg(1 + n/l)) expected
work and O(lg n) span for l marked vertices.

Harness: on a fixed n-vertex tree (path = contraction worst case; random
recursive tree = typical case), sweep the number of marked vertices l and
measure the cost model's work for one CPT construction.  The claimed model
must out-fit l lg n and n, and the resulting CPT must stay O(l)-sized.
"""

from __future__ import annotations

import random

import pytest

from repro.analysis import BOUND_MODELS, format_table, goodness_of_fit
from repro.graphgen import path_edges, random_tree_edges
from repro.runtime import CostModel, measure
from repro.trees import DynamicForest

N = 8192
ELLS = [2, 8, 32, 128, 512, 2048]


def _forest(kind: str, n: int, seed: int) -> DynamicForest:
    rng = random.Random(seed)
    cost = CostModel()
    f = DynamicForest(n, seed=seed, cost=cost)
    edges = path_edges(n, rng) if kind == "path" else random_tree_edges(n, rng)
    f.batch_link([(u, v, w, i) for i, (u, v, w) in enumerate(edges)])
    return f


@pytest.mark.parametrize("kind", ["path", "random-tree"])
def test_cpt_work_scaling(record_table, record_json, benchmark, kind):
    f = _forest(kind, N, seed=3)
    rng = random.Random(99)

    def sweep():
        out = []
        for ell in ELLS:
            marks = rng.sample(range(N), ell)
            with measure(f.cost) as c:
                cpt = f.compressed_path_tree(marks)
            out.append((ell, c.work, c.span, cpt.num_vertices, cpt.num_edges))
        return out

    data = benchmark.pedantic(sweep, rounds=1, iterations=1)
    xs = [(ell, N) for ell, *_ in data]
    ys = [work for _, work, *_ in data]
    rows = []
    for ell, work, span, nv, ne in data:
        bound = BOUND_MODELS["l*lg(1+n/l)"](ell, N)
        rows.append([ell, work, f"{work / bound:.1f}", span, nv, ne])
        assert nv <= 2 * ell  # Lemma 3.2: O(l) vertices
    fits = {
        name: goodness_of_fit(xs, ys, BOUND_MODELS[name])[1]
        for name in ("l*lg(1+n/l)", "l*lg(n)", "n")
    }
    table = format_table(
        ["l", "work", "work / (l lg(1+n/l))", "span", "CPT |V|", "CPT |E|"],
        rows,
        title=f"Theorem 3.2: CPT construction on a {kind}, n = {N}",
    )
    fit_table = format_table(
        ["model", "relative residual"],
        [[k, f"{v:.3f}"] for k, v in sorted(fits.items(), key=lambda kv: kv[1])],
    )
    record_table(f"thm32_cpt_scaling_{kind}", table + "\n\n" + fit_table)
    record_json(
        f"thm32_cpt_scaling_{kind}",
        f.cost,
        params={"n": N, "ells": ELLS, "kind": kind, "seed": 3},
        extra={"fit_residuals": {k: round(v, 6) for k, v in fits.items()}},
    )
    assert fits["l*lg(1+n/l)"] < fits["n"]


@pytest.mark.parametrize("ell", [2, 128, 2048])
def test_wallclock_cpt(benchmark, ell):
    f = _forest("random-tree", N, seed=4)
    rng = random.Random(5)
    marks = rng.sample(range(N), ell)
    benchmark(lambda: f.compressed_path_tree(marks))
