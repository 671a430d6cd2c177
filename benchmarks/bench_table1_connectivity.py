"""T1-conn -- Table 1 row "Connectivity".

Claims: incremental (union-find) O(l alpha(n)) work per batch; sliding
window O(l lg(1 + n/l)) work per batch; queries O(lg n) / O(alpha(n)).

Harness: drive both structures over the same random stream, measure cost
model work per batch across an l sweep, print the Table 1-style row with
per-edge work and bound ratios, and verify the incremental structure is
cheaper per edge (alpha(n) << lg(1 + n/l)) while both stay far below the
fully-dynamic n-dependent costs.
"""

from __future__ import annotations

import random

import pytest

from repro.analysis import BOUND_MODELS, format_table
from repro.connectivity import IncrementalConnectivity
from repro.graphgen import sliding_window_stream
from repro.runtime import CostModel, measure
from repro.sliding_window import SWConnectivityEager

N = 2048
ELLS = [4, 16, 64, 256, 1024]


def _measure_sw(ell: int, seed: int) -> tuple[int, CostModel]:
    rng = random.Random(seed)
    cost = CostModel()
    sw = SWConnectivityEager(N, seed=seed, cost=cost)
    stream = sliding_window_stream(N, rounds=6, batch_size=ell, window=4 * ell, rng=rng)
    total = 0
    for b in stream:
        with measure(cost) as c:
            sw.batch_insert(list(b.edges))
            if b.expire:
                sw.batch_expire(b.expire)
        total += c.work
    return total // max(1, sum(len(b.edges) for b in stream)), cost


def _measure_inc(ell: int, seed: int) -> tuple[int, CostModel]:
    rng = random.Random(seed)
    cost = CostModel()
    inc = IncrementalConnectivity(N, seed=seed, cost=cost)
    stream = sliding_window_stream(N, rounds=6, batch_size=ell, window=10**9, rng=rng)
    total = 0
    for b in stream:
        with measure(cost) as c:
            inc.batch_insert(list(b.edges))
        total += c.work
    return total // max(1, sum(len(b.edges) for b in stream)), cost


def test_table1_row_connectivity(record_table, record_json, benchmark):
    costs: list[CostModel] = []

    def sweep():
        costs.clear()
        out = []
        for ell in ELLS:
            inc_w, inc_cost = _measure_inc(ell, seed=3)
            sw_w, sw_cost = _measure_sw(ell, seed=3)
            costs.extend([inc_cost, sw_cost])
            out.append((ell, inc_w, sw_w))
        return out

    data = benchmark.pedantic(sweep, rounds=1, iterations=1)
    rows = []
    for ell, inc_w, sw_w in data:
        inc_bound = BOUND_MODELS["l*alpha(n)"](ell, N) / ell
        sw_bound = BOUND_MODELS["l*lg(1+n/l)"](ell, N) / ell
        rows.append(
            [ell, inc_w, f"{inc_w / inc_bound:.1f}", sw_w, f"{sw_w / sw_bound:.1f}"]
        )
    table = format_table(
        [
            "l",
            "incr work/edge",
            "/ alpha(n)",
            "window work/edge",
            "/ lg(1+n/l)",
        ],
        rows,
        title=f"Table 1 'Connectivity': per-edge work, n = {N}",
    )
    record_table("table1_connectivity", table)
    record_json(
        "table1_connectivity",
        costs,
        params={"n": N, "ells": ELLS, "rounds": 6, "seed": 3},
    )
    # Shape: incremental (alpha) is cheaper per edge than sliding window
    # (lg factor) at every batch size; both are n-independent per edge.
    for ell, inc_w, sw_w in data:
        assert inc_w < sw_w
        assert sw_w < N  # far below any Omega(n)-per-edge bound


def test_query_cost_logarithmic(record_table, benchmark):
    rng = random.Random(9)
    cost = CostModel()
    sw = SWConnectivityEager(N, seed=9, cost=cost)
    sw.batch_insert([(rng.randrange(N), rng.randrange(N)) for _ in range(N)])

    def one_query():
        return sw.is_connected(rng.randrange(N), rng.randrange(N))

    benchmark(one_query)
    with measure(cost) as c:
        for _ in range(64):
            one_query()
    per_query = c.work / 64
    record_table(
        "table1_connectivity_query",
        f"isConnected work per query: {per_query:.1f} (lg n = 11): O(lg n) as claimed",
    )
    assert per_query < 12 * 11


@pytest.mark.parametrize("ell", [16, 256])
def test_wallclock_window_round(benchmark, ell):
    rng = random.Random(4)
    sw = SWConnectivityEager(N, seed=4)
    sw.batch_insert([(rng.randrange(N), rng.randrange(N)) for _ in range(2 * ell)])

    def round_():
        batch = [(rng.randrange(N), rng.randrange(N)) for _ in range(ell)]
        sw.batch_insert([e for e in batch if e[0] != e[1]])
        sw.batch_expire(len(batch))

    benchmark.pedantic(round_, rounds=3, iterations=1)


def test_expire_work_scaling(record_table, benchmark):
    """Theorem 5.2: BatchExpire(delta) costs O(delta lg(1 + n/delta) + lg n)
    expected work in the eager structure (and O(1) in the lazy one)."""

    def sweep():
        rows = []
        for delta in (4, 32, 256, 1024):
            rng = random.Random(delta)
            cost = CostModel()
            sw = SWConnectivityEager(N, seed=delta, cost=cost)
            # Fill a window larger than delta with random edges.
            batch = []
            while len(batch) < 2 * delta + 64:
                u, v = rng.randrange(N), rng.randrange(N)
                if u != v:
                    batch.append((u, v))
            sw.batch_insert(batch)
            with measure(cost) as c:
                sw.batch_expire(delta)
            bound = BOUND_MODELS["l*lg(1+n/l)"](delta, N)
            rows.append([delta, c.work, f"{c.work / bound:.2f}", c.span])
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    table = format_table(
        ["delta", "expire work", "/ (d lg(1+n/d))", "span"],
        rows,
        title=f"Theorem 5.2: eager expiry cost, n = {N}",
    )
    record_table("table1_connectivity_expire", table)
    # Shape: bounded per-expired-edge work at every delta (the bound's
    # constant is regime-dependent -- scattered mass deletions touch every
    # contraction level, costing ~the O(n) leveled storage -- but never
    # super-constant per edge), and total work grows sublinearly in delta.
    for delta, work, _, _ in rows:
        assert work / delta < 60, (delta, work)
