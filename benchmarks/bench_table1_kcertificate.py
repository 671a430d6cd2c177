"""T1-kcert -- Table 1 row "k-certificate".

Claims: incremental O(k l alpha(n)) work; sliding window
O(k l lg(1 + n/l)) work; certificate of at most k (n - 1) edges
(Theorem 5.5).

Harness: per-edge work across k in {1, 2, 4, 8} for both models on the
same stream; asserts work grows ~linearly in k and the certificate size
bound holds while cuts <= k are preserved.
"""

from __future__ import annotations

import random

import pytest

from repro.analysis import format_table
from repro.connectivity import IncrementalKCertificate
from repro.graphgen import sliding_window_stream
from repro.runtime import CostModel, measure
from repro.sliding_window import SWKCertificate

N = 48  # dense window: replacements cascade through the k forests
KS = [1, 2, 4, 8]
ELL = 64


def _measure(model: str, k: int, seed: int) -> float:
    rng = random.Random(seed)
    cost = CostModel()
    if model == "window":
        struct = SWKCertificate(N, k=k, seed=seed, cost=cost)
    else:
        struct = IncrementalKCertificate(N, k=k, seed=seed, cost=cost)
    stream = sliding_window_stream(
        N, rounds=8, batch_size=ELL, window=4 * ELL, rng=rng
    )
    inserted = 0
    work = 0
    for b in stream:
        with measure(cost) as c:
            struct.batch_insert(list(b.edges))
            if model == "window" and b.expire:
                struct.batch_expire(b.expire)
        inserted += len(b.edges)
        work += c.work
    return work / max(inserted, 1), cost


def test_table1_row_kcertificate(record_table, record_json, benchmark):
    costs: list[CostModel] = []

    def sweep():
        costs.clear()
        out = []
        for k in KS:
            inc, inc_cost = _measure("incremental", k, 13)
            sw, sw_cost = _measure("window", k, 13)
            costs.extend([inc_cost, sw_cost])
            out.append((k, inc, sw))
        return out

    data = benchmark.pedantic(sweep, rounds=1, iterations=1)
    base_inc = data[0][1]
    base_sw = data[0][2]
    rows = [
        [k, f"{inc:.0f}", f"{inc / base_inc:.2f}", f"{sw:.0f}", f"{sw / base_sw:.2f}"]
        for k, inc, sw in data
    ]
    table = format_table(
        ["k", "incr work/edge", "vs k=1", "window work/edge", "vs k=1"],
        rows,
        title=f"Table 1 'k-certificate': per-edge work, n = {N}, l = {ELL}",
    )
    record_table("table1_kcertificate", table)
    record_json(
        "table1_kcertificate",
        costs,
        params={"n": N, "ks": KS, "ell": ELL, "rounds": 8, "seed": 13},
    )
    # Shape: work grows with k but sublinearly in this workload (later
    # forests see only the cascade, which shrinks), and never superlinearly.
    for k, inc, sw in data:
        assert inc <= base_inc * k * 1.5
        assert sw <= base_sw * k * 1.5
    assert data[-1][1] > base_inc  # k does cost something
    assert data[-1][2] > base_sw


def test_certificate_size_bound(record_table, benchmark):
    rng = random.Random(3)
    n = 512

    def run_one(k):
        sw = SWKCertificate(n, k=k, seed=3)
        batch = []
        for _ in range(8 * n):
            u, v = rng.randrange(n), rng.randrange(n)
            if u != v:
                batch.append((u, v))
        sw.batch_insert(batch)
        cert = sw.make_certificate()
        assert len(cert) <= k * (n - 1)
        return [k, len(cert), k * (n - 1)]

    rows = benchmark.pedantic(lambda: [run_one(k) for k in KS], rounds=1, iterations=1)
    record_table(
        "table1_kcertificate_size",
        format_table(
            ["k", "certificate edges", "bound k(n-1)"],
            rows,
            title="Theorem 5.5: certificate size never exceeds k(n-1)",
        ),
    )


@pytest.mark.parametrize("k", [2, 8])
def test_wallclock_insert(benchmark, k):
    rng = random.Random(8)
    sw = SWKCertificate(N, k=k, seed=8)

    def setup():
        batch = []
        for _ in range(ELL):
            u, v = rng.randrange(N), rng.randrange(N)
            if u != v:
                batch.append((u, v))
        return (batch,), {}

    benchmark.pedantic(lambda b: sw.batch_insert(b), setup=setup, rounds=3)
