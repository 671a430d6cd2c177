"""SCALE -- end-to-end engine A/B at the largest size the wall clock allows.

Two jobs in one harness:

1. *Regression guard*: the whole stack (ternary -> contraction -> CPT ->
   Algorithm 2) stays usable at n = 16384 with mixed batch sizes, and
   per-edge work stays flat as the structure grows (the amortized claim
   behind "work-efficient").
2. *Engine comparison*: the ``RCForest`` test reference and the NumPy
   array engine consume the *identical* edge stream at every size; the
   harness asserts their simulated (work, span) match exactly and records the
   honest wall-clock/CPU speedup in ``bench_results/scale_end_to_end.json``.
   Rounds are interleaved (engine A, engine B, engine A, ...) and the
   best CPU time per engine is kept, which is the only measurement that
   survives noisy shared-host scheduling.
"""

from __future__ import annotations

import gc
import random
import time

from repro.analysis import format_table
from repro.core import BatchIncrementalMSF
from repro.runtime import CostModel, measure
from tests.helpers import rc_engine

SIZES = [4096, 16384]  # n; each run inserts 3n edges
BATCH_SIZES = [64, 512, 4096]
ROUNDS = 2  # interleaved timing rounds per (size, engine)


def _run_stream(n: int, engine: str):
    """Insert 3n random edges in mixed-size batches; return the final
    structure, its cost model, per-batch per-edge work, and timings."""
    rng = random.Random(2024)
    cost = CostModel()
    with rc_engine(engine):
        m = BatchIncrementalMSF(n, seed=2024, cost=cost)
    phases = []
    inserted = 0
    total = 3 * n
    t0 = time.perf_counter()
    c0 = time.process_time()
    while inserted < total:
        ell = BATCH_SIZES[len(phases) % len(BATCH_SIZES)]
        batch = []
        for _ in range(ell):
            u, v = rng.randrange(n), rng.randrange(n)
            if u != v:
                batch.append((u, v, rng.random()))
        with measure(cost) as c:
            m.batch_insert(batch)
        inserted += len(batch)
        phases.append((ell, c.work / max(len(batch), 1)))
    wall = time.perf_counter() - t0
    cpu = time.process_time() - c0
    return m, cost, phases, wall, cpu


def test_end_to_end_scale(record_table, record_json, benchmark):
    results: dict[tuple[int, str], dict] = {}

    def run_all():
        results.clear()
        for _ in range(ROUNDS):
            for n in SIZES:
                for eng in ("array", "object"):
                    gc.collect()
                    m, cost, phases, wall, cpu = _run_stream(n, eng)
                    rec = {
                        "wall_s": wall,
                        "cpu_s": cpu,
                        "work": cost.work,
                        "span": cost.span,
                        "msf_edges": m.num_msf_edges,
                        "components": m.num_components,
                        "phases": phases,
                        "cost": cost,
                    }
                    del m
                    best = results.get((n, eng))
                    if best is None or cpu < best["cpu_s"]:
                        results[(n, eng)] = rec
        return results

    benchmark.pedantic(run_all, rounds=1, iterations=1)

    rows = []
    ab: dict[str, dict] = {}
    for n in SIZES:
        obj, arr = results[(n, "object")], results[(n, "array")]
        # The tentpole contract: both engines simulate the *same machine*.
        assert (obj["work"], obj["span"]) == (arr["work"], arr["span"])
        assert obj["msf_edges"] == arr["msf_edges"]
        assert obj["components"] == arr["components"]
        speedup_cpu = obj["cpu_s"] / arr["cpu_s"]
        speedup_wall = obj["wall_s"] / arr["wall_s"]
        ab[str(n)] = {
            "object": {k: obj[k] for k in ("wall_s", "cpu_s", "work", "span")},
            "array": {k: arr[k] for k in ("wall_s", "cpu_s", "work", "span")},
            "speedup_cpu": speedup_cpu,
            "speedup_wall": speedup_wall,
        }
        rows.append(
            [
                n,
                3 * n,
                f"{obj['cpu_s']:.2f}",
                f"{arr['cpu_s']:.2f}",
                f"{speedup_cpu:.2f}x",
                obj["work"],
                obj["span"],
            ]
        )

    largest = SIZES[-1]
    arr_large = results[(largest, "array")]
    # The array engine must be decisively faster at the largest size; the
    # exact ratio is noisy on shared hosts, so the floor is conservative
    # while the recorded number is the honest measurement.
    assert ab[str(largest)]["speedup_cpu"] > 1.5, (
        f"array engine no longer decisively faster: {ab[str(largest)]}"
    )

    assert arr_large["msf_edges"] <= largest - 1
    assert arr_large["components"] >= 1

    # Per-edge work rises from the cheap empty-forest warmup to a steady
    # state and must then stay flat (no degradation as the forest fills).
    by_ell: dict[int, list[float]] = {}
    for ell, per_edge in arr_large["phases"]:
        by_ell.setdefault(ell, []).append(per_edge)
    for ell, samples in sorted(by_ell.items()):
        steady = samples[len(samples) // 3 :]  # past the warmup
        mid = sorted(steady)[len(steady) // 2]
        assert steady[-1] < 2.0 * mid + 25, (
            f"per-edge work at l={ell} degraded past its steady state"
        )

    record_table(
        "scale_end_to_end",
        format_table(
            ["n", "edges", "object cpu s", "array cpu s", "speedup", "work", "span"],
            rows,
            title=f"Engine A/B scale run (best of {ROUNDS} interleaved rounds; "
            f"{arr_large['msf_edges']} MSF edges, "
            f"{arr_large['components']} components at n = {largest})",
        ),
    )
    record_json(
        "scale_end_to_end",
        [results[(n, "array")]["cost"] for n in SIZES],
        params={
            "sizes": SIZES,
            "edges_per_size": [3 * n for n in SIZES],
            "batch_sizes": BATCH_SIZES,
            "rounds": ROUNDS,
            "engines": ["object", "array"],
        },
        extra={
            "ab": ab,
            "largest_size_speedup_cpu": ab[str(largest)]["speedup_cpu"],
            "msf_edges": arr_large["msf_edges"],
            "components": arr_large["components"],
        },
    )
