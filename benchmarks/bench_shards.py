"""Shard-group scaling: ingest and mixed reads at K = 1/2/4 groups.

Claim under test: partitioning the serving tier into K shard groups
(``repro.sharding``, docs/sharding.md) scales ingest **when the traffic
is partitionable** -- the ROADMAP's horizontal-scaling open item.  Each
configuration serves the same offered load: the same edge volume, the
same popularity law, the same window; what changes with K is
*locality*, drawn by the shared :class:`~repro.loadgen.PartitionSampler`
against the deployed router (exactly the ``--shards``/
``--partition-skew`` semantics of :mod:`repro.loadgen`).  Partitionable
traffic confines every component to one shard's key block, so each
shard maintains block-sized trees instead of one structure paying the
whole graph's -- the Gazit-style decomposition dividend, measurable
even serially on a single core.  Cross-shard traffic is the priced
contrast: at ``partition_skew=0.9`` cut edges keep components global --
the ingest dividend shrinks and reads pay the boundary contraction --
which is the honest operating envelope of the design, not a defect.

Commit rounds are **owner-affine**: the stream's pairs are grouped by
owner shard and drained round-robin, one shard's burst per round --
the affinity batching real sharded ingest paths apply (and a no-op at
K=1), so a round costs one WAL commit instead of K; window advances
ride every ``EXPIRE_EVERY``-th round.  Per (stream, K): ingest edges/s
over the whole stream through
:class:`~repro.sharding.sharded.ShardedService.write`, then mixed-read
batches/s (``connected``/``path_max`` pairs from the same sampler plus
``components``/``window_size``) through ``ShardedService.query`` --
fast-path shard-local sweeps plus boundary-coordinator composition.
The committed artifact asserts ingest edges/s grows monotonically
K = 1 -> 2 -> 4 on the partitionable stream and that K=4 clears
``INGEST_FLOOR`` x the K=1 rate.  ``python -m repro.report --trace
bench_results/shards.json`` renders the phase tree (``shard-route``,
``boundary-refresh``, per-shard service phases).

``REPRO_BENCH_SMOKE=1`` shrinks everything to a CI-sized smoke run
(tiny n, short stream, no scaling assertion).
"""

from __future__ import annotations

import collections
import os
import random
import time

from repro.analysis import format_table
from repro.loadgen import PartitionSampler
from repro.runtime import CostModel
from repro.service import ServiceConfig
from repro.sharding import ShardRouter, ShardedService, make_member_factory

SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "").strip() not in ("", "0")

N = 96 if SMOKE else 2048
ROUNDS = 20 if SMOKE else 120
BATCH = 8 if SMOKE else 32
WINDOW = 64 if SMOKE else 2048
KS = [1, 2, 4]
STREAMS = [("partitionable", 1.0), ("cross10", 0.9)]
READ_BATCHES = 10 if SMOKE else 100
READ_BATCH = 16
PASSES = 1 if SMOKE else 5
SEED = 13
POP_SKEW = 1.1
SCHEME = "range"
EXPIRE_EVERY = 4  # window advances ride every 4th round, chunked
#: K=4 ingest floor over K=1 on the partitionable stream (single core,
#: serial fan-out -- the decomposition dividend alone).
INGEST_FLOOR = 1.15


def _stream(
    router: ShardRouter, skew_p: float
) -> tuple[list[list[tuple[int, int]]], list[list[tuple]]]:
    """One deployment's seeded workload: (ingest rounds, read batches).

    Locality is drawn against the *deployed* router: at K=1 there is
    nothing to be local to (the unsharded baseline serves the same
    volume unconstrained); at K>1 a pair stays inside one shard's key
    block with probability ``skew_p``.  Commit rounds are owner-affine
    (see the module docstring): the same pair multiset at every K,
    grouped by owner shard and drained round-robin into
    ``BATCH``-edge rounds -- the identity ordering at K=1.
    """
    sampler = PartitionSampler(
        N, POP_SKEW, router=router, partition_skew=skew_p
    )
    rng = random.Random(SEED)
    queues = [
        collections.deque() for _ in range(router.shards)
    ]
    for _ in range(ROUNDS * BATCH):
        u, v = sampler.draw_pair(rng)
        queues[router.owner(u, v)].append((u, v))
    rounds = []
    while any(queues):
        for q in queues:
            if q:
                rounds.append(
                    [q.popleft() for _ in range(min(BATCH, len(q)))]
                )
    reads = []
    for _ in range(READ_BATCHES):
        batch: list[tuple] = []
        for i in range(READ_BATCH):
            if i % 8 == 6:
                batch.append(("components",))
            elif i % 8 == 7:
                batch.append(("window_size",))
            else:
                kind = "connected" if i % 2 == 0 else "path_max"
                batch.append((kind, *sampler.draw_pair(rng)))
        reads.append(batch)
    return rounds, reads


def _run_config(
    k: int, skew_p: float, tmp_path, cost: CostModel
) -> tuple[float, float]:
    """One pass: returns (ingest rounds/s, read batches/s) at K shards."""
    router = ShardRouter(N, k, scheme=SCHEME)
    rounds, reads = _stream(router, skew_p)
    svc = ShardedService(
        make_member_factory(N, seed=SEED),
        tmp_path,
        router,
        ServiceConfig(fsync=False, snapshot_every=0),
        cost=cost,
    )
    try:
        t0 = time.perf_counter()
        sent = 0
        for i, edges in enumerate(rounds):
            sent += len(edges)
            expire = (
                EXPIRE_EVERY * BATCH
                if i % EXPIRE_EVERY == EXPIRE_EVERY - 1 and sent > WINDOW
                else 0
            )
            svc.write(edges, expire=expire)
        ingest_wall = time.perf_counter() - t0
        t0 = time.perf_counter()
        for batch in reads:
            svc.query(batch)
        read_wall = time.perf_counter() - t0
    finally:
        svc.close()
    return sent / ingest_wall, len(reads) / read_wall


def test_shard_scaling(record_table, record_json, benchmark, tmp_path):
    state: dict = {}

    def run():
        cost = CostModel()
        # Pass-major interleaving + best-of: a host-noise burst slows
        # whichever single pass it lands on, never a whole config, and
        # the best pass is the least-interfered measurement (timeit's
        # min-rule applied to rates).
        passes: dict = {}
        for i in range(PASSES):
            for stream_name, skew_p in STREAMS:
                for k in KS:
                    passes.setdefault((stream_name, k), []).append(
                        _run_config(
                            k,
                            skew_p,
                            tmp_path / f"{stream_name}-k{k}-p{i}",
                            cost,
                        )
                    )
        rows = [
            (
                stream_name,
                k,
                max(p[0] for p in passes[(stream_name, k)]),
                max(p[1] for p in passes[(stream_name, k)]),
            )
            for stream_name, _ in STREAMS
            for k in KS
        ]
        state.clear()
        state.update(cost=cost, rows=rows)

    t0 = time.perf_counter()
    benchmark.pedantic(run, rounds=1, iterations=1)
    wall = time.perf_counter() - t0
    cost, rows = state["cost"], state["rows"]

    table = format_table(
        ["stream", "shards", "ingest edges/s", "read batches/s"],
        [
            [name, k, f"{ing:.0f}", f"{rd:.0f}"]
            for name, k, ing, rd in rows
        ],
        title=(
            f"Shard-group scaling (single process, {SCHEME} partitioning): "
            f"n = {N}, {ROUNDS} rounds x {BATCH} edges, window {WINDOW}, "
            f"best of {PASSES} pass(es)"
        ),
    )
    record_table("shards", table)
    record_json(
        "shards",
        cost,
        params={
            "n": N,
            "rounds": ROUNDS,
            "batch": BATCH,
            "window": WINDOW,
            "shards": KS,
            "streams": {name: p for name, p in STREAMS},
            "read_batches": READ_BATCHES,
            "read_batch": READ_BATCH,
            "passes": PASSES,
            "pop_skew": POP_SKEW,
            "scheme": SCHEME,
            "seed": SEED,
        },
        extra={
            "ingest_edges_per_sec": {
                f"{name}/k{k}": ing for name, k, ing, _ in rows
            },
            "read_batches_per_sec": {
                f"{name}/k{k}": rd for name, k, _, rd in rows
            },
        },
        wall_s=wall,
    )
    assert all(ing > 0 for _, _, ing, _ in rows)
    if not SMOKE:
        # The committed artifact's claim: on partitionable traffic,
        # ingest scales monotonically with the shard count and K=4
        # clears the near-linear floor over the unsharded baseline.
        part = {k: ing for s, k, ing, _ in rows if s == "partitionable"}
        for prev, nxt in zip(KS, KS[1:]):
            assert part[nxt] > part[prev], (
                f"ingest edges/s did not scale {prev} -> {nxt} shards: {part}"
            )
        assert part[max(KS)] >= INGEST_FLOOR * part[min(KS)], (
            f"K={max(KS)} ingest {part[max(KS)]:.0f}/s under "
            f"{INGEST_FLOOR}x the K=1 rate {part[min(KS)]:.0f}/s"
        )
