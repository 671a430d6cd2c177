#!/usr/bin/env python
"""Trace-driven regression gates: replay golden traces, fail on drift.

Each golden trace under ``bench_results/traces/`` is a committed,
CRC-checked workload recording (see ``docs/tracing.md``).  One gate run,
per trace:

1. **Determinism** (hard gate): the trace replays on both the production
   RC-tree engine and the ``RCForest`` reference into byte-identical
   final state -- each replay must match the trace oracle, its own
   fault-free WAL oracle, and the other engine's fingerprint.  Any
   mismatch fails immediately; this is the correctness half of the gate
   and has no tolerance band.
2. **Performance** (banded gate): write p99 latency and reads/s are
   measured over ``--repeats`` replays (best-of, to shed scheduler
   noise) and compared against the trace's stored baseline
   (``<name>.baseline.json``): fail when p99 exceeds ``baseline.p99_ms
   * p99_tol`` or reads/s falls below ``baseline.reads_per_s *
   reads_tol``.  Committed tolerances are deliberately generous (CI
   runners vary wildly); tighten with ``--p99-tol`` / ``--reads-tol``
   for controlled environments.

``--handicap F`` multiplies the measured latency by ``F`` (and divides
reads/s) before the comparison -- the self-test lever: the suite proves
the gate *fails* on an injected 2x p99 regression, so a green gate
means the band is real, not vacuous.

Usage::

    PYTHONPATH=src python scripts/gate.py                  # gate all traces
    PYTHONPATH=src python scripts/gate.py --only smoke     # one trace
    PYTHONPATH=src python scripts/gate.py --update         # rebaseline
    PYTHONPATH=src python scripts/gate.py --emit smoke --rounds 24
    PYTHONPATH=src python scripts/gate.py --handicap 2.0 --p99-tol 1.4

Exit status 0 only when every selected trace passes both gates.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import random
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from repro.graphgen import bursty_stream  # noqa: E402
from repro.trace import (  # noqa: E402
    TraceReplayer,
    TraceWriter,
    read_trace,
    state_fingerprint,
    trace_oracle,
)
from repro.trace.replay import factory_from_meta  # noqa: E402
from tests.helpers import rc_engine  # noqa: E402

BASELINE_SCHEMA = "repro.trace/gate-baseline/v1"
TRACES_DIR = ROOT / "bench_results" / "traces"
#: Replay engines (``tests.helpers.rc_engine`` names): the production
#: engine first -- the perf numbers come from it -- then the reference.
ENGINES = ("array", "object")
#: Committed-baseline default bands: wide enough to hold across CI
#: runner generations, tight enough that a real 10x p99 blowup (or a
#: read path collapsing to 5% throughput) still trips.
DEFAULT_P99_TOL = 10.0
DEFAULT_READS_TOL = 0.05


def baseline_path(trace_path: pathlib.Path) -> pathlib.Path:
    """``<name>.baseline.json`` next to ``<name>.trace.jsonl``."""
    name = trace_path.name
    if name.endswith(".trace.jsonl"):
        name = name[: -len(".trace.jsonl")]
    else:
        name = trace_path.stem
    return trace_path.with_name(f"{name}.baseline.json")


def emit_trace(
    path: pathlib.Path,
    n: int = 128,
    seed: int = 13,
    rounds: int = 24,
    reads_every: int = 3,
    batch_queries: int = 8,
) -> dict:
    """Synthesize a golden trace: seeded bursty writes + grouped reads.

    The workload mirrors the chaos soak's stream (bursty arrivals, a
    sliding window of expirations) plus periodic read batches mixing
    grouped pair queries with scalar ones, stamped with synthetic
    arrival timestamps (5ms per round).  Fully determined by ``seed``,
    so the committed bytes are reproducible.
    """
    if path.exists():
        path.unlink()
    rng = random.Random(seed)
    meta = {
        "factory": {"structure": "SWConnectivityEager", "n": n, "seed": seed},
        "generator": {
            "kind": "bursty_stream+reads",
            "seed": seed,
            "rounds": rounds,
            "reads_every": reads_every,
            "batch_queries": batch_queries,
        },
    }
    with TraceWriter(path, meta=meta) as w:
        lsn = 0
        stream = bursty_stream(
            n, rounds=rounds, base_batch=6, burst_batch=16, window=40, rng=rng
        )
        for i, batch in enumerate(stream):
            ops: list[list] = []
            if batch.edges:
                ops.append(["i", [list(e) for e in batch.edges]])
            if batch.expire:
                ops.append(["e", int(batch.expire)])
            w.append(i * 5000, "write", {"lsn": lsn, "ops": ops})
            lsn += 1
            if i % reads_every == 0:
                queries = [
                    ["connected", rng.randrange(n), rng.randrange(n)]
                    for _ in range(batch_queries)
                ] + [["components"], ["window_size"]]
                w.append(
                    i * 5000 + 2500,
                    "read",
                    {"queries": queries, "at_least": lsn - 1},
                )
    return meta


def measure(
    trace_path: pathlib.Path, repeats: int = 3
) -> tuple[bool, str, float, float]:
    """Replay on both engines; returns ``(ok, why, p99_ms, reads_per_s)``.

    ``ok`` covers the determinism gate: every replay byte-identical to
    the trace oracle, its own WAL oracle, and across engines.  The perf
    numbers are best-of-``repeats`` on the production (array) engine.
    """
    meta, events = read_trace(trace_path)
    fingerprints: dict[str, tuple] = {}
    best_p99 = float("inf")
    best_reads = 0.0
    for engine in ENGINES:
        runs = repeats if engine == ENGINES[0] else 1
        for r in range(runs):
            with (
                tempfile.TemporaryDirectory(prefix="trace-gate-") as tmp,
                rc_engine(engine),
            ):
                result = TraceReplayer(
                    (meta, events), data_dir=pathlib.Path(tmp) / "replay"
                ).run()
            if result.deterministic is False:
                return (
                    False,
                    f"{engine} replay diverged from its WAL oracle",
                    0.0,
                    0.0,
                )
            fingerprints[engine] = result.fingerprint
            if engine == ENGINES[0]:
                best_p99 = min(best_p99, result.write_p99_ms)
                best_reads = max(best_reads, result.reads_per_s)
    oracle, _ = trace_oracle(factory_from_meta(meta), events)
    want = state_fingerprint(oracle)
    for engine, fp in fingerprints.items():
        if fp != want:
            return (
                False,
                f"{engine} replay fingerprint differs from the trace oracle",
                0.0,
                0.0,
            )
    return True, "", best_p99, best_reads


def gate_one(
    trace_path: pathlib.Path,
    update: bool,
    handicap: float,
    p99_tol: float | None,
    reads_tol: float | None,
    repeats: int,
) -> bool:
    """Run (or rebaseline) one trace's gate; prints the verdict line."""
    name = trace_path.name
    ok, why, p99_ms, reads_per_s = measure(trace_path, repeats=repeats)
    if not ok:
        print(f"gate {name}: FAIL (determinism: {why})")
        return False
    p99_ms *= handicap
    reads_per_s /= handicap
    bpath = baseline_path(trace_path)
    if update:
        bpath.write_text(
            json.dumps(
                {
                    "schema": BASELINE_SCHEMA,
                    "trace": name,
                    "p99_ms": round(p99_ms, 4),
                    "reads_per_s": round(reads_per_s, 2),
                    "p99_tol": p99_tol if p99_tol is not None else DEFAULT_P99_TOL,
                    "reads_tol": (
                        reads_tol if reads_tol is not None else DEFAULT_READS_TOL
                    ),
                    "engines": list(ENGINES),
                },
                indent=2,
                sort_keys=True,
            )
            + "\n"
        )
        print(
            f"gate {name}: baseline updated "
            f"(p99 {p99_ms:.3f}ms, {reads_per_s:.0f} reads/s) -> {bpath}"
        )
        return True
    if not bpath.exists():
        print(f"gate {name}: FAIL (no baseline; run with --update first)")
        return False
    try:
        base = json.loads(bpath.read_text())
        if base.get("schema") != BASELINE_SCHEMA:
            raise ValueError(f"unknown baseline schema {base.get('schema')!r}")
        base_p99 = float(base["p99_ms"])
        base_reads = float(base["reads_per_s"])
    except (ValueError, KeyError) as exc:
        print(f"gate {name}: FAIL (unreadable baseline {bpath}: {exc})")
        return False
    tol_p99 = p99_tol if p99_tol is not None else float(
        base.get("p99_tol", DEFAULT_P99_TOL)
    )
    tol_reads = reads_tol if reads_tol is not None else float(
        base.get("reads_tol", DEFAULT_READS_TOL)
    )
    limit = base_p99 * tol_p99
    floor = base_reads * tol_reads
    failures = []
    if p99_ms > limit:
        failures.append(
            f"write p99 {p99_ms:.3f}ms > {limit:.3f}ms "
            f"(baseline {base_p99:.3f}ms x {tol_p99:g})"
        )
    if reads_per_s < floor:
        failures.append(
            f"reads/s {reads_per_s:.0f} < {floor:.0f} "
            f"(baseline {base_reads:.0f} x {tol_reads:g})"
        )
    verdict = "FAIL" if failures else "PASS"
    detail = (
        "; ".join(failures)
        if failures
        else (
            f"determinism ok (both engines), p99 {p99_ms:.3f}ms "
            f"<= {limit:.3f}ms, reads/s {reads_per_s:.0f} >= {floor:.0f}"
        )
    )
    print(f"gate {name}: {verdict} ({detail})")
    return not failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Replay golden traces as deterministic regression gates."
    )
    parser.add_argument(
        "--traces-dir",
        type=pathlib.Path,
        default=TRACES_DIR,
        help="directory of *.trace.jsonl golden traces",
    )
    parser.add_argument(
        "--only", help="gate only the trace whose filename contains this"
    )
    parser.add_argument(
        "--update",
        action="store_true",
        help="measure and (re)write each trace's baseline instead of gating",
    )
    parser.add_argument(
        "--emit",
        metavar="NAME",
        help="synthesize a golden trace NAME.trace.jsonl (then --update it)",
    )
    parser.add_argument("--rounds", type=int, default=24, help="--emit rounds")
    parser.add_argument("--n", type=int, default=128, help="--emit vertices")
    parser.add_argument("--seed", type=int, default=13, help="--emit seed")
    parser.add_argument(
        "--handicap",
        type=float,
        default=1.0,
        help="multiply measured p99 (divide reads/s) before comparing -- "
        "the gate's self-test lever",
    )
    parser.add_argument(
        "--p99-tol",
        type=float,
        default=None,
        help="override the baseline's p99 tolerance multiplier",
    )
    parser.add_argument(
        "--reads-tol",
        type=float,
        default=None,
        help="override the baseline's reads/s floor fraction",
    )
    parser.add_argument(
        "--repeats",
        type=int,
        default=3,
        help="replays per measurement (best-of, sheds scheduler noise)",
    )
    args = parser.parse_args(argv)

    args.traces_dir.mkdir(parents=True, exist_ok=True)
    if args.emit:
        path = args.traces_dir / f"{args.emit}.trace.jsonl"
        emit_trace(path, n=args.n, seed=args.seed, rounds=args.rounds)
        print(f"emitted {path}")
        if not args.update:
            return 0

    traces = sorted(args.traces_dir.glob("*.trace.jsonl"))
    if args.only:
        traces = [t for t in traces if args.only in t.name]
    if not traces:
        print(
            f"no traces matched under {args.traces_dir} "
            "(emit one with --emit NAME)",
            file=sys.stderr,
        )
        return 1
    ok = True
    for trace_path in traces:
        ok = gate_one(
            trace_path,
            update=args.update,
            handicap=args.handicap,
            p99_tol=args.p99_tol,
            reads_tol=args.reads_tol,
            repeats=args.repeats,
        ) and ok
    print(f"gate: {'PASS' if ok else 'FAIL'} ({len(traces)} trace(s))")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
