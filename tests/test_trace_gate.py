"""The regression gate gates: ``scripts/gate.py`` and ``--trace-diff``.

Two self-test claims keep the gate honest:

- the **committed golden trace** replays deterministically and passes
  its committed baseline band (a green gate in CI is backed by a test,
  not hope);
- an **injected 2x p99 regression** (the ``--handicap`` lever) flips
  the verdict to FAIL against a freshly measured baseline -- proving
  the band is real, not vacuous.  Both measurements run on a step
  clock, so the verdict is deterministic under any machine load.

Plus the triage path: ``python -m repro.report --trace-diff A B`` must
render a phase-by-phase comparison for healthy records and exit 1 with
a one-line diagnosis on truncated or schema-mismatched ones.
"""

from __future__ import annotations

import importlib.util
import itertools
import json
import pathlib
import types

from repro.obs.export import BenchmarkRecord, write_record
from repro.report import main as report_main
from repro.trace import TRACE_SCHEMA, read_trace, replay

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
GATE = REPO_ROOT / "scripts" / "gate.py"
GOLDEN = REPO_ROOT / "bench_results" / "traces" / "smoke.trace.jsonl"


def _load_gate():
    spec = importlib.util.spec_from_file_location("gate", GATE)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


class TestGoldenTrace:
    def test_committed_trace_is_wellformed(self):
        """The committed golden trace parses clean: CRCs verify, the
        header names a rebuildable factory, reads ride write tokens."""
        meta, events = read_trace(GOLDEN)
        assert meta["trace"] == TRACE_SCHEMA if "trace" in meta else True
        assert meta["factory"]["structure"] == "SWConnectivityEager"
        kinds = {e.kind for e in events}
        assert kinds == {"write", "read"}
        assert any("at_least" in e.body for e in events if e.kind == "read")

    def test_committed_baseline_is_wellformed(self):
        gate = _load_gate()
        bpath = gate.baseline_path(GOLDEN)
        base = json.loads(bpath.read_text())
        assert base["schema"] == gate.BASELINE_SCHEMA
        assert base["p99_ms"] > 0
        assert base["reads_per_s"] > 0

    def test_gate_passes_on_committed_golden_trace(self, capsys):
        """The acceptance claim: the committed trace + committed band
        pass, end to end, through the real CLI entry point."""
        gate = _load_gate()
        assert gate.main(["--only", "smoke", "--repeats", "1"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out
        assert "determinism ok (both engines)" in out

    def test_emit_is_byte_reproducible(self, tmp_path):
        gate = _load_gate()
        a, b = tmp_path / "a.trace.jsonl", tmp_path / "b.trace.jsonl"
        gate.emit_trace(a, n=32, seed=7, rounds=6)
        gate.emit_trace(b, n=32, seed=7, rounds=6)
        assert a.read_bytes() == b.read_bytes()
        assert a.read_bytes() != b""


class TestGateVerdicts:
    def _emit_small(self, gate, traces_dir, name="tiny"):
        traces_dir.mkdir(parents=True, exist_ok=True)
        path = traces_dir / f"{name}.trace.jsonl"
        gate.emit_trace(path, n=32, seed=3, rounds=12)
        return path

    def test_injected_2x_regression_fails_the_gate(
        self, tmp_path, capsys, monkeypatch
    ):
        """Baseline the trace with a tight band, then replay it with a 2x
        p99 handicap: the gate must fail, naming the latency breach.

        Both replays time every write and read on a step clock (each
        reading is 1 ms after the previous one), so the baseline and the
        gated run measure identical latencies and the verdict depends on
        the band arithmetic alone -- a CPU hiccup during ``--update`` can
        no longer widen the band enough to absorb the handicap."""
        gate = _load_gate()
        steps = itertools.count(1)
        monkeypatch.setattr(
            replay,
            "time",
            types.SimpleNamespace(perf_counter=lambda: next(steps) * 1e-3),
        )
        self._emit_small(gate, tmp_path)
        argv = ["--traces-dir", str(tmp_path)]
        assert gate.main(argv + ["--update"]) == 0
        capsys.readouterr()
        assert (
            gate.main(argv + ["--handicap", "2.0", "--p99-tol", "1.4"]) == 1
        )
        out = capsys.readouterr().out
        assert "FAIL" in out
        assert "write p99 2.000ms > 1.400ms" in out

    def test_missing_baseline_fails(self, tmp_path, capsys):
        gate = _load_gate()
        self._emit_small(gate, tmp_path)
        assert gate.main(["--traces-dir", str(tmp_path)]) == 1
        assert "no baseline" in capsys.readouterr().out

    def test_corrupt_baseline_fails(self, tmp_path, capsys):
        gate = _load_gate()
        path = self._emit_small(gate, tmp_path)
        gate.baseline_path(path).write_text(
            json.dumps({"schema": "bogus/v9", "p99_ms": 1.0})
        )
        assert gate.main(["--traces-dir", str(tmp_path)]) == 1
        assert "unreadable baseline" in capsys.readouterr().out

    def test_no_traces_is_an_error(self, tmp_path, capsys):
        gate = _load_gate()
        assert gate.main(["--traces-dir", str(tmp_path / "empty")]) == 1
        assert "no traces matched" in capsys.readouterr().err


# ----------------------------------------------------------------------
# python -m repro.report --trace-diff
# ----------------------------------------------------------------------


def _record(name: str, phases: list[tuple[str, int, float]], wall=1.0):
    return BenchmarkRecord(
        name=name,
        params={},
        phases=[
            {"name": pn, "work": w, "span": 1, "wall_s": ws}
            for pn, w, ws in phases
        ],
        totals={
            "work": sum(w for _, w, _ in phases),
            "span": 1,
            "wall_s": wall,
        },
    )


class TestTraceDiffCLI:
    def test_diff_renders_per_phase_ratios(self, tmp_path, capsys):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        write_record(
            _record("bench", [("insert", 100, 0.5), ("query", 50, 0.25)]), a
        )
        write_record(
            _record(
                "bench", [("insert", 200, 1.0), ("query", 50, 0.25)], wall=2.0
            ),
            b,
        )
        assert report_main(["--trace-diff", str(a), str(b)]) == 0
        out = capsys.readouterr().out
        assert "Trace diff" in out
        assert "2.00x" in out  # insert work doubled
        assert "1.00x" in out  # query unchanged
        assert "(totals)" in out

    def test_diff_marks_one_sided_phases(self, tmp_path, capsys):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        write_record(_record("bench", [("insert", 100, 0.5)]), a)
        write_record(_record("bench", [("expire", 10, 0.1)]), b)
        assert report_main(["--trace-diff", str(a), str(b)]) == 0
        out = capsys.readouterr().out
        # A phase present on one side only gets "-" ratios, not "0.00x".
        assert "0.00x" not in out
        assert "-" in out

    def test_diff_rejects_truncated_record(self, tmp_path, capsys):
        a, b = tmp_path / "a.json", tmp_path / "trunc.json"
        write_record(_record("bench", [("insert", 100, 0.5)]), a)
        b.write_text(a.read_text()[: len(a.read_text()) // 2])
        assert report_main(["--trace-diff", str(a), str(b)]) == 1
        err = capsys.readouterr().err
        assert "not a readable benchmark record" in err
        assert "Traceback" not in err

    def test_diff_rejects_schema_mismatch(self, tmp_path, capsys):
        a, b = tmp_path / "a.json", tmp_path / "alien.json"
        write_record(_record("bench", [("insert", 100, 0.5)]), a)
        b.write_text(json.dumps({"schema": "someone.else/v3", "name": "x"}))
        assert report_main(["--trace-diff", str(a), str(b)]) == 1
        err = capsys.readouterr().err
        assert "unknown benchmark-record schema" in err

    def test_diff_rejects_missing_file(self, tmp_path, capsys):
        a = tmp_path / "a.json"
        write_record(_record("bench", [("insert", 100, 0.5)]), a)
        assert (
            report_main(["--trace-diff", str(a), str(tmp_path / "nope.json")])
            == 1
        )
        assert "no such record" in capsys.readouterr().err
