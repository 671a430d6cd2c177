"""Shared pieces of the benchmark: source import, tracing, statistics, output.

The benchmark drives the program from the ``src/`` tree of the checkout it
sits in; it never relies on an installed copy.  Tracing is done only from
outside the program: :class:`Tracer` swaps a timing wrapper in for a public
function or method, records one duration per call, and puts the original
back on :meth:`Tracer.restore`.  Untraced runs never construct one.
"""

from __future__ import annotations

import json
import os
import pathlib
import shutil
import sys
import threading
import time
from collections import Counter, defaultdict
from typing import Any, Callable

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: Environment variables that select a non-default engine; the benchmark
#: measures the default engine only, so it drops them for itself and for
#: every process it starts.
_ENGINE_VARS = ("REPRO_ENGINE", "REPRO_BENCH_ENGINE")


def use_source() -> None:
    """Make ``import repro`` load this checkout's ``src/repro``, or exit 2."""
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {SRC / 'repro'}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
    for var in _ENGINE_VARS:
        os.environ.pop(var, None)


def child_env() -> dict[str, str]:
    """Environment for a launched process: this checkout's source first."""
    env = {k: v for k, v in os.environ.items() if k not in _ENGINE_VARS}
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    return env


def run_dir(workload: str) -> pathlib.Path:
    """A fresh scratch directory inside the checkout for one run."""
    path = ROOT / ".perfbench_tmp" / f"{workload}-{os.getpid()}"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def remove_run_dir(path: pathlib.Path) -> None:
    shutil.rmtree(path, ignore_errors=True)
    try:
        path.parent.rmdir()  # only succeeds once no other run uses it
    except OSError:
        pass


def peak_rss_mb(pid: int | str = "self") -> float:
    """Peak resident set size (``VmHWM``) of a live process, in MiB."""
    with open(f"/proc/{pid}/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for process {pid}")


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------


def pct(values: list[float], q: float) -> float:
    """The ``q``-th percentile (0..100), linear between order statistics."""
    if not values:
        return 0.0
    s = sorted(values)
    pos = (len(s) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def median(values: list[float]) -> float:
    return pct(values, 50.0)


# ----------------------------------------------------------------------
# Tracing
# ----------------------------------------------------------------------

_MISSING = object()


class Tracer:
    """Per-call timers around public entry points of the program.

    ``samples[name]`` holds one duration in seconds per call; ``top``
    holds the total time of spans entered while no other traced span was
    open on the same thread (the time some named timer covers);
    ``counts`` holds tallies that the ``after`` hooks add.
    """

    def __init__(self) -> None:
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.counts: Counter = Counter()
        self.top = 0.0
        self._depth = threading.local()
        self._lock = threading.Lock()
        self._saved: list[tuple[Any, str, Any]] = []

    def wrap(
        self,
        owner: Any,
        attr: str,
        name: str,
        before: Callable[..., Any] | None = None,
        after: Callable[..., None] | None = None,
    ) -> None:
        """Time every call of ``owner.attr`` under ``name``.

        ``before(*args)`` runs ahead of the timed call and its result is
        handed to ``after(tracer, state, args, result)``, which runs after
        it; neither is inside the recorded duration.
        """
        original = getattr(owner, attr)
        tracer = self
        self.samples[name]  # created here, so handler threads only append

        def timed(*args: Any, **kwargs: Any) -> Any:
            state = before(*args) if before is not None else None
            depth = getattr(tracer._depth, "n", 0)
            tracer._depth.n = depth + 1
            t0 = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                tracer._depth.n = depth
                tracer.samples[name].append(dt)
                if depth == 0:
                    with tracer._lock:
                        tracer.top += dt
            if after is not None:
                with tracer._lock:
                    after(tracer, state, args, result)
            return result

        timed.__wrapped__ = original  # type: ignore[attr-defined]
        self._saved.append((owner, attr, owner.__dict__.get(attr, _MISSING)))
        setattr(owner, attr, timed)

    def restore(self) -> None:
        """Put every wrapped attribute back as it was."""
        for owner, attr, saved in reversed(self._saved):
            if saved is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, saved)
        self._saved.clear()

    def add_sample(self, name: str, seconds: float) -> None:
        self.samples[name].append(seconds)

    def snapshot(self) -> dict:
        """A JSON-ready copy of everything recorded so far."""
        with self._lock:
            return {
                "samples": {k: list(v) for k, v in list(self.samples.items())},
                "counts": dict(self.counts),
                "top": self.top,
            }


def command_loop(handlers: dict[str, Callable[[dict], dict]]) -> None:
    """Serve a launched process's control channel until standard input
    closes: one JSON command per input line, one JSON reply per output
    line."""
    for line in sys.stdin:
        if not line.strip():
            continue
        cmd = json.loads(line)
        reply = handlers[cmd["cmd"]](cmd)
        print(json.dumps(reply), flush=True)


def emit(correct: bool, attempted: int, failed: int, metrics: dict) -> None:
    """Print the result object as the last line of standard output."""
    body = {
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }
    sys.stdout.flush()
    print(json.dumps(body), flush=True)
