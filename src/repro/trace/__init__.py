"""Trace capture and deterministic replay for the streaming service.

The subsystem that turns benchmarks from one-off numbers into
replayable regression gates:

- :mod:`repro.trace.record` -- the versioned, CRC-checked JSONL trace
  format (the WAL's durable-line file with a trace header and events);
- :mod:`repro.trace.recorder` -- the live capture hook
  ``ServiceConfig(recorder=...)`` / ``QueryService(recorder=...)``
  attach to a running pipeline;
- :mod:`repro.trace.replay` -- the deterministic replayer driving any
  service configuration through a recorded workload, with byte-identity
  oracles.

``scripts/gate.py`` builds the CI regression gates on top; the format
and contracts are documented in ``docs/tracing.md``.
"""

from repro.trace.record import (
    TRACE_SCHEMA,
    TraceCorruption,
    TraceEvent,
    TraceWriter,
    decode_event,
    encode_event,
    read_trace,
)
from repro.trace.recorder import TraceRecorder
from repro.trace.replay import (
    ReplayConfig,
    ReplayResult,
    TraceReplayer,
    factory_from_meta,
    replay_trace,
    state_fingerprint,
    trace_oracle,
)

__all__ = [
    "TRACE_SCHEMA",
    "ReplayConfig",
    "ReplayResult",
    "TraceCorruption",
    "TraceEvent",
    "TraceRecorder",
    "TraceReplayer",
    "TraceWriter",
    "decode_event",
    "encode_event",
    "factory_from_meta",
    "read_trace",
    "replay_trace",
    "state_fingerprint",
    "trace_oracle",
]
