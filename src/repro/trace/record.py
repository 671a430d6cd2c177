"""The trace format: a versioned, CRC-checked JSONL event log.

A *trace* is the workload twin of the WAL: where the WAL records what the
service **committed**, a trace records what clients **asked for** -- write
rounds with their arrival timestamps and read batches with their
consistency levels -- so a benchmark or soak can be replayed against any
:class:`~repro.service.service.ServiceConfig`, instead of re-rolling a
synthetic generator and hoping it exercises the same code paths.

A trace file *is* a WAL-style durable-line file: the header line,
CRC framing, torn-tail repair and truncate-on-failed-append are the
ones :mod:`repro.service.wal` defines (:func:`~repro.service.wal.scan_lines`,
:class:`~repro.service.wal.LineLog`), with a different header and
record shape:

    {"meta": {...}, "trace": "repro.trace/v1"}
    {"body": {...}, "crc": ..., "kind": "write", "seq": 0, "t_us": 0}
    {"body": {...}, "crc": ..., "kind": "read", "seq": 1, "t_us": 5000}

Event kinds:

- ``write``: one committed ingest round -- ``body["ops"]`` is the WAL op
  list (``["i", edges]`` / ``["e", delta]``) and ``body["lsn"]`` the LSN
  it committed as on the recording service;
- ``read``: one answered query batch -- ``body["queries"]`` plus the
  requested consistency (``at_least`` token / ``max_staleness`` bound).

Any other kind is a corrupt record.  Timestamps are integer
**microseconds since the trace started** (``t_us``), monotone
non-decreasing.  All durable bytes route through the
:class:`~repro.service.storage.StorageIO` seam, so the trace writer is
testable under :class:`~repro.chaos.faults.FaultyIO` like every other
durable component.
"""

from __future__ import annotations

import json
import pathlib
from dataclasses import dataclass, field

from repro.service.storage import REAL_IO, StorageIO
from repro.service.wal import LineLog, frame_line, scan_lines, unframe_line

TRACE_SCHEMA = "repro.trace/v1"

#: Event kinds a v1 trace may contain.
EVENT_KINDS = ("write", "read")


class TraceCorruption(RuntimeError):
    """A non-tail trace record failed to decode: the file was damaged."""


@dataclass(frozen=True)
class TraceEvent:
    """One trace record: a sequence number, arrival time, kind, and body."""

    seq: int
    t_us: int
    kind: str
    body: dict = field(default_factory=dict)


_KEYS = ("seq", "t_us", "kind", "body")


def encode_event(event: TraceEvent) -> str:
    """One trace line (no trailing newline) for ``event``."""
    if event.kind not in EVENT_KINDS:
        raise ValueError(f"unknown trace event kind {event.kind!r}")
    return frame_line(
        {k: getattr(event, k) for k in _KEYS}, sort_keys=True
    )


def decode_event(line: str) -> TraceEvent | None:
    """Parse one trace line; ``None`` when it is torn or corrupt."""
    doc = unframe_line(line, _KEYS)
    if doc is None or doc["kind"] not in EVENT_KINDS:
        return None
    if not isinstance(doc["body"], dict):
        return None
    try:
        seq, t_us = int(doc["seq"]), int(doc["t_us"])
    except (ValueError, TypeError):
        return None
    return TraceEvent(seq=seq, t_us=t_us, kind=doc["kind"], body=doc["body"])


def _parse_header(line: bytes) -> dict | None:
    """The trace meta dict, or ``None`` when the header is invalid."""
    try:
        header = json.loads(line)
    except (ValueError, RecursionError):
        return None
    if not isinstance(header, dict) or header.get("trace") != TRACE_SCHEMA:
        return None
    meta = header.get("meta", {})
    return meta if isinstance(meta, dict) else None


def read_trace(
    path: str | pathlib.Path, io: StorageIO | None = None
) -> tuple[dict, list[TraceEvent]]:
    """Every durable event of the trace at ``path``, with its meta dict.

    A torn tail (crash mid-append) is ignored, exactly as the WAL reader
    does; a corrupt record *before* the tail, a bad header, a ``seq``
    gap, or a timestamp that goes backwards raises
    :class:`TraceCorruption` -- those mean the file was edited, not torn.
    """
    meta, events, _ = _scan(pathlib.Path(path), io or REAL_IO)
    return meta, events


def _scan(
    path: pathlib.Path, io: StorageIO
) -> tuple[dict, list[TraceEvent], int]:
    """``(meta, events, good_bytes)`` of the durable prefix at ``path``."""
    meta, events, good = scan_lines(
        path, io, "trace", _parse_header, decode_event, TraceCorruption
    )
    for i, ev in enumerate(events):
        if ev.seq != i:
            raise TraceCorruption(f"{path}: seq gap, expected {i} got {ev.seq}")
        if i and ev.t_us < events[i - 1].t_us:
            raise TraceCorruption(
                f"{path}: time went backwards at seq {ev.seq} "
                f"({events[i - 1].t_us} -> {ev.t_us})"
            )
    return meta or {}, events, good


class TraceWriter(LineLog):
    """Appendable trace handle with the WAL's crash contract.

    Opening an existing trace scans it, truncates a torn tail back to the
    last durable event, and resumes the ``seq`` sequence; opening a fresh
    path writes the schema header with ``meta``.  A failed :meth:`append`
    leaves no trace of its event (see :class:`~repro.service.wal.LineLog`).

    Not thread-safe by itself; :class:`repro.trace.recorder.TraceRecorder`
    adds the lock (and the clock).
    """

    def __init__(
        self,
        path: str | pathlib.Path,
        meta: dict | None = None,
        fsync: bool = False,
        io: StorageIO | None = None,
    ) -> None:
        found_meta, events, good = _scan(pathlib.Path(path), io or REAL_IO)
        self.meta = found_meta if good else dict(meta or {})
        self._next_seq = len(events)
        self._last_t_us = events[-1].t_us if events else 0
        header = json.dumps(
            {"trace": TRACE_SCHEMA, "meta": self.meta},
            separators=(",", ":"),
            sort_keys=True,
        )
        super().__init__(path, good, header, fsync=fsync, io=io)

    @property
    def next_seq(self) -> int:
        """The sequence number the next :meth:`append` will carry."""
        return self._next_seq

    def append(self, t_us: int, kind: str, body: dict) -> TraceEvent:
        """Append one event; returns it once the line is durable.

        ``t_us`` is clamped monotone (arrival times never go backwards).
        """
        ev = TraceEvent(
            seq=self._next_seq,
            t_us=max(int(t_us), self._last_t_us),
            kind=kind,
            body=body,
        )
        self.append_line(encode_event(ev))
        self._next_seq += 1
        self._last_t_us = ev.t_us
        return ev
