"""The durable-line format shared by the WAL and traces, pinned and fuzzed.

Three claims:

- **The bytes on disk do not move.**  Exact ``encode_record`` /
  ``encode_event`` lines and fresh-file header lines for fixed inputs,
  so a refactor of the shared framing cannot change the format
  unnoticed (round trips alone would not catch that).
- **Decoders reject, never raise.**  A line whose fields have the wrong
  types -- with or without a valid CRC -- decodes to ``None``, so
  ``read_wal`` / ``read_trace`` report corruption and a tailing
  ``WalCursor`` stops at the bad line.
- **Arbitrary bytes after a valid header** (Hypothesis) only ever yield
  records or ``WalCorruption`` / ``TraceCorruption`` / ``WalTruncated``.
"""

from __future__ import annotations

import json
import pathlib
import tempfile
import zlib

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.service.wal import (
    SegmentedWal,
    WalCorruption,
    WalCursor,
    WalRecord,
    WalTruncated,
    WriteAheadLog,
    decode_record,
    encode_record,
    read_wal,
)
from repro.trace import (
    TraceCorruption,
    TraceEvent,
    TraceWriter,
    decode_event,
    encode_event,
    read_trace,
)

WAL_HEADER = b'{"wal": "repro.service/wal/v2", "start": 0}\n'
TRACE_HEADER = b'{"meta":{},"trace":"repro.trace/v1"}\n'
SEGMENT = "wal-000000000000-000000.jsonl"


def framed(fields: dict, sort_keys: bool) -> str:
    """A line whose CRC matches ``fields``, whatever their types."""
    body = json.dumps(list(fields.values()), separators=(",", ":"), sort_keys=True)
    doc = {**fields, "crc": zlib.crc32(body.encode())}
    return json.dumps(doc, separators=(",", ":"), sort_keys=sort_keys)


class TestBytesOnDisk:
    def test_record_event_and_header_bytes_are_pinned(self, tmp_path):
        assert encode_record(
            7, (("i", ((0, 1), (2, 3, 1.5))), ("e", 3)), epoch=2
        ) == (
            '{"lsn":7,"epoch":2,"ops":[["i",[[0,1],[2,3,1.5]]],["e",3]],'
            '"crc":4082373374}'
        )
        write = TraceEvent(
            seq=3,
            t_us=12345,
            kind="write",
            body={"lsn": 3, "ops": [["i", [[0, 1, 2.5]]], ["e", 2]]},
        )
        assert encode_event(write) == (
            '{"body":{"lsn":3,"ops":[["i",[[0,1,2.5]]],["e",2]]},'
            '"crc":2824590334,"kind":"write","seq":3,"t_us":12345}'
        )
        read = TraceEvent(
            seq=4,
            t_us=20000,
            kind="read",
            body={"queries": [["connected", 0, 2], ["components"]], "at_least": 3},
        )
        assert encode_event(read) == (
            '{"body":{"at_least":3,"queries":[["connected",0,2],["components"]]},'
            '"crc":3895433925,"kind":"read","seq":4,"t_us":20000}'
        )

        seg = tmp_path / "wal-000000000005-000001.jsonl"
        WriteAheadLog(seg, start=5).close()
        assert seg.read_bytes() == (
            b'{"wal": "repro.service/wal/v2", "start": 5}\n'
        )
        trace = tmp_path / "t.trace.jsonl"
        TraceWriter(trace, meta={"z": 1, "a": {"y": 2, "b": 3}}).close()
        assert trace.read_bytes() == (
            b'{"meta":{"a":{"b":3,"y":2},"z":1},"trace":"repro.trace/v1"}\n'
        )

        with SegmentedWal(tmp_path / "wal") as wal:
            wal.append([("i", ((0, 1),))])
        assert (tmp_path / "wal" / SEGMENT).read_bytes() == (
            WAL_HEADER + b'{"lsn":0,"epoch":0,"ops":[["i",[[0,1]]]],'
            b'"crc":1065467459}\n'
        )


#: Lines the WAL decoder must reject: wrong field types, bad CRC first.
BAD_WAL_LINES = [
    pytest.param('{"lsn":0,"epoch":0,"ops":5,"crc":0}', id="ops-int"),
    pytest.param('{"lsn":0,"epoch":0,"ops":[["i",7]],"crc":0}', id="insert-int"),
    pytest.param('{"lsn":0,"epoch":0,"ops":[["e","x"]],"crc":0}', id="expire-str"),
    pytest.param(
        framed({"lsn": "x", "epoch": 0, "ops": []}, sort_keys=False),
        id="crc-ok-lsn-str",
    ),
    pytest.param(
        framed({"lsn": 0, "epoch": 0, "ops": 5}, sort_keys=False),
        id="crc-ok-ops-int",
    ),
    pytest.param(
        framed({"lsn": 0, "epoch": 0, "ops": [["i", 7]]}, sort_keys=False),
        id="crc-ok-insert-int",
    ),
    pytest.param(
        framed({"lsn": 0, "epoch": 0, "ops": [["e", "x"]]}, sort_keys=False),
        id="crc-ok-expire-str",
    ),
]

BAD_TRACE_LINES = [
    pytest.param(
        framed({"seq": "x", "t_us": 0, "kind": "write", "body": {}}, sort_keys=True),
        id="crc-ok-seq-str",
    ),
    pytest.param(
        framed({"seq": 0, "t_us": [1], "kind": "read", "body": {}}, sort_keys=True),
        id="crc-ok-t_us-list",
    ),
    # The removed "control" kind is a corrupt record now.
    pytest.param(
        framed(
            {"seq": 0, "t_us": 0, "kind": "control", "body": {"knob": "budget"}},
            sort_keys=True,
        ),
        id="control-kind",
    ),
]


class TestDecodersReject:
    @pytest.mark.parametrize("line", BAD_WAL_LINES)
    def test_wal_line_is_rejected_everywhere(self, tmp_path, line):
        assert decode_record(line) is None
        good = encode_record(0, [("e", 1)])
        seg = tmp_path / SEGMENT
        seg.write_bytes(WAL_HEADER + (good + "\n" + line + "\n").encode())
        with pytest.raises(WalCorruption):
            read_wal(seg)
        # A tailing cursor ships the good record and stops at the bad one.
        cur = WalCursor(tmp_path)
        assert [r.lsn for r in cur.poll()] == [0]
        assert cur.poll() == [] and cur.next_lsn == 1

    @pytest.mark.parametrize("line", BAD_TRACE_LINES)
    def test_trace_line_is_rejected(self, tmp_path, line):
        assert decode_event(line) is None
        path = tmp_path / "t.trace.jsonl"
        path.write_bytes(TRACE_HEADER + (line + "\n").encode())
        with pytest.raises(TraceCorruption):
            read_trace(path)


# ----------------------------------------------------------------------
# Fuzz: a valid header, then arbitrary bytes or CRC-valid wrong types
# ----------------------------------------------------------------------

json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-3, 3)
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=8,
)
lsn_like = st.integers(0, 3) | json_values
ops_like = (
    st.lists(
        st.tuples(st.sampled_from(["i", "e", "x"]), json_values).map(list),
        max_size=3,
    )
    | json_values
)
wal_lines = st.fixed_dictionaries(
    {"lsn": lsn_like, "epoch": lsn_like, "ops": ops_like}
).map(lambda f: framed(f, sort_keys=False).encode())
trace_lines = st.fixed_dictionaries(
    {
        "seq": lsn_like,
        "t_us": lsn_like,
        "kind": st.sampled_from(["write", "read", "control"]) | json_values,
        "body": st.dictionaries(st.text(max_size=3), json_values, max_size=2)
        | json_values,
    }
).map(lambda f: framed(f, sort_keys=True).encode())


def tails(lines):
    """A file body after the header: framed lines mixed with raw bytes."""
    chunk = lines.map(lambda b: b + b"\n") | st.binary(max_size=40)
    return st.lists(chunk, max_size=6).map(b"".join)


FUZZ = settings(
    max_examples=200,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


class TestFuzzedFiles:
    @FUZZ
    @given(body=tails(wal_lines))
    def test_wal_readers_return_records_or_corruption(self, body):
        with tempfile.TemporaryDirectory() as tmp:
            seg = pathlib.Path(tmp) / SEGMENT
            seg.write_bytes(WAL_HEADER + body)
            try:
                records, good = read_wal(seg)
            except WalCorruption:
                pass
            else:
                assert all(isinstance(r, WalRecord) for r in records)
                assert 0 < good <= len(WAL_HEADER + body)
            cur = WalCursor(tmp)
            try:
                for _ in range(3):
                    got = cur.poll()
                    assert all(isinstance(r, WalRecord) for r in got)
            except (WalCorruption, WalTruncated):
                pass

    @FUZZ
    @given(body=tails(trace_lines))
    def test_trace_reader_returns_events_or_corruption(self, body):
        with tempfile.TemporaryDirectory() as tmp:
            path = pathlib.Path(tmp) / "t.trace.jsonl"
            path.write_bytes(TRACE_HEADER + body)
            try:
                meta, events = read_trace(path)
            except TraceCorruption:
                return
            assert meta == {}
            assert all(isinstance(e, TraceEvent) for e in events)
