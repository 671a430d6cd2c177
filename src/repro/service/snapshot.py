"""Snapshot store: periodic pickled checkpoints of a window structure.

Every structure in the library pickles and keeps evolving identically
afterwards (``tests/test_serialization.py`` proves snapshot-identical
evolution), so a durable checkpoint is simply the pickled structure tagged
with the WAL LSN it covers: *rounds ``0..lsn`` applied*.  Recovery loads
the newest loadable snapshot and replays the WAL suffix ``lsn+1..``.

Writes are atomic -- pickle to ``<name>.tmp``, then an atomic rename --
so a crash mid-snapshot leaves at worst a stale ``.tmp`` and never a
half-written checkpoint.  Loading skips unreadable snapshots (falling back
to the next older one), because a corrupt checkpoint must degrade recovery
to a longer replay, not block it.

All file writes, fsyncs, renames, and reads route through the pluggable
:class:`repro.service.storage.StorageIO` seam, so
:class:`repro.chaos.faults.FaultyIO` can inject torn checkpoint writes
and bit-flips; the skip-unreadable fallback is exactly the degradation
path those faults exercise.
"""

from __future__ import annotations

import pathlib
import pickle
import re
from typing import Any, Callable

from repro.service.storage import REAL_IO, StorageIO

SNAPSHOT_SCHEMA = "repro.service/snapshot/v2"

_SNAP_RE = re.compile(r"^snapshot-(\d{12})\.pkl$")


class SnapshotStore:
    """Checkpoint files ``snapshot-<lsn>.pkl`` under one directory.

    Args:
        directory: where checkpoints live (created on first save).
        retain: how many newest checkpoints to keep; older ones are pruned
            after each successful save (at least 1 is always kept).
        fsync: force each checkpoint through the OS cache before the
            atomic rename publishes it.
        io: the storage seam (default: real I/O).
    """

    def __init__(
        self,
        directory: str | pathlib.Path,
        retain: int = 2,
        fsync: bool = False,
        io: StorageIO | None = None,
    ) -> None:
        self.directory = pathlib.Path(directory)
        self.retain = max(1, retain)
        self.fsync = fsync
        self._io = io or REAL_IO

    def _path(self, lsn: int) -> pathlib.Path:
        return self.directory / f"snapshot-{lsn:012d}.pkl"

    def lsns(self) -> list[int]:
        """LSNs of the stored checkpoints, oldest first."""
        if not self.directory.is_dir():
            return []
        out = []
        for p in self.directory.iterdir():
            m = _SNAP_RE.match(p.name)
            if m:
                out.append(int(m.group(1)))
        return sorted(out)

    def save(
        self, structure: Any, lsn: int, epoch: int = 0, prune: bool = True
    ) -> pathlib.Path:
        """Checkpoint ``structure`` as covering WAL rounds ``0..lsn``.

        ``epoch`` records the fencing epoch of round ``lsn``'s writer, so
        recovery can reject a checkpoint taken by a fenced ex-primary
        after its promotion (see :mod:`repro.replication`).  A fenced
        ex-primary passes ``prune=False``: its checkpoints still land (and
        are rejected at recovery), but it must not delete checkpoints the
        winning timeline recovers from.

        A failed write (transient I/O error, torn write, failed fsync)
        leaves at most a garbage ``.tmp`` the next save overwrites; the
        published checkpoint set is untouched.
        """
        self.directory.mkdir(parents=True, exist_ok=True)
        path = self._path(lsn)
        tmp = path.with_suffix(".pkl.tmp")
        payload = pickle.dumps(
            {
                "schema": SNAPSHOT_SCHEMA,
                "lsn": lsn,
                "epoch": epoch,
                "structure": structure,
            },
            protocol=pickle.HIGHEST_PROTOCOL,
        )
        with tmp.open("wb") as f:
            self._io.write_bytes(f, payload)
            if self.fsync:
                self._io.fsync(f)
        self._io.replace(tmp, path)
        if self.fsync:
            # The rename published the checkpoint's *name*; only a
            # directory fsync makes that entry survive a crash.
            self._io.fsync_dir(self.directory)
        if prune:
            self._prune()
        return path

    def load_latest(
        self, valid: Callable[[int, int], bool] | None = None
    ) -> tuple[int, Any] | None:
        """The newest loadable checkpoint as ``(lsn, structure)``.

        Unreadable checkpoints are skipped (older ones are tried next);
        returns ``None`` when no checkpoint can be loaded.  ``valid`` is
        an optional ``(lsn, epoch) -> bool`` acceptance predicate --
        recovery uses it to skip checkpoints a fenced ex-primary took
        after losing a promotion.
        """
        for lsn in reversed(self.lsns()):
            try:
                payload = pickle.loads(self._io.read_bytes(self._path(lsn)))
                if not isinstance(payload, dict):
                    continue
                if payload.get("schema") != SNAPSHOT_SCHEMA:
                    continue
                epoch = int(payload.get("epoch", 0))
                if valid is not None and not valid(int(payload["lsn"]), epoch):
                    continue
                return int(payload["lsn"]), payload["structure"]
            except Exception:
                # Unpickling corrupt bytes (a bit-flip anywhere in the
                # file) can raise nearly anything -- UnpicklingError,
                # EOFError, ValueError, TypeError, AttributeError, ... --
                # and every one of them means the same thing: this
                # checkpoint is unreadable, degrade to the next older one.
                continue
        return None

    def drop_from(self, lsn: int) -> int:
        """Delete checkpoints covering rounds at or past ``lsn``.

        The promotion primitive: when a follower is promoted at ``lsn``,
        every checkpoint taken by the old primary for rounds ``>= lsn``
        describes state the new timeline never reaches, so keeping it
        would let a later recovery resurrect fenced writes.  Returns the
        number of checkpoints removed.
        """
        removed = 0
        for snap_lsn in self.lsns():
            if snap_lsn >= lsn:
                try:
                    self._io.unlink(self._path(snap_lsn))
                    removed += 1
                except OSError:  # pragma: no cover - best-effort cleanup
                    pass
        if removed and self.fsync and self.directory.is_dir():
            self._io.fsync_dir(self.directory)
        return removed

    def _prune(self) -> None:
        for lsn in self.lsns()[: -self.retain]:
            try:
                self._io.unlink(self._path(lsn))
            except OSError:  # pragma: no cover - best-effort cleanup
                pass
