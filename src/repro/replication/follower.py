"""A read replica: snapshot bootstrap plus incremental WAL replay.

A :class:`Follower` is the unit of the read tier.  It never talks to the
primary process directly -- the *log is the replication protocol*: the
follower bootstraps from the newest trustworthy checkpoint in the shared
``data_dir``, positions a :class:`~repro.service.wal.WalCursor` at its
``replayed_lsn``, and each :meth:`catch_up` ships newly durable rounds and
replays them through :func:`repro.service.service.apply_ops` -- the exact
code path the primary's apply loop uses -- so a fully caught-up follower
is *byte-identical* to the primary (the structures are deterministic
functions of the round sequence).

Crash/restart is therefore trivial: :meth:`kill` drops the in-memory
state, :meth:`restart` re-bootstraps from disk, and the kill-matrix tests
assert the re-tailed state matches an uninterrupted replica at every
possible kill offset.

Fencing: after a promotion the follower is told ``fence(lsn, epoch)``;
its cursor then rejects any record at ``lsn`` onward carrying an older
epoch (a zombie ex-primary's appends), and its bootstrap refuses
checkpoints the zombie took after losing the promotion.
"""

from __future__ import annotations

import pathlib
import threading
from typing import Any, Callable

from repro.obs.metrics import get_metrics
from repro.runtime.cost import CostModel
from repro.service.query import BUSY
from repro.service.resilience import RetryPolicy
from repro.service.service import SNAPSHOT_DIRNAME, apply_ops, wal_directory
from repro.service.snapshot import SnapshotStore
from repro.service.storage import StorageIO
from repro.service.wal import WalCursor, WalTruncated


class FollowerDead(RuntimeError):
    """The follower was killed; :meth:`Follower.restart` revives it."""


class Follower:
    """One in-process read replica over a primary's ``data_dir``.

    Args:
        fid: replica id (display/metrics only; unique per service).
        data_dir: the primary's data directory (shared storage).
        factory: builds the empty structure when no checkpoint exists;
            must match the primary's (same ``n``, ``seed``).
        io: the storage seam for bootstrap reads and WAL tailing
            (default: real I/O); chaos tests inject faults here.
        retry: optional retry policy applied to *transient* storage
            faults while tailing the log in :meth:`catch_up` --
            corruption still fails loud.
    """

    def __init__(
        self,
        fid: int,
        data_dir: str | pathlib.Path,
        factory: Callable[[], Any],
        io: StorageIO | None = None,
        retry: RetryPolicy | None = None,
    ) -> None:
        self.fid = fid
        self.data_dir = pathlib.Path(data_dir)
        self.factory = factory
        self._io = io
        self._retry = retry
        self._lock = threading.RLock()
        self._fence: tuple[int, int] = (0, 0)
        self._killed = False
        self._fenced_seen = 0
        self.structure: Any = None
        self.last_error: BaseException | None = None
        self._bootstrap()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def _bootstrap(self) -> None:
        store = SnapshotStore(self.data_dir / SNAPSHOT_DIRNAME, io=self._io)
        fence_lsn, fence_epoch = self._fence
        snap = store.load_latest(
            valid=lambda lsn, epoch: not (
                lsn >= fence_lsn and epoch < fence_epoch
            )
        )
        if snap is None:
            self.structure = self.factory()
            self._replayed = 0
        else:
            snap_lsn, self.structure = snap
            self._replayed = snap_lsn + 1  # checkpoint covers rounds 0..lsn
        self.cursor = WalCursor(
            wal_directory(self.data_dir), next_lsn=self._replayed, io=self._io
        )
        self.cursor.fence(fence_lsn, fence_epoch)
        self._fenced_seen = 0
        get_metrics().counter("replication.bootstraps").inc()

    def kill(self) -> None:
        """Simulate a replica crash: drop all in-memory state."""
        with self._lock:
            self._killed = True
            self.structure = None
            get_metrics().counter("replication.follower_kills").inc()

    def restart(self) -> None:
        """Revive a killed replica by re-bootstrapping from disk."""
        with self._lock:
            self._bootstrap()
            self._killed = False
            self.last_error = None

    def fail(self, exc: BaseException) -> None:
        """Take the replica out of rotation after an unexpected error.

        The replication loop calls this when tailing raises something
        that is neither an expected life-cycle event nor retryable: the
        replica stops serving (``alive`` goes False) with the cause kept
        in ``last_error`` for the operator; :meth:`restart` revives it
        from disk.
        """
        with self._lock:
            self._killed = True
            self.structure = None
            self.last_error = exc
            get_metrics().counter("replication.follower_failures").inc()

    @property
    def alive(self) -> bool:
        """Whether the replica currently serves (not killed)."""
        return not self._killed

    # ------------------------------------------------------------------
    # Replication
    # ------------------------------------------------------------------

    @property
    def replayed_lsn(self) -> int:
        """Rounds replayed so far: reads at ``at_least=lsn`` need
        ``replayed_lsn > lsn`` (the write's round must be applied)."""
        return self._replayed

    @property
    def cost(self) -> CostModel:
        """The served structure's cost model (phases nest under it)."""
        cost = getattr(self.structure, "cost", None)
        return cost if cost is not None else CostModel(enabled=False)

    def catch_up(self, max_records: int | None = None) -> int:
        """Ship and replay newly durable rounds; returns how many.

        A position truncated away underneath (the primary bounds WAL
        growth) triggers a transparent re-bootstrap from the newest
        checkpoint before tailing resumes.
        """
        with self._lock:
            self._check_alive()
            m = get_metrics()
            # Transient storage faults while tailing retry under the
            # policy (the cursor leaves its position untouched on error,
            # so a retry re-reads the same range); WalTruncated is not
            # transient and falls through to the re-bootstrap.
            if self._retry is not None:
                poll = lambda: self._retry.call(  # noqa: E731
                    lambda: self.cursor.poll(max_records)
                )
            else:
                poll = lambda: self.cursor.poll(max_records)  # noqa: E731
            with self.cost.phase("repl-ship") as ph:
                try:
                    records = poll()
                except WalTruncated:
                    self._bootstrap()
                    records = poll()
                ph.count(len(records))
            fenced = self.cursor.fenced_rejections - self._fenced_seen
            if fenced:
                self._fenced_seen = self.cursor.fenced_rejections
                m.counter("replication.fenced_records").inc(fenced)
            if not records:
                return 0
            with self.cost.phase("repl-replay") as ph:
                for rec in records:
                    apply_ops(self.structure, rec.ops)
                    self._replayed = rec.lsn + 1
                ph.count(len(records))
            m.counter("replication.shipped_records").inc(len(records))
            m.counter("replication.replayed_rounds").inc(len(records))
            return len(records)

    def fence(self, lsn: int, epoch: int) -> None:
        """Reject rounds at ``lsn`` onward older than ``epoch`` (set by
        the service after a promotion)."""
        with self._lock:
            self._fence = (lsn, epoch)
            self.cursor.fence(lsn, epoch)

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------

    def query(self, fn: Callable[[Any], Any]) -> Any:
        """Run ``fn(structure)`` serialized against replay."""
        with self._lock:
            self._check_alive()
            return fn(self.structure)

    def try_query(self, fn: Callable[[Any], Any], timeout: float = 0.0) -> Any:
        """Like :meth:`query`, but returns :data:`BUSY` instead of
        blocking when the replica's lock is held (a replay in progress):
        the router's busy-avoidance primitive.

        ``timeout > 0`` waits up to that long for the lock first: a
        reader colliding with a short replay poll rides it out instead
        of failing over (the out-of-process worker uses this -- for it,
        a BUSY verdict costs the gateway a wasted network round trip per
        remaining worker, not a nanosecond lock probe).
        """
        if timeout > 0:
            acquired = self._lock.acquire(timeout=timeout)
        else:
            acquired = self._lock.acquire(blocking=False)
        if not acquired:
            return BUSY
        try:
            self._check_alive()
            return fn(self.structure)
        finally:
            self._lock.release()

    def _check_alive(self) -> None:
        if self._killed:
            raise FollowerDead(f"follower {self.fid} was killed")
