"""Sliding-window k-certificates (Theorem 5.5).

Maintains the maximal spanning forest decomposition ``F_1, ..., F_k`` of
the window graph: each arriving batch is inserted into ``F_1``; the edges
it replaces there cascade into ``F_2``, and so on (Section 5.4).  Every
``F_i`` is a batch-incremental MSF under the recent-edge weighting with a
side ordered set ``D_i`` of its unexpired edges, so expiry is eager.

The union of the unexpired forests is a k-certificate: it preserves all
cuts of size <= k, and is k-connected iff the window graph is (P1-P3).
"""

from __future__ import annotations

from typing import Sequence

from repro.core.batch_msf import BatchIncrementalMSF
from repro.mincut.stoer_wagner import global_min_cut
from repro.obs.metrics import get_metrics
from repro.orderedset.treap import Treap
from repro.runtime.cost import CostModel
from repro.sliding_window.base import WindowClock


class SWKCertificate:
    """Sliding-window k-certificate.

    - ``batch_insert``: ``O(k l lg(1 + n/l))`` expected work, ``O(k lg^2 n)``
      span w.h.p. (the k cascades are sequential).
    - ``batch_expire``: ``O(k delta lg(1 + n/delta))`` expected work.
    - ``make_certificate``: at most ``k (n - 1)`` edges, ``O(k n)`` work.
    """

    def __init__(
        self,
        n: int,
        k: int,
        seed: int = 0x5EED,
        cost: CostModel | None = None,
    ) -> None:
        if k < 1:
            raise ValueError("k must be >= 1")
        self.n = n
        self.k = k
        self.cost = cost if cost is not None else CostModel()
        self.clock = WindowClock()
        self._forests = [
            BatchIncrementalMSF(n, seed=seed + i, cost=self.cost)
            for i in range(k)
        ]
        self._d = [Treap(cost=self.cost) for _ in range(k)]

    def batch_insert(
        self, edges: Sequence[tuple[int, int]], taus: Sequence[int] | None = None
    ) -> None:
        """Insert edges, cascading replacements through F_1 .. F_k."""
        if taus is None:
            taus = self.clock.assign(len(edges))
        else:
            if len(taus) != len(edges):
                raise ValueError("taus and edges must have equal length")
            if any(b <= a for a, b in zip(taus, taus[1:])) or (
                len(taus) and taus[0] < self.clock.t
            ):
                raise ValueError("explicit taus must be increasing and fresh")
            if len(taus):
                self.clock.t = taus[-1] + 1
        cascade = [
            (u, v, -float(tau), tau) for (u, v), tau in zip(edges, taus) if u != v
        ]
        depth = 0
        with self.cost.phase("window-insert", items=len(cascade)):
            for forest, d in zip(self._forests, self._d):
                if not cascade:
                    break
                depth += 1
                report = forest.batch_insert(cascade)
                d.insert_many((eid, (u, v)) for u, v, _, eid in report.inserted)
                d.delete_many(eid for _, _, _, eid in report.evicted)
                # Replaced edges (evicted + rejected) move to the next forest;
                # their ids are reusable there because each forest has its own
                # id space.
                cascade = report.replaced
        metrics = get_metrics()
        metrics.counter("sw_kcertificate.inserted").inc(len(edges))
        metrics.histogram("sw_kcertificate.cascade_depth").observe(depth)

    def batch_expire(self, delta: int) -> None:
        """Expire the ``delta`` oldest items from every forest."""
        self.expire_until(self.clock.tw + delta)

    def expire_until(self, tau: int) -> None:
        """Advance to global ``tau``, cutting expired edges eagerly."""
        with self.cost.phase("window-expire") as ph:
            tau = self.clock.expire_until(tau)
            for forest, d in zip(self._forests, self._d):
                expired = d.split_at(tau)
                ph.count(len(expired))
                if len(expired):
                    forest.forget_edges([eid for eid, _ in expired.items()])

    # -- queries -----------------------------------------------------------

    def make_certificate(self) -> list[tuple[int, int, int]]:
        """The k-certificate: unexpired edges of all forests as
        ``(u, v, tau)``; at most ``k (n - 1)`` of them."""
        out: list[tuple[int, int, int]] = []
        for d in self._d:
            out.extend((u, v, tau) for tau, (u, v) in d.items())
        return out

    def certificate_sizes(self) -> list[int]:
        """Unexpired edge count per forest (diagnostics)."""
        return [len(d) for d in self._d]

    def is_k_connected(self) -> bool:
        """Whether the window graph is k-edge-connected, tested on the
        certificate with a global min cut (property P3)."""
        cert = [(u, v) for u, v, _ in self.make_certificate()]
        return global_min_cut(self.n, cert, cost=self.cost) >= self.k

    def connectivity_lower_bound(self, u: int, v: int) -> int:
        """Largest ``i`` such that ``u, v`` are connected in ``F_i`` --
        they are then at least i-edge-connected in the window (P1)."""
        bound = 0
        for i, forest in enumerate(self._forests, start=1):
            if u == v or forest.connected(u, v):
                bound = i
            else:
                break
        return bound

    def is_connected(self, u: int, v: int) -> bool:
        """Window connectivity: ``F_1`` spans every window component, so
        connectivity there is connectivity in the window graph."""
        return u == v or self._forests[0].connected(u, v)

    def batch_is_connected(
        self, pairs: Sequence[tuple[int, int]]
    ) -> list[bool]:
        """Window connectivity for a whole pair batch off one shared
        ``batch-query`` root-walk sweep of ``F_1`` (Theorem 3.2; see
        docs/batch_queries.md)."""
        if not pairs:
            return []
        with self.cost.phase("window-query", items=len(pairs)):
            conn = self._forests[0].batch_connected(pairs)
        return [u == v or c for (u, v), c in zip(pairs, conn)]

    def batch_connectivity_lower_bounds(
        self, pairs: Sequence[tuple[int, int]]
    ) -> list[int]:
        """:meth:`connectivity_lower_bound` for a whole pair batch.

        One shared ``batch-query`` sweep per forest level, and a pair
        stops participating once it first disconnects, so the total work
        is ``sum_i O(l_i lg(1 + n/l_i))`` with ``l_i`` the pairs still
        connected through ``F_{i-1}``.
        """
        if not pairs:
            return []
        bounds = [0] * len(pairs)
        active = list(range(len(pairs)))
        with self.cost.phase("window-query", items=len(pairs)):
            for i, forest in enumerate(self._forests, start=1):
                if not active:
                    break
                conn = forest.batch_connected([pairs[j] for j in active])
                nxt = []
                for j, c in zip(active, conn):
                    u, v = pairs[j]
                    if u == v or c:
                        bounds[j] = i
                        nxt.append(j)
                active = nxt
        return bounds

    @property
    def window_size(self) -> int:
        """Number of unexpired stream items."""
        return self.clock.window_size
