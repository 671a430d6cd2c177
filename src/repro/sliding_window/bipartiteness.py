"""Sliding-window bipartiteness (Theorem 5.3).

A graph is bipartite iff its *cycle double cover* -- replace each vertex
``v`` by ``v1, v2`` and each edge ``(u, v)`` by ``(u1, v2), (u2, v1)`` --
has exactly twice as many connected components.  Two eager connectivity
structures run in parallel: one on the window graph, one on its double
cover (whose stream receives two edges per arrival, preserving order).
"""

from __future__ import annotations

from typing import Sequence

from repro.obs.metrics import get_metrics
from repro.runtime.cost import CostModel, parallel_regions
from repro.sliding_window.base import WindowClock
from repro.sliding_window.connectivity import SWConnectivityEager


class SWBipartiteness:
    """Sliding-window bipartite testing.

    - ``batch_insert``: ``O(l lg(1 + n/l))`` expected work.
    - ``batch_expire``: ``O(delta lg(1 + n/delta) + lg n)`` expected work.
    - ``is_bipartite``: O(1) worst case.
    """

    def __init__(
        self,
        n: int,
        seed: int = 0x5EED,
        cost: CostModel | None = None,
    ) -> None:
        self.n = n
        self.cost = cost if cost is not None else CostModel()
        self.clock = WindowClock()
        # The window graph and its double cover are maintained "in parallel"
        # (Section 5.2): each gets a sub-model, composed as sum-work/max-span.
        self._g_cost = CostModel(enabled=self.cost.enabled)
        self._cover_cost = CostModel(enabled=self.cost.enabled)
        self._g = SWConnectivityEager(n, seed=seed, cost=self._g_cost)
        self._cover = SWConnectivityEager(
            2 * n, seed=seed + 1, cost=self._cover_cost
        )

    def batch_insert(self, edges: Sequence[tuple[int, int]]) -> None:
        """Insert edges into the window graph and its double cover."""
        if not edges:
            return
        with self.cost.phase("window-insert", items=len(edges)):
            self.clock.assign(len(edges))
            cover_edges = []
            for u, v in edges:
                cover_edges.append((u, self.n + v))
                cover_edges.append((self.n + u, v))
            parallel_regions(
                self.cost,
                [
                    (self._g_cost, lambda: self._g.batch_insert(edges)),
                    (self._cover_cost, lambda: self._cover.batch_insert(cover_edges)),
                ],
            )
        get_metrics().counter("sw_bipartiteness.inserted").inc(len(edges))

    def batch_expire(self, delta: int) -> None:
        """Expire the ``delta`` oldest arrivals (2 delta cover edges)."""
        with self.cost.phase("window-expire", items=delta):
            self.clock.expire(delta)
            parallel_regions(
                self.cost,
                [
                    (self._g_cost, lambda: self._g.batch_expire(delta)),
                    # Two cover edges per arrival.
                    (self._cover_cost, lambda: self._cover.batch_expire(2 * delta)),
                ],
            )

    def is_bipartite(self) -> bool:
        """O(1): the window graph is bipartite iff its double cover has
        exactly twice as many components (isolated vertices included --
        each isolated original vertex contributes two cover singletons)."""
        return self._cover.num_components == 2 * self._g.num_components

    def is_connected(self, u: int, v: int) -> bool:
        """Window connectivity, answered by the window-graph structure."""
        return parallel_regions(
            self.cost, [(self._g_cost, lambda: self._g.is_connected(u, v))]
        )[0]

    def batch_is_connected(
        self, pairs: Sequence[tuple[int, int]]
    ) -> list[bool]:
        """Window connectivity for a whole pair batch off one shared
        ``batch-query`` sweep of the window-graph forest (see
        docs/batch_queries.md)."""
        if not pairs:
            return []
        with self.cost.phase("window-query", items=len(pairs)):
            return parallel_regions(
                self.cost,
                [(self._g_cost, lambda: self._g.batch_is_connected(pairs))],
            )[0]

    @property
    def num_components(self) -> int:
        """Components of the window graph (O(1))."""
        return self._g.num_components

    @property
    def window_size(self) -> int:
        """Number of unexpired stream items."""
        return self.clock.window_size
