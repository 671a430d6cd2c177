"""Sliding-window cut sparsifiers (Section 5.6, Theorem 5.8).

Composition of everything in the paper:

- *Connectivity estimation* [29]: ``(L+1) x K`` lazy connectivity
  structures over subsampled streams ``G_i^(j)`` (edge kept with
  probability ``2^-i``).  ``L(u, v)`` is the deepest level at which the
  endpoints stay connected in all ``K`` repetitions; ``2^L(e)`` estimates
  edge connectivity within ``O(lg n)`` (Lemma 5.2).
- *Geometric edge samples* [4]: streams ``H_0 .. H_L`` (edge kept with
  probability ``2^-i``), each retained as a sliding-window k-certificate
  ``Q_i``, which w.h.p. keeps every edge whose sampled connectivity is
  below ``k`` (Lemma 5.3).
- *Sampling rule* [25]: at query time edge ``e`` is emitted with weight
  ``2^beta(e)`` if it survives in ``Q_beta(e)``, where
  ``beta(e) = lg(1 / p_e)`` and ``p_e = min(1, c 2^-L(e) eps^-2 lg^2 n)``.

The paper's constants (``k = O(eps^-2 lg^3 n)`` etc.) make exact-constant
runs enormous; they are exposed as parameters with practical defaults, and
the theorem-faithful values are documented here (DESIGN.md, substitution
note).  Shapes -- O(n polylog n) sparsifier size, cut preservation on
test graphs -- are exercised in the test suite.
"""

from __future__ import annotations

import math
from typing import Sequence

from repro.obs.metrics import get_metrics
from repro.runtime.cost import CostModel, log2ceil, parallel_regions
from repro.runtime.hashing import splitmix64
from repro.sliding_window.base import WindowClock
from repro.sliding_window.connectivity import SWConnectivity
from repro.sliding_window.kcertificate import SWKCertificate


class SWSparsifier:
    """Sliding-window (1 +- eps) cut sparsifier.

    Args:
        n: vertex count.
        eps: target cut approximation.
        levels: sampling depth ``L`` (default ``ceil(lg n)``).
        reps: independent repetitions ``K`` for connectivity estimation
            (paper: ``O(lg n)``; default ``max(2, ceil(lg n / 2))``).
        cert_k: certificate order.  The paper uses ``O(eps^-2 lg^3 n)``;
            the default keeps the load-bearing ``eps^-2 lg^2 n`` scaling
            (``k`` must dominate the expected sampled connectivity
            ``p_e * c_e <= eps^-2 lg^2 n`` for Lemma 5.3's retention) and
            drops only the extra w.h.p. ``lg n`` factor and the constant.
        sample_const: the constant ``c`` in ``p_e`` (paper: 253; default 1
            -- with the reduced ``cert_k`` a huge ``c`` would just clamp
            every probability to 1).
    """

    def __init__(
        self,
        n: int,
        eps: float = 0.5,
        levels: int | None = None,
        reps: int | None = None,
        cert_k: int | None = None,
        sample_const: float = 1.0,
        seed: int = 0x5EED,
        cost: CostModel | None = None,
    ) -> None:
        if eps <= 0:
            raise ValueError("eps must be positive")
        self.n = n
        self.eps = eps
        self.cost = cost if cost is not None else CostModel()
        self.clock = WindowClock()
        lg_n = max(1, math.ceil(math.log2(max(n, 2))))
        self.levels = levels if levels is not None else lg_n
        self.reps = reps if reps is not None else max(2, (lg_n + 1) // 2)
        self.cert_k = (
            cert_k
            if cert_k is not None
            else max(4, math.ceil(lg_n * lg_n / (eps * eps)))
        )
        self.sample_const = sample_const
        self._seed = seed

        # Every sub-instance charges its own model; updates hit all of them
        # in parallel (the KL + L structure of Section 5.6), composed as
        # sum-work / max-span.
        self._conn: dict[tuple[int, int], SWConnectivity] = {}
        self._conn_costs: dict[tuple[int, int], CostModel] = {}
        for i in range(self.levels + 1):
            for j in range(self.reps):
                sub = CostModel(enabled=self.cost.enabled)
                self._conn_costs[(i, j)] = sub
                self._conn[(i, j)] = SWConnectivity(
                    n, seed=seed ^ (i * 1009 + j * 9176), cost=sub
                )
                if i == 0:
                    break  # G_0^(j) = G for every j; one instance suffices
        self._cert_costs = [
            CostModel(enabled=self.cost.enabled) for _ in range(self.levels + 1)
        ]
        self._certs = [
            SWKCertificate(
                n,
                k=self.cert_k,
                seed=seed ^ (0xABCD + i),
                cost=self._cert_costs[i],
            )
            for i in range(self.levels + 1)
        ]

    # -- sampling ----------------------------------------------------------

    def _in_conn_sample(self, tau: int, i: int, j: int) -> bool:
        if i == 0:
            return True
        h = splitmix64(self._seed ^ 0x51A5 ^ (tau * 0x100000001B3 + i * 131 + j))
        return h & ((1 << i) - 1) == 0

    def _in_cert_sample(self, tau: int, i: int) -> bool:
        if i == 0:
            return True
        h = splitmix64(self._seed ^ 0xBEEF ^ (tau * 0x100000001B3 + i * 733))
        return h & ((1 << i) - 1) == 0

    # -- updates -----------------------------------------------------------

    def batch_insert(self, edges: Sequence[tuple[int, int]]) -> None:
        """Insert edges into every subsampled sub-structure in parallel."""
        taus = list(self.clock.assign(len(edges)))

        def insert_conn(i, j, conn):
            sub = [
                (e, tau)
                for e, tau in zip(edges, taus)
                if self._in_conn_sample(tau, i, j)
            ]
            if sub:
                conn.batch_insert([e for e, _ in sub], taus=[t for _, t in sub])

        def insert_cert(i, cert):
            sub = [
                (e, tau)
                for e, tau in zip(edges, taus)
                if self._in_cert_sample(tau, i)
            ]
            if sub:
                cert.batch_insert([e for e, _ in sub], taus=[t for _, t in sub])

        regions = [
            (self._conn_costs[key], (lambda key=key, c=c: insert_conn(*key, c)))
            for key, c in self._conn.items()
        ] + [
            (self._cert_costs[i], (lambda i=i, c=c: insert_cert(i, c)))
            for i, c in enumerate(self._certs)
        ]
        with self.cost.phase("window-insert", items=len(edges)):
            parallel_regions(self.cost, regions)
        get_metrics().counter("sw_sparsifier.inserted").inc(len(edges))

    def batch_expire(self, delta: int) -> None:
        """Expire the ``delta`` oldest arrivals everywhere."""
        tw = self.clock.expire(delta)
        regions = [
            (self._conn_costs[key], (lambda c=c: c.expire_until(tw)))
            for key, c in self._conn.items()
        ] + [
            (self._cert_costs[i], (lambda c=c: c.expire_until(tw)))
            for i, c in enumerate(self._certs)
        ]
        with self.cost.phase("window-expire", items=delta):
            parallel_regions(self.cost, regions)

    # -- queries -----------------------------------------------------------

    def connectivity_level(self, u: int, v: int) -> int:
        """``L(u, v)``: deepest sampling level keeping the endpoints
        connected in all repetitions; ``2^L`` estimates edge connectivity
        within ``O(lg n)`` (Lemma 5.2).  ``O(lg^3 n)`` work."""
        self.cost.add(
            work=self.levels * self.reps * log2ceil(max(self.n, 2)),
            span=log2ceil(max(self.n, 2)),
        )
        level = 0
        for i in range(1, self.levels + 1):
            ok = all(
                self._conn[(i, j)].is_connected(u, v) for j in range(self.reps)
            )
            if ok:
                level = i
            else:
                break
        return level

    def is_connected(self, u: int, v: int) -> bool:
        """Window connectivity via ``G_0`` (the unsampled level, which is
        the window graph itself)."""
        return parallel_regions(
            self.cost,
            [(self._conn_costs[(0, 0)], lambda: self._conn[(0, 0)].is_connected(u, v))],
        )[0]

    def batch_is_connected(
        self, pairs: Sequence[tuple[int, int]]
    ) -> list[bool]:
        """Window connectivity for a whole pair batch off one shared
        ``batch-query`` sweep of ``G_0`` (see docs/batch_queries.md)."""
        if not pairs:
            return []
        with self.cost.phase("window-query", items=len(pairs)):
            return parallel_regions(
                self.cost,
                [
                    (
                        self._conn_costs[(0, 0)],
                        lambda: self._conn[(0, 0)].batch_is_connected(pairs),
                    )
                ],
            )[0]

    def _sample_probability(self, level: int) -> float:
        lg_n = math.log2(max(self.n, 2))
        return min(
            1.0,
            self.sample_const * (2.0**-level) * lg_n * lg_n / (self.eps * self.eps),
        )

    def sparsify(self) -> list[tuple[int, int, float]]:
        """An eps-sparsifier of the window graph w.h.p.

        Edge ``e`` (surviving in certificate ``Q_beta(e)``) is emitted with
        weight ``2^beta(e)``; ``O(n polylog n)`` work.
        """
        out: list[tuple[int, int, float]] = []
        for i, cert in enumerate(self._certs):
            for u, v, _tau in cert.make_certificate():
                p = self._sample_probability(self.connectivity_level(u, v))
                beta = min(self.levels, max(0, math.floor(-math.log2(p))))
                if beta == i:
                    out.append((u, v, float(2**beta)))
        return out

    @property
    def window_size(self) -> int:
        """Number of unexpired stream items."""
        return self.clock.window_size

    @property
    def num_instances(self) -> int:
        """Total sub-structures maintained (diagnostics / space shape)."""
        return len(self._conn) + len(self._certs)
