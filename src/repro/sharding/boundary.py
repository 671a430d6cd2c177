"""The contracted boundary graph: global answers over shard summaries.

The paper's Section 5.7 connected-components construction contracts
Gazit-style: solve locally, then solve a *small* graph whose vertices
are the local solutions.  :class:`BoundaryCoordinator` is that idea
applied across shard groups.  Each shard maintains the MSF of its own
subgraph (the edges it owns); the coordinator caches those forests and
composes three global read kinds from them:

- **Contracted connectivity.**  One super-vertex per shard-local
  component that is incident to a *boundary vertex* (a vertex touched by
  forest edges in two or more shards -- the endpoint a cut edge shares
  with its neighbour shard); for every boundary vertex, star edges unite
  its super-vertices across shards.  Union-find over this contracted
  graph -- whose size is O(#components + #boundary vertices), not
  O(n + window) -- answers ``is_connected`` and ``components`` exactly:
  a global path exists iff the contracted super-vertices connect.
- **The boundary MSF.**  The union of the shard forests contains the
  global MSF (an edge evicted from a shard-local MSF is the heaviest on
  a cycle there, hence on that same cycle globally), and weights
  ``(w, eid)`` are globally distinct, so Kruskal over the cached
  forests -- O(window) input, not the whole stream -- rebuilds the
  *identical* forest the unsharded structure maintains.  ``path_max``
  walks it; the lazy structure's ``is_connected`` applies the
  recent-edge lemma (oldest ``tau`` on the path vs. the global window
  start) to the same walk.

**Incremental refresh.**  Per-shard state (forest cache, component
labels) recomputes only when that shard's version -- the LSN its fetched
forest reflects -- advances, from the delta against the cached forest;
the contracted graph and boundary MSF rebuild lazily on the next read
after any shard moved.  A quiet shard costs nothing on refresh no matter
how busy its neighbours are.

The coordinator holds no structure locks and never sees raw stream
edges: its inputs are exactly the ``("forest",)`` summaries the
per-shard :class:`~repro.service.query.QueryService` reads return, so
every consistency policy of the read tier (tokens, bounded staleness,
catch-up) applies to the contraction inputs unchanged.
"""

from __future__ import annotations

from collections import deque
from typing import Iterable, Sequence

from repro.obs.metrics import get_metrics
from repro.runtime.cost import CostModel


class _UnionFind:
    """Small dict-keyed union-find (path halving + union by size)."""

    __slots__ = ("parent", "size")

    def __init__(self) -> None:
        self.parent: dict = {}
        self.size: dict = {}

    def find(self, x):
        parent = self.parent
        if x not in parent:
            parent[x] = x
            self.size[x] = 1
            return x
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(self, a, b) -> bool:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        if self.size[ra] < self.size[rb]:
            ra, rb = rb, ra
        self.parent[rb] = ra
        self.size[ra] += self.size[rb]
        return True


class BoundaryCoordinator:
    """Composes global reads from cached per-shard forest summaries.

    Args:
        n: the global vertex space ``0..n-1``.
        shards: number of shard groups feeding summaries.
        cost: shared :class:`CostModel`; refreshes are charged to the
            ``boundary-refresh`` phase on it.
    """

    def __init__(
        self, n: int, shards: int, cost: CostModel | None = None
    ) -> None:
        self.n = n
        self.shards = shards
        self.cost = cost if cost is not None else CostModel()
        #: shard -> {eid: (u, v, w)} -- the cached forest summaries.
        self._forests: dict[int, dict[int, tuple[int, int, float]]] = {
            k: {} for k in range(shards)
        }
        #: shard -> the LSN its cached forest reflects (-1: never fetched).
        self._versions: dict[int, int] = {k: -1 for k in range(shards)}
        #: shard -> {vertex: local component label} over touched vertices.
        self._labels: dict[int, dict[int, int]] = {k: {} for k in range(shards)}
        self._dirty = True
        # Rebuilt lazily from the caches above:
        self._cuf: _UnionFind | None = None  # contracted-graph classes
        self._node_of: dict[int, tuple] = {}  # vertex -> one contracted node
        self._touched = 0  # vertices appearing in any shard's labels
        self._adj: dict[int, list[tuple[int, float, int]]] = {}  # boundary MSF
        self._msf_edges = 0

    # -- refresh --------------------------------------------------------

    def version(self, shard: int) -> int:
        """The LSN ``shard``'s cached summary reflects (-1: none yet)."""
        return self._versions[shard]

    def update(
        self, shard: int, rows: Iterable[Sequence], version: int
    ) -> int:
        """Install ``shard``'s forest summary; returns the edge delta.

        ``rows`` is the shard's ``("forest",)`` answer --
        ``(u, v, w, eid)`` quadruples -- and ``version`` the LSN it
        reflects.  Only the changed shard's labels recompute; the global
        contraction is marked stale and rebuilds on the next read.
        """
        m = get_metrics()
        fresh = {int(r[3]): (int(r[0]), int(r[1]), float(r[2])) for r in rows}
        cached = self._forests[shard]
        delta = sum(1 for eid in fresh if eid not in cached) + sum(
            1 for eid in cached if eid not in fresh
        )
        with self.cost.phase("boundary-refresh", items=len(fresh)):
            self._versions[shard] = version
            if delta:
                self._forests[shard] = fresh
                self._labels[shard] = self._component_labels(fresh)
                self._dirty = True
        m.counter("shard.boundary_refreshes").inc()
        m.counter("shard.boundary_delta_edges").inc(delta)
        return delta

    def invalidate(self, shard: int) -> None:
        """Forget ``shard``'s version (failover may rewind its LSNs).

        The cached forest and labels stay -- they are usually still
        right -- but the next read re-fetches and re-verifies them, which
        the version check alone would skip whenever promotion discarded
        rounds and left the new durable tip *behind* the cached version.
        """
        self._versions[shard] = -1

    @staticmethod
    def _component_labels(
        forest: dict[int, tuple[int, int, float]]
    ) -> dict[int, int]:
        """``{vertex: component label}`` over one shard's forest edges.

        The label is the smallest vertex of the component -- a pure
        function of the edge set, so every replica agrees on it.
        """
        uf = _UnionFind()
        for u, v, _ in forest.values():
            uf.union(u, v)
        labels: dict[int, int] = {}
        rep_min: dict = {}
        for u, v, _ in forest.values():
            for x in (u, v):
                if x not in labels:
                    r = uf.find(x)
                    labels[x] = r
                    rep_min[r] = min(rep_min.get(r, x), x)
        return {x: rep_min[labels[x]] for x in labels}

    def _rebuild(self) -> None:
        """Recompute the contracted graph and the boundary MSF."""
        m = get_metrics()
        total = sum(len(f) for f in self._forests.values())
        with self.cost.phase("boundary-refresh", items=total):
            # Contracted connectivity: super-vertex per (shard, label),
            # star edges through every vertex shards share.
            cuf = _UnionFind()
            node_of: dict[int, tuple] = {}
            shared = 0
            for shard, labels in self._labels.items():
                for vertex, label in labels.items():
                    node = (shard, label)
                    cuf.find(node)
                    prev = node_of.get(vertex)
                    if prev is None:
                        node_of[vertex] = node
                    else:
                        shared += 1
                        cuf.union(prev, node)
            # The boundary MSF: Kruskal over the union of shard forests.
            # (w, eid) pairs are globally distinct, so this is the unique
            # global MSF -- identical to the unsharded structure's.
            rows = sorted(
                (w, eid, u, v)
                for forest in self._forests.values()
                for eid, (u, v, w) in forest.items()
            )
            muf = _UnionFind()
            adj: dict[int, list[tuple[int, float, int]]] = {}
            kept = 0
            for w, eid, u, v in rows:
                if muf.union(u, v):
                    adj.setdefault(u, []).append((v, w, eid))
                    adj.setdefault(v, []).append((u, w, eid))
                    kept += 1
            self._cuf = cuf
            self._node_of = node_of
            self._touched = len(node_of)
            self._adj = adj
            self._msf_edges = kept
            self._dirty = False
        m.counter("shard.boundary_rebuilds").inc()
        m.gauge("shard.boundary_nodes").set(len(cuf.parent))
        m.gauge("shard.boundary_shared_vertices").set(shared)
        m.gauge("shard.boundary_msf_edges").set(kept)

    def _fresh(self) -> None:
        if self._dirty:
            self._rebuild()

    # -- global reads ---------------------------------------------------

    def connected(self, u: int, v: int) -> bool:
        """Global connectivity over the contracted graph (eager shards)."""
        if u == v:
            return True
        self._fresh()
        nu = self._node_of.get(u)
        nv = self._node_of.get(v)
        if nu is None or nv is None:
            return False  # an untouched vertex is its own component
        assert self._cuf is not None
        return self._cuf.find(nu) == self._cuf.find(nv)

    def components(self) -> int:
        """Global component count: contracted classes + isolated vertices."""
        self._fresh()
        assert self._cuf is not None
        classes = {self._cuf.find(node) for node in self._cuf.parent}
        return len(classes) + (self.n - self._touched)

    def path_max(self, u: int, v: int) -> tuple[float, int] | None:
        """Heaviest ``(weight, eid)`` on the boundary-MSF path ``u--v``.

        Exactly the unsharded structure's ``heaviest_edge`` answer:
        ``None`` for ``u == v`` or a disconnected pair.  O(component)
        via a breadth-first walk of the cached forest -- the coordinator
        trades the per-shard structures' O(lg n) path queries for
        zero-copy composition over the O(window)-size summary.
        """
        if u == v:
            return None
        self._fresh()
        if u not in self._adj or v not in self._adj:
            return None
        parent: dict[int, tuple[int, float, int]] = {u: (u, 0.0, -1)}
        frontier = deque([u])
        while frontier:
            x = frontier.popleft()
            if x == v:
                break
            for y, w, eid in self._adj[x]:
                if y not in parent:
                    parent[y] = (x, w, eid)
                    frontier.append(y)
        if v not in parent:
            return None
        best: tuple[float, int] | None = None
        x = v
        while x != u:
            x, w, eid = parent[x]
            if best is None or (w, eid) > best:
                best = (w, eid)
        return best

    def connected_lazy(self, u: int, v: int, window_start: int) -> bool:
        """Lazy-structure connectivity: the recent-edge lemma over the
        boundary MSF -- the path's oldest ``tau`` (its heaviest edge's
        ``eid``) must be unexpired at the global ``window_start``."""
        if u == v:
            return True
        h = self.path_max(u, v)
        return h is not None and h[1] >= window_start

    def describe(self) -> dict:
        """JSON-ready coordinator state summary (health endpoint)."""
        self._fresh()
        assert self._cuf is not None
        return {
            "nodes": len(self._cuf.parent),
            "msf_edges": self._msf_edges,
            "touched_vertices": self._touched,
            "versions": [self._versions[k] for k in range(self.shards)],
        }
