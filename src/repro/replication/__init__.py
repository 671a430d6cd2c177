"""Primary/follower replication over the durable service layer.

The write path of :mod:`repro.service` already externalizes every state
transition as a WAL round; replication reuses that log as the shipping
protocol.  :class:`~repro.replication.replicated.ReplicatedService` runs
one ingesting primary and N in-process
:class:`~repro.replication.follower.Follower` replicas that bootstrap
from the newest checkpoint and tail the WAL from their LSN, replaying
rounds through the primary's own apply path -- so a caught-up replica is
byte-identical to the primary.  Failover is
``promote()``: a monotone *epoch* stamped into every WAL record fences
the old primary, whose post-promotion appends are rejected on replay.

Reads are served by :class:`~repro.service.query.QueryService`, which
routes query batches to the least-lagged replica under LSN-token
consistency.  See ``docs/replication.md``.
"""

from repro.replication.follower import Follower, FollowerDead
from repro.replication.replicated import ReplicatedService

__all__ = ["Follower", "FollowerDead", "ReplicatedService"]
