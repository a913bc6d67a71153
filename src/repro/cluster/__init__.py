"""repro.cluster: multi-process sharded serving of weighted queries.

The scale-out tier above :mod:`repro.serve`: one structure's domain is
partitioned by **Gaifman components** into shared-nothing shards
(:func:`shard_structure`).  Each shard is a plain
:class:`~repro.api.Database` in its own worker *process*
(:mod:`repro.cluster.worker`), built from the serving handle's
``ExecOptions`` and reached over a pipe of tagged-JSON frames — the
plan serializer's codec plus a mapping tag
(:mod:`repro.cluster.protocol`).  An asyncio-native gateway
(:class:`ClusterService`) routes point queries and group keys to their
owning shards, fans closed queries out and folds the partial
aggregates with the semiring ``⊕`` — exact by the disjoint-union
identity, never approximate.  Admission control (:class:`Overloaded`),
request deadlines with cancellation, and worker respawn with
plan-store warm restart are part of the serving contract.

Reach it through :meth:`repro.api.Database.serve_sharded`; the pieces
are exported here for tests and direct embedding.
"""

from .gateway import ClusterService, validate_admission
from .protocol import (ClusterCodecError, ClusterError, Overloaded,
                       ShardingError, WorkerCrashed, check_wire_roundtrip,
                       decode_value, encode_value)
from .sharding import (ShardPlan, check_shardable, connected_components,
                       shard_structure, validate_shard_policy)

__all__ = [
    "ClusterService",
    "ClusterCodecError",
    "ClusterError",
    "Overloaded",
    "ShardingError",
    "WorkerCrashed",
    "check_wire_roundtrip",
    "decode_value",
    "encode_value",
    "ShardPlan",
    "check_shardable",
    "connected_components",
    "shard_structure",
    "validate_admission",
    "validate_shard_policy",
]
