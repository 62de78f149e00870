"""Direct (non-DSL) re-architecting — the Table 2 control arm.

These modules implement checkpointing, sharding and caching straight
against the substrate APIs with a hand-rolled messaging layer, to
measure the effort the DSL saves.  They are real, tested
implementations — the paper developed its ``Redis(C)`` control "without
knowledge of the DSL, as a control experiment".  Evaluation code, not
part of the shipped ``repro`` package; :mod:`.loc` counts it for Table 2.
"""

from .broker import DirectShardedBroker
from .caching import DirectCachedRedis
from .checkpointing import DirectCheckpointManager
from .elastic import DirectElasticWorkers
from .failover import DirectFailoverRedis
from .messaging import Endpoint, Envelope, MessageBus
from .migration import DirectMigratableRedis
from .schemas import redis_entry_schema, suricata_packet_schema
from .sharding import DirectShardedRedis
from .snapshot import DirectRemoteAuditor

__all__ = [
    "DirectCachedRedis",
    "DirectCheckpointManager",
    "DirectElasticWorkers",
    "DirectFailoverRedis",
    "DirectMigratableRedis",
    "DirectRemoteAuditor",
    "DirectShardedBroker",
    "DirectShardedRedis",
    "Endpoint",
    "Envelope",
    "MessageBus",
    "redis_entry_schema",
    "suricata_packet_schema",
]
