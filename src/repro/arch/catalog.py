"""The catalog: one row per shipped architecture.

:data:`~repro.arch.loader.ARCHITECTURES` names the shipped ``.csaw``
programs; :data:`CATALOG` says, once per name, how tooling gets a live
service out of it.  Everything that drives a shipped architecture is
derived from these rows — the exploration scenarios
(:mod:`repro.explore.scenarios`), the workload adapters
(:mod:`repro.workload.driver`) and, through the scenarios, every CLI
verb that takes a shipped name.

To add an architecture: put its ``.csaw`` under ``dsl/``, add the name
to ``ARCHITECTURES`` and add one row here.  A service that speaks one
of the two request protocols needs nothing else; one that does not
brings its scripted drive as a function.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from ..redislite import Command, DirectPort, RedisServer
from .broker import ReplicatedBroker, ShardedBroker
from .caching import CachedRedis
from .checkpointing import CheckpointedService
from .elastic import ElasticWorkers
from .failover import FailoverRedis, FastFailoverRedis
from .loader import ARCHITECTURES
from .migration import MigratableRedis
from .sharding import ParallelShardedRedis, ShardedRedis
from .snapshot import RemoteAuditor
from .watched import WatchedRedis


@dataclass(frozen=True)
class ArchRow:
    """How to build and drive one shipped architecture."""

    #: ``build(seed=..., **sizes)`` → the service; it exposes ``.system``
    build: Callable[..., object]
    #: the request protocol ``service.submit`` speaks: ``"redis"``
    #: (:class:`~repro.redislite.Command`), ``"broker"``
    #: (:class:`~repro.brokerlite.BrokerRequest`) or ``None``
    protocol: str | None = None
    #: constructor sizes of the exploration deployment (kept small:
    #: exploration re-runs it hundreds of times)
    explore: dict = field(default_factory=dict)
    #: constructor sizes of the workload deployment
    workload: dict = field(default_factory=dict)
    #: the ``build`` keyword that is the size of the program's ``Bck``
    #: family: what ``--config Bck=N`` sets when a verb runs this row
    backends: str | None = None
    #: ``drive(service, horizon)`` → a zero-argument observation
    #: function, or ``None``: the whole scripted exploration workload of
    #: a service that is not a request port, or what follows the
    #: protocol's request script (``migration``'s live move)
    drive: Callable | None = None
    #: logical seconds the exploration workload runs to
    horizon: float = 20.0


def _build_checkpointed(seed: int = 0) -> CheckpointedService:
    server = RedisServer()
    ref = {}
    svc = CheckpointedService(server, stall=lambda d: ref["p"].stall(d), seed=seed)
    # the stall port shares the service's engine clock instead of
    # deep-importing a Simulator of its own
    ref["p"] = DirectPort(svc.system.clock, server)
    return svc


def _drive_checkpointing(svc: CheckpointedService, horizon: float):
    """A store workload with a checkpoint in the middle."""
    system = svc.system
    svc.target.execute(Command("SET", "k", b"v"))
    svc.checkpoint_now()
    system.run_until(system.now + 5.0)
    svc.target.execute(Command("SET", "k", b"w"))
    svc.checkpoint_now()
    system.run_until(horizon)
    return lambda: {"checkpoints": svc.checkpoints}


def _drive_elastic(svc: ElasticWorkers, horizon: float):
    """Job burst, a scale-out, another burst."""
    system = svc.system
    done = []
    for _ in range(3):
        svc.submit_job(2, done.append)
    system.run_until(system.now + 8.0)
    svc.scale_out()
    system.run_until(system.now + 4.0)
    for _ in range(3):
        svc.submit_job(2, done.append)
    system.run_until(horizon)
    return lambda: {"jobs_done": len(done)}


def _drive_snapshot(aud: RemoteAuditor, horizon: float):
    """Two audited snapshot rounds."""
    system = aud.system
    released = []
    hook = aud.audit_hook()
    hook({"x": 1}, lambda: released.append(system.now))
    system.run_until(system.now + 8.0)
    hook({"x": 2}, lambda: released.append(system.now))
    system.run_until(horizon)
    return lambda: {"snapshots_released": len(released)}


def _drive_migration(svc: MigratableRedis, horizon: float) -> None:
    """After the request script: a live migration."""
    svc.migrate("NodeB")
    svc.system.run_until(svc.system.now + 10.0)


CATALOG: dict[str, ArchRow] = {
    "remote_snapshot": ArchRow(
        RemoteAuditor, explore={"placement": "cross-vm"},
        drive=_drive_snapshot, horizon=30.0,
    ),
    "sharding": ArchRow(
        ShardedRedis, "redis", explore={"n_shards": 2}, workload={"n_shards": 4},
        backends="n_shards",
    ),
    "parallel_sharding": ArchRow(
        ParallelShardedRedis, "redis", explore={"n_backends": 3},
        backends="n_backends",
    ),
    "caching": ArchRow(CachedRedis, "redis", explore={"capacity": 8}),
    "checkpointing": ArchRow(
        _build_checkpointed, drive=_drive_checkpointing, horizon=30.0
    ),
    "failover": ArchRow(
        FailoverRedis, "redis", explore={"timeout": 0.5}, workload={"timeout": 0.5}
    ),
    "failover_fast": ArchRow(
        FastFailoverRedis, "redis", explore={"timeout": 0.5}, workload={"timeout": 0.5}
    ),
    "migration": ArchRow(MigratableRedis, "redis", drive=_drive_migration),
    "elastic": ArchRow(ElasticWorkers, drive=_drive_elastic, horizon=30.0),
    "watched_failover": ArchRow(
        WatchedRedis, "redis", explore={"timeout": 0.5}, workload={"timeout": 0.5}
    ),
    "broker_sharded": ArchRow(
        ShardedBroker, "broker",
        explore={"n_partitions": 2}, workload={"n_partitions": 4},
        backends="n_partitions",
    ),
    "broker_failover": ArchRow(
        ReplicatedBroker, "broker",
        explore={"timeout": 0.5}, workload={"n_partitions": 4, "timeout": 0.5},
    ),
}

assert tuple(CATALOG) == ARCHITECTURES, "one catalog row per shipped architecture"
