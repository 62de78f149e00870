"""The broker architectures: brokerlite behind the DSL.

Two deployments of the :mod:`~repro.brokerlite` substrate:

* :class:`ShardedBroker` — ``dsl/broker_sharded.csaw``: the partitioned
  log spread across ``N`` back-end instances, one partition per
  instance.  ``Route`` picks the owner (djb2 of the key for ``PUB``,
  the explicit partition number for the offset-addressed commands),
  ``Apply`` executes the command on the owner's log, ``Deliver``
  completes the client request.  ``reconfigure_partitions`` changes the
  partition count through a live reconfiguration with zero dropped
  requests.

* :class:`ReplicatedBroker` — ``dsl/broker_failover.csaw``: warm log
  replicas behind the sec. 7.3 fail-over front-end.  Every command
  (including every publish) fans out to all registered replicas, so
  each holds a full copy of the log; the PR 8 leader-swap
  reconfiguration (``swap_backend``) retires a replica live.

Both speak dict-shaped requests/replies on the wire (serde-safe across
the tcp and cluster transports); :func:`request_to_dict` /
:func:`reply_from_dict` convert to the substrate's dataclasses.
"""

from __future__ import annotations

from typing import Callable

from ..brokerlite import BrokerReply, BrokerRequest, BrokerServer, partition_for
from .failover import FailoverService
from .ports import BackApp, FamilyService, FrontApp, Roles


def request_to_dict(req: BrokerRequest) -> dict:
    return {
        "op": req.op,
        "partition": req.partition,
        "key": req.key,
        "value": req.value,
        "offset": req.offset,
        "max": req.max_records,
        "group": req.group,
    }


def request_from_dict(d: dict) -> BrokerRequest:
    return BrokerRequest(
        op=d["op"],
        partition=d.get("partition", 0),
        key=d.get("key", ""),
        value=d.get("value", b""),
        offset=d.get("offset", 0),
        max_records=d.get("max", 64),
        group=d.get("group", ""),
    )


def reply_to_dict(reply: BrokerReply) -> dict:
    return {
        "ok": reply.ok,
        "offset": reply.offset,
        "records": reply.records,
        "high_water": reply.high_water,
    }


def reply_from_dict(d: dict | None) -> BrokerReply:
    if d is None:
        return BrokerReply(ok=False)
    return BrokerReply(
        ok=d["ok"],
        offset=d.get("offset"),
        records=d.get("records"),
        high_water=d.get("high_water"),
    )


def broker_exec(app: BackApp, request: dict, now: float) -> tuple[dict, float]:
    """The ``exec_fn`` of a back-end whose payload is a ``BrokerServer``."""
    reply, cost = app.payload.execute(request_from_dict(request), now=now)
    return reply_to_dict(reply), cost


class BrokerPort:
    """The client side of a broker service over ``n_partitions``
    partitions whose ``front`` is a :class:`FrontApp`."""

    front: FrontApp
    n_partitions: int

    def partition_of(self, request: dict) -> int:
        """The owning partition: key hash for PUB, the carried
        partition number (mod N, so stale clients stay in range)
        otherwise."""
        if request["op"].upper() == "PUB":
            return partition_for(request["key"], self.n_partitions)
        return request.get("partition", 0) % self.n_partitions

    def submit(self, req: BrokerRequest, on_done: Callable[[BrokerReply], None]) -> None:
        self.front.submit(request_to_dict(req), lambda d: on_done(reply_from_dict(d)))


_SHARDED_ROLES = Roles(
    front="Front", node="Fnt::junction", backs=("Back",),
    first="Route", respond="Deliver", execute="Apply", request="rec", reply="ack",
)


class ShardedBroker(FamilyService, BrokerPort):
    """brokerlite partitioned over N back-end instances.

    Partition ``i`` lives on back-end instance ``i`` (``Bck{i+1}``);
    ``PUB`` routes by key hash, the offset-addressed commands carry
    their partition number.
    """

    def __init__(
        self,
        n_partitions: int = 4,
        *,
        cost_model=None,
        latency: float = 100e-6,
        timeout: float = 2.0,
        seed: int = 0,
    ):
        self.n_partitions = n_partitions
        self.timeout = timeout
        super().__init__(
            "broker_sharded", _SHARDED_ROLES, FrontApp,
            lambda inst: BackApp(
                BrokerServer(name=f"partition{self._index(inst)}", cost=cost_model)
            ),
            broker_exec, n_backends=n_partitions, latency=latency, seed=seed,
        )
        self.partition_counts = [0] * n_partitions
        self._start(t=timeout)

    def _route(self, ctx, request: dict) -> None:
        p = self.partition_of(request)
        request["partition"] = p  # the owner appends/reads its own log
        self.partition_counts[p] += 1
        ctx.set("tgt", self.backends[p])

    def server(self, partition: int) -> BrokerServer:
        return self.backend_app(partition).payload

    def publish(self, key: str, value: bytes, on_done: Callable[[BrokerReply], None]) -> None:
        self.submit(BrokerRequest(op="PUB", partition=0, key=key, value=value), on_done)

    def preload(self, records) -> None:
        """Append (key, value) pairs directly to the owning partitions
        (unmeasured), e.g. a dataset loaded before the drive starts."""
        for key, value in records:
            p = partition_for(key, self.n_partitions)
            self.server(p).partition(p).append(key, value)

    def partition_sizes(self) -> list[int]:
        return [self.server(i).partition(i).size() for i in range(self.n_partitions)]

    def records_stored(self) -> int:
        return sum(self.partition_sizes())

    def reconfigure_partitions(self, n_partitions: int, *, quiesce_grace: float = 5.0):
        """Change the partition count through a live reconfiguration
        with zero dropped requests.  The state-transfer step drains
        every record (old partition order, offset order within a
        partition — so per-key order is preserved, since a key lives in
        exactly one old partition) and re-appends under the new
        ``partition_for``; offsets are reassigned.  Consumer-group
        commits do not survive a re-partition (offsets are
        partition-local and the partitions changed): groups restart
        from offset 0, i.e. re-partitioning downgrades consumption to
        at-least-once — the reason real brokers forbid shrinking
        partition counts.  Returns the
        :class:`~repro.reconfig.ReconfigReport`."""

        def move(sources: list[BrokerServer], targets: list[BrokerServer]) -> None:
            drained = []
            for server in sources:
                records, _cost = server.drain_records()
                drained.extend(records)
                server.commits = {}
            for rec in drained:
                p = partition_for(rec.key, n_partitions)
                targets[p].partition(p).append(rec.key, rec.value, ts=rec.ts)

        def switch() -> None:
            self.n_partitions = n_partitions
            self.partition_counts = (
                self.partition_counts + [0] * n_partitions
            )[:n_partitions]

        return self._resize(n_partitions, move, switch, quiesce_grace=quiesce_grace)


class ReplicatedBroker(FailoverService, BrokerPort):
    """brokerlite behind the fail-over front-end: every command fans
    out to all registered replicas, so each replica's partition logs
    are full copies (warm replication).  Inherits the PR 8 leader-swap
    reconfiguration (``swap_backend``) and the fault plan."""

    def __init__(self, *, cost_model=None, n_partitions: int = 4, **kw):
        self.n_partitions = n_partitions
        kw.setdefault("program_name", "broker_failover")
        super().__init__(
            lambda i: BrokerServer(name=f"replica{i}", cost=cost_model), broker_exec, **kw
        )

    def _route(self, ctx, request: dict) -> None:
        request["partition"] = self.partition_of(request)

    def preload(self, records) -> None:
        for key, value in records:
            p = partition_for(key, self.n_partitions)
            for b in self.back_instances():
                self.system.instance(b).app.payload.partition(p).append(key, value)
