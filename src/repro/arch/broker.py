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
from ..runtime.system import System
from .failover import FailoverService
from .loader import BACKENDS, backend_names, load_program
from .ports import BackApp, FrontApp


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


class ShardedBroker:
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
        self._cost_model = cost_model
        self.timeout = timeout
        self.program = load_program("broker_sharded", n_backends=n_partitions)
        self.system = System(self.program, latency=latency, seed=seed)
        self.backends = backend_names(n_partitions)
        self.partition_counts = [0] * n_partitions

        sys_ = self.system
        self.front = FrontApp(sys_, "Fnt::junction")
        sys_.bind_app("Front", lambda inst: self.front)
        # the index is the back-end's position in the family of the
        # program running *now*, so back-ends added by a live
        # re-partitioning own the right partition
        sys_.bind_app("Back", lambda inst: BackApp(BrokerServer(
            name=f"partition{sys_.program.family(BACKENDS).index(inst.name)}",
            cost=cost_model,
        )))

        @sys_.host("Front", "Route")
        def _route(ctx):
            req = ctx.app.begin_next()
            if req is None:
                from ..core.errors import DslFailure

                raise DslFailure("broker front scheduled with no pending request")
            p = self.partition_of(req)
            req["partition"] = p  # the owner appends/reads its own log
            self.partition_counts[p] += 1
            ctx.set("tgt", self.backends[p])
            ctx.take(5e-6)

        @sys_.host("Front", "Deliver")
        def _deliver(ctx):
            ctx.app.respond()

        @sys_.host("Front", "Complain")
        def _complain(ctx):
            ctx.app.fail_current()

        @sys_.host("Back", "Apply")
        def _apply(ctx):
            app: BackApp = ctx.app
            if app.current is None:
                return
            server: BrokerServer = app.payload
            reply, cost = server.execute(request_from_dict(app.current), now=ctx.now)
            app.set_reply(reply_to_dict(reply))
            ctx.take(cost)

        @sys_.host("Back", "Complain")
        def _back_complain(ctx):
            pass

        sys_.bind_state(
            "Front", data_name="rec",
            save=lambda app, inst: app.current,
            restore=lambda app, inst, obj: None,
        )
        sys_.bind_state(
            "Front", data_name="ack",
            save=lambda app, inst: app.reply,
            restore=lambda app, inst, obj: app.set_reply(obj),
        )
        sys_.bind_state(
            "Back", data_name="rec",
            save=lambda app, inst: app.current,
            restore=lambda app, inst, obj: app.receive(obj),
        )
        sys_.bind_state(
            "Back", data_name="ack",
            save=lambda app, inst: app.reply,
            restore=lambda app, inst, obj: None,
        )

        sys_.start(t=timeout)

    @property
    def sim(self):
        return self.system.sim

    def backend_app(self, partition: int) -> BackApp:
        return self.system.instance(self.backends[partition]).app

    def server(self, partition: int) -> BrokerServer:
        return self.backend_app(partition).payload

    def partition_of(self, request: dict) -> int:
        """The owning partition: key hash for PUB, the carried
        partition number (mod N, so stale clients stay in range)
        otherwise."""
        if request["op"].upper() == "PUB":
            return partition_for(request["key"], self.n_partitions)
        return request.get("partition", 0) % self.n_partitions

    # -- client API ----------------------------------------------------------

    def submit(self, req: BrokerRequest, on_done: Callable[[BrokerReply], None]) -> None:
        self.front.submit(request_to_dict(req), lambda d: on_done(reply_from_dict(d)))

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

    # -- live re-partitioning ------------------------------------------------

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
        if n_partitions == self.n_partitions:
            return self.system.reconfigure(quiesce_grace=quiesce_grace)
        old_backends = list(self.backends)
        new_backends = backend_names(n_partitions)
        new_program = load_program("broker_sharded", n_backends=n_partitions)

        def transfer(system: System, removed_apps: dict) -> None:
            drained = []
            for name in old_backends:
                app = (
                    removed_apps.get(name)
                    if name in removed_apps
                    else system.instances[name].app
                )
                if app is not None:
                    records, _cost = app.payload.drain_records()
                    drained.extend(records)
                    app.payload.commits = {}
            targets = {
                name: system.instance(name).app.payload for name in new_backends
            }
            for rec in drained:
                p = partition_for(rec.key, n_partitions)
                targets[new_backends[p]].partition(p).append(rec.key, rec.value, ts=rec.ts)
            # routing switches here, inside the cutover: resume replays
            # the buffered requests before ``reconfigure`` returns, and
            # they must be routed over the partitions just rebound (a
            # rolled-back transition never reaches the transfer step)
            self.n_partitions = n_partitions
            self.backends = new_backends
            self.partition_counts = (
                self.partition_counts + [0] * n_partitions
            )[:n_partitions]

        return self.system.reconfigure(
            new_program, on_transfer=transfer, quiesce_grace=quiesce_grace
        )


class ReplicatedBroker(FailoverService):
    """brokerlite behind the fail-over front-end: every command fans
    out to all registered replicas, so each replica's partition logs
    are full copies (warm replication).  Inherits the PR 8 leader-swap
    reconfiguration (``swap_backend``) and the fault plan."""

    def __init__(self, *, cost_model=None, n_partitions: int = 4, **kw):
        self.n_partitions = n_partitions

        def make_backend(i: int) -> BrokerServer:
            return BrokerServer(name=f"replica{i}", cost=cost_model)

        def exec_fn(app: BackApp, request: dict, now: float):
            server: BrokerServer = app.payload
            reply, cost = server.execute(request_from_dict(request), now=now)
            return reply_to_dict(reply), cost

        kw.setdefault("program_name", "broker_failover")
        super().__init__(make_backend, exec_fn, **kw)

    def partition_of(self, request: dict) -> int:
        if request["op"].upper() == "PUB":
            return partition_for(request["key"], self.n_partitions)
        return request.get("partition", 0) % self.n_partitions

    def submit(self, req: BrokerRequest, on_done: Callable[[BrokerReply], None]) -> None:
        d = request_to_dict(req)
        d["partition"] = self.partition_of(d)
        self.front.submit(d, lambda r: on_done(reply_from_dict(r)))

    def preload(self, records) -> None:
        for key, value in records:
            p = partition_for(key, self.n_partitions)
            for idx in range(len(self.back_instances())):
                self.backend_app(idx).payload.partition(p).append(key, value)
