"""The sharding architecture applied to redislite and suricatalite.

Builds a :class:`~repro.runtime.system.System` over
``dsl/sharding.csaw`` with ``N`` back-end instances and wires the host
blocks:

* ``Choose`` — the host-language choice function of Fig. 5, writing the
  ``idx tgt``: by djb2 key hash, by quantized object size (the paper's
  0–4 KB / 4–64 KB / >64 KB classes), or by 5-tuple hash for packets;
* ``Exec`` — runs the request on the back-end substrate and charges the
  simulator the substrate's service cost;
* ``Respond``/``Complain`` — complete or fail the client request.

:class:`ShardedRedis` satisfies the redislite ``RequestPort`` protocol,
so ``redis-benchmark``-style drivers run unchanged against it.
:class:`ShardedSuricata` steers packet *batches* to back-end pipelines.
"""

from __future__ import annotations

from typing import Callable

from ..redislite.server import Command, RedisServer
from ..redislite.workload import SIZE_CLASSES, djb2
from ..runtime.system import System
from ..suricatalite.packet import Packet
from ..suricatalite.pipeline import Pipeline
from .loader import BACKENDS, backend_names, load_program
from .ports import BackApp, FrontApp, RedisPort

#: choose function signature: request dict -> shard index (0-based)
ChooseFn = Callable[[dict], int]


def key_hash_chooser(n: int) -> ChooseFn:
    """Shard by djb2 hash of the key (sec. 10.1, Fig. 23b)."""

    def choose(request: dict) -> int:
        return djb2(request["key"]) % n

    return choose


def object_size_chooser(n: int, size_table: dict[str, int]) -> ChooseFn:
    """Shard by quantized object size (sec. 5.2, Fig. 26c).

    ``size_table`` is the paper's "custom table that maps keys to
    object sizes"; sizes quantize into the three classes, spread over
    ``n`` shards round-robin by class (class i -> shard i % n).
    """

    def size_class(size: int) -> int:
        for i, (lo, hi) in enumerate(SIZE_CLASSES):
            if lo < size <= hi:
                return i
        return len(SIZE_CLASSES)  # > last boundary

    def choose(request: dict) -> int:
        size = size_table.get(request["key"], request.get("size", 0))
        return size_class(size) % n

    return choose


def five_tuple_chooser(n: int) -> ChooseFn:
    """Shard packet batches by the flow 5-tuple hash (Fig. 24b)."""

    def choose(request: dict) -> int:
        return request["flow_hash"] % n

    return choose


class _ShardedService:
    """Common assembly for sharded services."""

    def __init__(
        self,
        n_shards: int,
        choose: ChooseFn,
        make_backend: Callable[[int], object],
        exec_fn: Callable[[BackApp, dict, float], tuple[dict, float]],
        *,
        latency: float = 100e-6,
        timeout: float = 2.0,
        seed: int = 0,
    ):
        self.n_shards = n_shards
        self.choose = choose
        self.exec_fn = exec_fn
        self.timeout = timeout
        self.program = load_program("sharding", n_backends=n_shards)
        self.system = System(self.program, latency=latency, seed=seed)
        self.backends = backend_names(n_shards)
        self.shard_counts = [0] * n_shards

        sys_ = self.system
        self.front = FrontApp(sys_, "Fnt::junction")
        sys_.bind_app("Front", lambda inst: self.front)
        # the index is the back-end's position in the family of the
        # program running *now*, so backends added by a live
        # reconfiguration get the right shard number
        sys_.bind_app("Back", lambda inst, mk=make_backend: BackApp(
            mk(sys_.program.family(BACKENDS).index(inst.name))
        ))

        @sys_.host("Front", "Choose")
        def _choose(ctx):
            req = ctx.app.begin_next()
            if req is None:
                # a stale Req with an empty queue; fail this scheduling
                from ..core.errors import DslFailure

                raise DslFailure("front-end scheduled with no pending request")
            shard = self.choose(req)
            self.shard_counts[shard] += 1
            ctx.set("tgt", self.backends[shard])
            ctx.take(5e-6)

        @sys_.host("Front", "Respond")
        def _respond(ctx):
            ctx.app.respond()

        @sys_.host("Front", "Complain")
        def _complain(ctx):
            ctx.app.fail_current()

        @sys_.host("Back", "Exec")
        def _exec(ctx):
            app: BackApp = ctx.app
            if app.current is None:
                return
            reply, cost = self.exec_fn(app, app.current, ctx.now)
            app.set_reply(reply)
            ctx.take(cost)

        @sys_.host("Back", "Complain")
        def _back_complain(ctx):
            pass

        sys_.bind_state(
            "Front", data_name="n",
            save=lambda app, inst: app.current,
            restore=lambda app, inst, obj: None,
        )
        sys_.bind_state(
            "Front", data_name="m",
            save=lambda app, inst: app.reply,
            restore=lambda app, inst, obj: app.set_reply(obj),
        )
        sys_.bind_state(
            "Back", data_name="n",
            save=lambda app, inst: app.current,
            restore=lambda app, inst, obj: app.receive(obj),
        )
        sys_.bind_state(
            "Back", data_name="m",
            save=lambda app, inst: app.reply,
            restore=lambda app, inst, obj: None,
        )

        sys_.start(t=timeout)

    @property
    def sim(self):
        return self.system.sim

    def backend_app(self, shard: int) -> BackApp:
        return self.system.instance(self.backends[shard]).app


class ShardedRedis(_ShardedService, RedisPort):
    """Redis sharded over N back-end instances (RequestPort)."""

    def __init__(
        self,
        n_shards: int = 4,
        *,
        mode: str = "key",  # 'key' | 'size'
        size_table: dict[str, int] | None = None,
        cost_model=None,
        latency: float = 100e-6,
        timeout: float = 2.0,
        seed: int = 0,
    ):
        self._mode = mode
        self._size_table = size_table or {}
        self._cost_model = cost_model
        if mode == "key":
            choose = key_hash_chooser(n_shards)
        elif mode == "size":
            choose = object_size_chooser(n_shards, self._size_table)
        else:
            raise ValueError(f"unknown sharding mode {mode!r}")

        def make_backend(i: int) -> RedisServer:
            return RedisServer(name=f"shard{i}", cost=cost_model)

        def exec_fn(app: BackApp, request: dict, now: float):
            server: RedisServer = app.payload
            cmd = Command(request["op"], request["key"], request.get("value", b""))
            reply, cost = server.execute(cmd, now=now)
            return (
                {"ok": reply.ok, "value": reply.value, "hit": reply.hit},
                cost,
            )

        super().__init__(
            n_shards, choose, make_backend, exec_fn,
            latency=latency, timeout=timeout, seed=seed,
        )

    def preload(self, commands) -> None:
        """Load the dataset directly into the right shards (unmeasured)."""
        for cmd in commands:
            shard = self.choose({"op": cmd.op, "key": cmd.key, "value": cmd.value,
                                 "size": len(cmd.value)})
            server: RedisServer = self.backend_app(shard).payload
            server.execute(cmd, now=0.0)

    def shard_sizes(self) -> list[int]:
        return [self.backend_app(i).payload.store.size() for i in range(self.n_shards)]

    def reconfigure_shards(self, n_shards: int, *, quiesce_grace: float = 5.0):
        """Live-reshard to ``n_shards`` back-ends with zero dropped
        requests: backends are added/removed through a reconfiguration
        transition, and the state-transfer step re-places every stored
        entry under the new chooser (exactly where a fresh ``n_shards``
        deployment would have put it).  Returns the
        :class:`~repro.reconfig.ReconfigReport`."""
        if n_shards == self.n_shards:
            return self.system.reconfigure(quiesce_grace=quiesce_grace)
        old_backends = list(self.backends)
        new_backends = backend_names(n_shards)
        new_program = load_program("sharding", n_backends=n_shards)
        if self._mode == "key":
            new_choose = key_hash_chooser(n_shards)
        else:
            new_choose = object_size_chooser(n_shards, self._size_table)

        def transfer(system: System, removed_apps: dict) -> None:
            sources: list[RedisServer] = []
            for name in old_backends:
                app = (
                    removed_apps.get(name)
                    if name in removed_apps
                    else system.instances[name].app
                )
                if app is not None:
                    sources.append(app.payload)
            targets = {
                name: system.instance(name).app.payload for name in new_backends
            }
            for i, server in enumerate(sources):
                store = server.store
                for key in list(store.keys()):
                    idx = new_choose(
                        {"op": "GET", "key": key, "size": store.object_size(key) or 0}
                    )
                    dst = targets[new_backends[idx]]
                    if dst.store is store:
                        continue
                    value = store.get(key)
                    if value is not None:
                        dst.store.set(key, value)
                    store.delete(key)
            # routing switches here, inside the cutover: resume replays
            # the buffered requests before ``reconfigure`` returns, and
            # they must be chosen for the back-end set just rebound (a
            # rolled-back transition never reaches the transfer step)
            self.n_shards = n_shards
            self.backends = new_backends
            self.choose = new_choose
            self.shard_counts = (self.shard_counts + [0] * n_shards)[:n_shards]

        return self.system.reconfigure(
            new_program, on_transfer=transfer, quiesce_grace=quiesce_grace
        )


class ParallelShardedRedis(RedisPort):
    """Fig. 6 (sec. 7.1): the front engages a host-chosen *subset* of
    back-ends in parallel — warm replication for availability.

    ``replicas`` controls how many back-ends each request targets
    (``None`` = all, the availability configuration).  Satisfies the
    redislite ``RequestPort`` protocol.
    """

    def __init__(
        self,
        n_backends: int = 3,
        *,
        replicas: int | None = None,
        cost_model=None,
        latency: float = 100e-6,
        timeout: float = 0.5,
        seed: int = 0,
    ):
        self.n_backends = n_backends
        self.replicas = replicas
        self.program = load_program("parallel_sharding", n_backends=n_backends)
        self.system = System(self.program, latency=latency, seed=seed)
        self.backends = backend_names(n_backends)
        sys_ = self.system

        self.front = FrontApp(sys_, "Fnt::junction")
        sys_.bind_app("Front", lambda inst: self.front)
        sys_.bind_app(
            "Back",
            lambda inst: BackApp(RedisServer(name=inst.name, cost=cost_model)),
        )

        @sys_.host("Front", "Choose")
        def _choose(ctx):
            req = ctx.app.begin_next()
            if req is None:
                from ..core.errors import DslFailure

                raise DslFailure("parallel front scheduled with no request")
            k = self.replicas or self.n_backends
            chosen = self.backends[:k]
            ctx.set("tgt", chosen)
            ctx.take(5e-6)

        @sys_.host("Front", "Respond")
        def _respond(ctx):
            ctx.app.respond()

        @sys_.host("Front", "Complain")
        def _complain(ctx):
            ctx.app.fail_current()

        @sys_.host("Back", "Exec")
        def _exec(ctx):
            app: BackApp = ctx.app
            if app.current is None:
                return
            req = app.current
            server: RedisServer = app.payload
            cmd = Command(req["op"], req["key"], req.get("value", b""))
            reply, cost = server.execute(cmd, now=ctx.now)
            app.set_reply({"ok": reply.ok, "value": reply.value, "hit": reply.hit})
            ctx.take(cost)

        @sys_.host("Back", "Complain")
        def _back_complain(ctx):
            pass

        sys_.bind_state(
            "Front", data_name="n",
            save=lambda app, inst: app.current,
            restore=lambda app, inst, obj: None,
        )
        sys_.bind_state(
            "Front", data_name="m",
            save=lambda app, inst: app.reply,
            restore=lambda app, inst, obj: app.set_reply(obj),
        )
        sys_.bind_state(
            "Back", data_name="n",
            save=lambda app, inst: app.current,
            restore=lambda app, inst, obj: app.receive(obj),
        )
        sys_.bind_state(
            "Back", data_name="m",
            save=lambda app, inst: app.reply,
            restore=lambda app, inst, obj: None,
        )

        sys_.start(t=timeout)

    @property
    def sim(self):
        return self.system.sim

    def backend_app(self, i: int) -> BackApp:
        return self.system.instance(self.backends[i]).app

    def active_backends(self) -> list[str]:
        return [
            b
            for b in self.backends
            if self.system.read_state("Fnt::junction", f"ActiveBackend[{b}]") is True
        ]

    def preload(self, commands) -> None:
        for cmd in commands:
            for i in range(self.n_backends):
                self.backend_app(i).payload.execute(cmd, now=0.0)

    def reconfigure_backends(self, n_backends: int, *, quiesce_grace: float = 5.0):
        """Live-resize the warm-replica pool; newly added back-ends get
        a full replica copy in the state-transfer step."""
        if n_backends == self.n_backends:
            return self.system.reconfigure(quiesce_grace=quiesce_grace)
        old_backends = list(self.backends)
        new_backends = backend_names(n_backends)
        new_program = load_program("parallel_sharding", n_backends=n_backends)

        def transfer(system: System, removed_apps: dict) -> None:
            src = None
            for name in old_backends:
                if name in new_backends and name in system.instances:
                    app = system.instances[name].app
                    if app is not None:
                        src = app.payload
                        break
            if src is not None:
                snap = src.store.snapshot()
                for name in new_backends:
                    if name not in old_backends:
                        system.instance(name).app.payload.store.restore(snap)
            # the replica set switches inside the cutover, before resume
            # replays buffered requests (see ``reconfigure_shards``)
            self.n_backends = n_backends
            self.backends = new_backends

        return self.system.reconfigure(
            new_program, on_transfer=transfer, quiesce_grace=quiesce_grace
        )


class ShardedSuricata(_ShardedService):
    """Suricata packet steering: batches of packets sharded by 5-tuple.

    The paper steers individual packets; we batch (``batch_size``
    packets of the same shard per junction round) so the simulation
    stays tractable — the steering decision is still per-5-tuple.
    """

    def __init__(
        self,
        n_shards: int = 4,
        *,
        latency: float = 100e-6,
        timeout: float = 2.0,
        seed: int = 0,
        batch_size: int = 200,
    ):
        self.batch_size = batch_size

        def make_backend(i: int) -> Pipeline:
            return Pipeline()

        def exec_fn(app: BackApp, request: dict, now: float):
            from ..suricatalite.packet import FiveTuple

            pipeline: Pipeline = app.payload
            cost = 0.0
            alerts = 0
            for pkt_rec in request["packets"]:
                f = pkt_rec["flow"]
                pkt = Packet(
                    ts=now,
                    flow=FiveTuple(f[0], f[1], int(f[2]), int(f[3]), f[4]),
                    size=pkt_rec["size"],
                    payload=pkt_rec.get("payload", b""),
                    app=pkt_rec.get("app", "unknown"),
                )
                before = len(pipeline.ctx.alerts)
                cost += pipeline.process(pkt)
                alerts += len(pipeline.ctx.alerts) - before
            return ({"processed": len(request["packets"]), "alerts": alerts}, cost)

        super().__init__(
            n_shards, five_tuple_chooser(n_shards), make_backend, exec_fn,
            latency=latency, timeout=timeout, seed=seed,
        )
        self._pending_batches: dict[int, list[dict]] = {i: [] for i in range(n_shards)}
        self.packets_done: list[tuple[float, int, int]] = []  # (time, shard, count)

    def feed(self, pkt: Packet) -> None:
        """Queue a packet; full batches are dispatched through the DSL."""
        shard = pkt.flow.hash() % self.n_shards
        f = pkt.flow
        rec = {
            "flow": (f.src_ip, f.dst_ip, f.src_port, f.dst_port, f.proto),
            "size": pkt.size,
            "payload": pkt.payload,
            "app": pkt.app,
        }
        self._pending_batches[shard].append(rec)
        if len(self._pending_batches[shard]) >= self.batch_size:
            self.flush_shard(shard)

    def flush_shard(self, shard: int) -> None:
        batch = self._pending_batches[shard]
        if not batch:
            return
        self._pending_batches[shard] = []
        request = {"packets": batch, "flow_hash": shard, "count": len(batch)}

        def done(reply: dict | None, _shard=shard, _n=len(batch)):
            self.packets_done.append((self.sim.now, _shard, _n if reply else 0))

        self.front.submit(request, done)

    def flush_all(self) -> None:
        for shard in range(self.n_shards):
            self.flush_shard(shard)
