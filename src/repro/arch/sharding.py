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

from ..redislite.server import RedisServer
from ..redislite.workload import SIZE_CLASSES, djb2
from ..suricatalite.packet import Packet
from ..suricatalite.pipeline import Pipeline
from .ports import (
    BackApp, ExecFn, FamilyService, FrontApp, RedisPort, Roles, redis_exec, suricata_exec,
)

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


_ROLES = Roles(
    front="Front", node="Fnt::junction", backs=("Back",),
    first="Choose", respond="Respond", execute="Exec", request="n", reply="m",
)


class _ShardedService(FamilyService):
    """``dsl/sharding.csaw`` over ``n_shards`` back-ends: ``Choose``
    writes the ``idx tgt`` the chooser picks."""

    def __init__(
        self,
        n_shards: int,
        choose: ChooseFn,
        make_backend: Callable[[int], object],
        exec_fn: ExecFn,
        *,
        latency: float = 100e-6,
        timeout: float = 2.0,
        seed: int = 0,
    ):
        self.n_shards = n_shards
        self.choose = choose
        self.timeout = timeout
        super().__init__(
            "sharding", _ROLES, FrontApp,
            lambda inst: BackApp(make_backend(self._index(inst))), exec_fn,
            n_backends=n_shards, latency=latency, seed=seed,
        )
        self.shard_counts = [0] * n_shards
        self._start(t=timeout)

    def _route(self, ctx, request: dict) -> None:
        shard = self.choose(request)
        self.shard_counts[shard] += 1
        ctx.set("tgt", self.backends[shard])


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
        if mode not in ("key", "size"):
            raise ValueError(f"unknown sharding mode {mode!r}")
        self._mode = mode
        self._size_table = size_table or {}
        super().__init__(
            n_shards, self._chooser(n_shards),
            lambda i: RedisServer(name=f"shard{i}", cost=cost_model), redis_exec,
            latency=latency, timeout=timeout, seed=seed,
        )

    def _chooser(self, n: int) -> ChooseFn:
        if self._mode == "key":
            return key_hash_chooser(n)
        return object_size_chooser(n, self._size_table)

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
        new_choose = self._chooser(n_shards)

        def move(sources: list[RedisServer], targets: list[RedisServer]) -> None:
            for server in sources:
                store = server.store
                for key in list(store.keys()):
                    dst = targets[new_choose(
                        {"op": "GET", "key": key, "size": store.object_size(key) or 0}
                    )]
                    if dst.store is store:
                        continue
                    value = store.get(key)
                    if value is not None:
                        dst.store.set(key, value)
                    store.delete(key)

        def switch() -> None:
            self.n_shards = n_shards
            self.choose = new_choose
            self.shard_counts = (self.shard_counts + [0] * n_shards)[:n_shards]

        return self._resize(n_shards, move, switch, quiesce_grace=quiesce_grace)


class ParallelShardedRedis(FamilyService, RedisPort):
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
        super().__init__(
            "parallel_sharding", _ROLES, FrontApp,
            lambda inst: BackApp(RedisServer(name=inst.name, cost=cost_model)),
            redis_exec, n_backends=n_backends, latency=latency, seed=seed,
        )
        self._start(t=timeout)

    def _route(self, ctx, request: dict) -> None:
        ctx.set("tgt", self.backends[: self.replicas or self.n_backends])

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

        def move(sources: list[RedisServer], targets: list[RedisServer]) -> None:
            snap = sources[0].store.snapshot()
            for server in targets[len(sources):]:
                server.store.restore(snap)

        def switch() -> None:
            self.n_backends = n_backends

        return self._resize(n_backends, move, switch, quiesce_grace=quiesce_grace)


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
        super().__init__(
            n_shards, five_tuple_chooser(n_shards), lambda i: Pipeline(), suricata_exec,
            latency=latency, timeout=timeout, seed=seed,
        )
        self._pending_batches: dict[int, list[dict]] = {i: [] for i in range(n_shards)}
        self.packets_done: list[tuple[float, int, int]] = []  # (time, shard, count)

    def feed(self, pkt: Packet) -> None:
        """Queue a packet; full batches are dispatched through the DSL."""
        shard = pkt.flow.hash() % self.n_shards
        self._pending_batches[shard].append(pkt.to_record())
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
