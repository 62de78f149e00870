"""Direct (non-DSL) sharding: the control arm of Table 2.

A router endpoint hashes keys (djb2) or 5-tuples and forwards each
command to one of N shard endpoints over the hand-rolled message bus,
correlating replies back to clients, handling shard timeouts, and
tracking per-shard health — all logic the DSL version gets from ~40
lines of architecture description.
"""

from __future__ import annotations

from typing import Callable

from repro.redislite.bench import RequestPort
from repro.redislite.server import Command, RedisServer, Reply
from repro.redislite.workload import SIZE_CLASSES, djb2
from repro.runtime.sim import Simulator
from .messaging import Envelope, MessageBus


class DirectShardedRedis:
    """Key- or size-sharded Redis without the DSL (RequestPort)."""

    def __init__(
        self,
        sim: Simulator,
        n_shards: int = 4,
        *,
        mode: str = "key",
        size_table: dict[str, int] | None = None,
        cost_model=None,
        latency: float = 100e-6,
        timeout: float = 2.0,
    ):
        self.sim = sim
        self.n_shards = n_shards
        self.mode = mode
        self.size_table = size_table or {}
        self.timeout = timeout
        self.bus = MessageBus(sim, latency)
        self.router = self.bus.endpoint("router")
        self.servers: list[RedisServer] = []
        self.shard_counts = [0] * n_shards
        self.healthy = [True] * n_shards
        self.failed_requests = 0
        self._busy_until = [0.0] * n_shards

        for i in range(n_shards):
            server = RedisServer(name=f"dshard{i}", cost=cost_model)
            self.servers.append(server)
            ep = self.bus.endpoint(f"shard{i}")
            ep.on("exec", self._make_exec(i, server))

    def _make_exec(self, idx: int, server: RedisServer):
        def handler(env: Envelope):
            op, key, value = env.body[1]
            reply, cost = server.execute(Command(op, key, value), now=self.sim.now)
            # model the shard's serial service time
            self._busy_until[idx] = max(self._busy_until[idx], self.sim.now) + cost
            return {"ok": reply.ok, "value": reply.value, "hit": reply.hit}

        return handler

    def _choose(self, cmd: Command) -> int:
        if self.mode == "key":
            return djb2(cmd.key) % self.n_shards
        size = self.size_table.get(cmd.key, len(cmd.value))
        for i, (lo, hi) in enumerate(SIZE_CLASSES):
            if lo < size <= hi:
                return i % self.n_shards
        return len(SIZE_CLASSES) % self.n_shards

    # -- RequestPort --------------------------------------------------------

    def submit(self, cmd: Command, on_done: Callable[[Reply], None]) -> None:
        shard = self._choose(cmd)
        self.shard_counts[shard] += 1

        def on_reply(body: object):
            self.healthy[shard] = True
            if isinstance(body, dict):
                on_done(Reply(ok=body["ok"], value=body["value"], hit=body["hit"]))
            else:
                on_done(Reply(ok=False))

        def on_timeout():
            self.healthy[shard] = False
            self.failed_requests += 1
            on_done(Reply(ok=False))

        self.router.request(
            f"shard{shard}",
            "exec",
            (cmd.op, cmd.key, cmd.value),
            on_reply,
            timeout=self.timeout,
            on_timeout=on_timeout,
            retries=1,
        )

    def preload(self, commands) -> None:
        for cmd in commands:
            self.servers[self._choose(cmd)].execute(cmd, now=0.0)

    def shard_sizes(self) -> list[int]:
        return [s.store.size() for s in self.servers]
