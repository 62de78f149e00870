"""Direct (non-DSL) caching: the control arm of Table 2.

A caching proxy endpoint classifies commands, probes its LRU, forwards
misses to the server endpoint, installs fresh values, invalidates on
writes, and correlates concurrent in-flight misses (collapsing
duplicate look-ups for the same key) — concurrency bookkeeping the DSL
version inherits from junction scheduling.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Callable

from repro.redislite.server import Command, RedisServer, Reply
from repro.runtime.sim import Simulator
from .messaging import Envelope, MessageBus


class DirectCachedRedis:
    """Redis behind a hand-rolled caching proxy (RequestPort)."""

    def __init__(
        self,
        sim: Simulator,
        *,
        capacity: int = 128,
        cost_model=None,
        latency: float = 100e-6,
        timeout: float = 2.0,
        lookup_cost: float = 5e-6,
    ):
        self.sim = sim
        self.timeout = timeout
        self.lookup_cost = lookup_cost
        self.bus = MessageBus(sim, latency)
        self.proxy = self.bus.endpoint("proxy")
        self.backend = self.bus.endpoint("backend")
        self.server = RedisServer(name="dcache-fun", cost=cost_model)
        self.capacity = capacity
        self._cache: OrderedDict[str, bytes] = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.failed_requests = 0
        #: collapse concurrent misses on the same key
        self._inflight: dict[str, list[Callable[[Reply], None]]] = {}

        def exec_handler(env: Envelope):
            _topic, (op, key, value) = env.body
            reply, _cost = self.server.execute(Command(op, key, value), now=self.sim.now)
            return {"ok": reply.ok, "value": reply.value, "hit": reply.hit}

        self.backend.on("exec", exec_handler)

    # -- cache ops ----------------------------------------------------------

    def _cache_get(self, key: str) -> bytes | None:
        if key in self._cache:
            self._cache.move_to_end(key)
            return self._cache[key]
        return None

    def _cache_put(self, key: str, value: bytes) -> None:
        self._cache[key] = value
        self._cache.move_to_end(key)
        while len(self._cache) > self.capacity:
            self._cache.popitem(last=False)

    # -- RequestPort ------------------------------------------------------------

    def submit(self, cmd: Command, on_done: Callable[[Reply], None]) -> None:
        if cmd.op == "GET":
            value = self._cache_get(cmd.key)
            if value is not None:
                self.hits += 1
                self.sim.call_after(
                    self.lookup_cost, lambda: on_done(Reply(ok=True, value=value, hit=True))
                )
                return
            self.misses += 1
            if cmd.key in self._inflight:
                self._inflight[cmd.key].append(on_done)
                return
            self._inflight[cmd.key] = [on_done]
            self._forward(cmd, cacheable=True)
            return
        if cmd.op == "SET":
            self._cache.pop(cmd.key, None)
        self._forward(cmd, cacheable=False, direct_done=on_done)

    def _forward(
        self,
        cmd: Command,
        *,
        cacheable: bool,
        direct_done: Callable[[Reply], None] | None = None,
    ) -> None:
        def finish(reply: Reply):
            if cacheable:
                waiters = self._inflight.pop(cmd.key, [])
                if reply.ok and reply.value is not None:
                    self._cache_put(cmd.key, reply.value)
                for w in waiters:
                    w(reply)
            elif direct_done is not None:
                direct_done(reply)

        def on_reply(body):
            if isinstance(body, dict):
                finish(Reply(ok=body["ok"], value=body["value"], hit=body["hit"]))
            else:
                finish(Reply(ok=False))

        def on_timeout():
            self.failed_requests += 1
            finish(Reply(ok=False))

        self.proxy.request(
            "backend",
            "exec",
            (cmd.op, cmd.key, cmd.value),
            on_reply,
            timeout=self.timeout,
            on_timeout=on_timeout,
        )

    def preload(self, commands) -> None:
        for cmd in commands:
            self.server.execute(cmd, now=0.0)
