"""Direct (non-DSL) live migration: the control arm for
``arch/migration.py``.

A router endpoint forwards requests to whichever node is active and
runs the migration protocol by hand: snapshot the source, ship it to
the destination, install it, then flip the routing table — the same
snapshot → transfer → install → switch sequence the DSL version
expresses declaratively, here as chained request/response callbacks.
"""

from __future__ import annotations

from typing import Callable

from repro.redislite.server import Command, CostModel, RedisServer, Reply
from repro.runtime.sim import Simulator
from .messaging import Envelope, MessageBus

_NODES = ("NodeA", "NodeB")


class DirectMigratableRedis:
    """Two redislite nodes behind a hand-rolled migrating router."""

    def __init__(
        self,
        sim: Simulator,
        *,
        cost_model: CostModel | None = None,
        latency: float = 100e-6,
        timeout: float = 2.0,
    ):
        self.sim = sim
        self.timeout = timeout
        self.bus = MessageBus(sim, latency)
        self.router = self.bus.endpoint("router")
        self.active = "NodeA"
        self.migrations = 0
        self.failed_requests = 0
        self.servers: dict[str, RedisServer] = {}
        for name in _NODES:
            server = RedisServer(name=name, cost=cost_model)
            self.servers[name] = server
            ep = self.bus.endpoint(name)
            ep.on("exec", self._exec_handler(server))
            ep.on("snapshot", lambda env, s=server: s.checkpoint()[0])
            ep.on("install", self._install_handler(server))

    def _exec_handler(self, server: RedisServer):
        def handle(env: Envelope):
            _topic, (op, key, value) = env.body
            reply, _cost = server.execute(Command(op, key, value), now=self.sim.now)
            return {"ok": reply.ok, "value": reply.value, "hit": reply.hit}

        return handle

    def _install_handler(self, server: RedisServer):
        def handle(env: Envelope):
            _topic, snap = env.body
            server.restore(snap)
            return True

        return handle

    def node_server(self, name: str) -> RedisServer:
        return self.servers[name]

    # -- RequestPort ---------------------------------------------------------

    def submit(self, cmd: Command, on_done: Callable[[Reply], None]) -> None:
        def on_reply(body):
            if isinstance(body, dict):
                on_done(Reply(ok=body["ok"], value=body["value"], hit=body["hit"]))
            else:
                on_done(Reply(ok=False))

        def on_timeout():
            self.failed_requests += 1
            on_done(Reply(ok=False))

        self.router.request(
            self.active,
            "exec",
            (cmd.op, cmd.key, cmd.value),
            on_reply,
            timeout=self.timeout,
            on_timeout=on_timeout,
        )

    def preload(self, commands) -> None:
        server = self.servers[self.active]
        for cmd in commands:
            server.execute(cmd, now=0.0)

    # -- migration -----------------------------------------------------------

    def migrate(self, dst: str, on_done: Callable[[bool], None] | None = None) -> None:
        """Snapshot the active node, install on ``dst``, switch routing."""
        if dst not in _NODES:
            raise ValueError(f"unknown node {dst!r}")
        src = self.active
        if src == dst:
            raise ValueError("destination is already active")

        def fail():
            if on_done is not None:
                on_done(False)

        def installed(ok):
            if ok is not True:
                fail()
                return
            self.active = dst
            self.migrations += 1
            if on_done is not None:
                on_done(True)

        def snapped(snap):
            if not isinstance(snap, dict):
                fail()
                return
            self.router.request(
                dst, "install", snap, installed,
                timeout=self.timeout, on_timeout=fail,
            )

        self.router.request(
            src, "snapshot", None, snapped,
            timeout=self.timeout, on_timeout=fail,
        )
