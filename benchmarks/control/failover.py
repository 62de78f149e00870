"""Direct (non-DSL) warm-replica fail-over: the control arm for the
sec. 7.3 architecture.

Every request fans out to every *registered* replica over the
hand-rolled message bus; the front waits for all of them (the
conservative Fig. 13 discipline), replies to the client from the first
successful response, and deregisters a replica that misses its
deadline.  A periodic poll re-registers recovered replicas — the
analogue of the DSL's startup/reactivate loop.

Like the other ``benchmarks.control`` modules this is written straight
against the simulator and the substrate API, re-implementing the
correlation, timeout and membership logic the C-Saw runtime provides
for free.
"""

from __future__ import annotations

from typing import Callable

from repro.redislite.server import Command, RedisServer, Reply
from repro.runtime.sim import Simulator
from .messaging import Envelope, MessageBus


class DirectFailoverRedis:
    """Warm fail-over over N redislite replicas without the DSL."""

    def __init__(
        self,
        sim: Simulator,
        *,
        n_replicas: int = 2,
        cost_model=None,
        latency: float = 100e-6,
        timeout: float = 0.5,
        reregister_poll: float | None = 1.0,
    ):
        self.sim = sim
        self.timeout = timeout
        self.bus = MessageBus(sim, latency)
        self.front = self.bus.endpoint("front")
        self.servers: list[RedisServer] = []
        self.registered: list[bool] = [True] * n_replicas
        self.seq = 0
        self.failed_requests = 0

        for i in range(n_replicas):
            server = RedisServer(name=f"replica{i}", cost=cost_model)
            self.servers.append(server)
            ep = self.bus.endpoint(f"replica{i}")
            ep.on("exec", self._make_exec(server))
            ep.on("ping", lambda env: True)

        if reregister_poll is not None:
            self._arm_reregister_poll(reregister_poll)

    def _make_exec(self, server: RedisServer):
        def handler(env: Envelope):
            req = env.body[1]
            cmd = Command(req["op"], req["key"], req.get("value", b""))
            reply, _cost = server.execute(cmd, now=self.sim.now)
            return {"ok": reply.ok, "value": reply.value, "hit": reply.hit}

        return handler

    def _arm_reregister_poll(self, interval: float) -> None:
        """Re-admit recovered replicas, the startup/reactivate loop."""

        def poll():
            for i in range(len(self.servers)):
                if not self.registered[i]:
                    self.front.request(
                        f"replica{i}",
                        "ping",
                        None,
                        lambda _r, i=i: self.registered.__setitem__(i, True),
                        timeout=self.timeout,
                    )
            self.sim.call_after(interval, poll)

        self.sim.call_after(interval, poll)

    # -- client API (mirrors arch.failover.FailoverRedis) ------------------

    def submit(self, cmd: Command, on_done: Callable[[Reply], None]) -> None:
        targets = [i for i, r in enumerate(self.registered) if r]
        if not targets:
            self.failed_requests += 1
            on_done(Reply(ok=False))
            return

        request = {"op": cmd.op, "key": cmd.key, "value": cmd.value}
        outstanding = [len(targets)]
        replies: dict[int, dict] = {}

        def finish():
            good = [replies[i] for i in sorted(replies) if replies[i]["ok"]]
            if not good:
                self.failed_requests += 1
                on_done(Reply(ok=False))
                return
            self.seq += 1
            first = good[0]
            on_done(Reply(ok=first["ok"], value=first["value"], hit=first["hit"]))

        def settle():
            outstanding[0] -= 1
            if outstanding[0] == 0:
                finish()

        for i in targets:

            def on_reply(reply: dict, i=i):
                replies[i] = reply
                settle()

            def on_timeout(i=i):
                self.registered[i] = False  # deregister the straggler
                settle()

            self.front.request(
                f"replica{i}",
                "exec",
                request,
                on_reply,
                timeout=self.timeout,
                on_timeout=on_timeout,
            )

    def preload(self, commands) -> None:
        for cmd in commands:
            for server in self.servers:
                server.execute(cmd, now=0.0)

    def registered_backends(self) -> list[str]:
        return [f"replica{i}" for i, r in enumerate(self.registered) if r]
