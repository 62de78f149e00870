"""Hand-rolled messaging layer for the direct (non-DSL) control arm.

The paper's ``Redis(C)`` control implementation "includes its own
internal management system for communication and synchronization
between different instances of Redis, which adds 195 lines to each
feature" (sec. 10.2).  This module is that management system's
analogue: endpoints, request/response correlation, retries, timeouts,
broadcast, and a tiny state machine for peer liveness — everything the
C-Saw runtime otherwise provides for free.

It is deliberately written against the raw simulator (no reuse of
``repro.runtime``), because the point of the control arm is to measure
what re-architecting costs *without* the DSL.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable

from repro.runtime.sim import Simulator


@dataclass
class Envelope:
    src: str
    dst: str
    kind: str  # 'request' | 'response' | 'oneway'
    body: object
    corr_id: int = 0


class Endpoint:
    """A named party on the bus with request/response support."""

    def __init__(self, bus: "MessageBus", name: str):
        self.bus = bus
        self.name = name
        self.handlers: dict[str, Callable[[Envelope], object]] = {}
        self._pending: dict[int, tuple[Callable, object]] = {}
        self.alive = True

    def on(self, topic: str, handler: Callable[[Envelope], object]) -> None:
        """Register a request handler; its return value is the response."""
        self.handlers[topic] = handler

    def request(
        self,
        dst: str,
        topic: str,
        body: object,
        on_reply: Callable[[object], None],
        *,
        timeout: float = 1.0,
        on_timeout: Callable[[], None] | None = None,
        retries: int = 0,
    ) -> None:
        corr = self.bus.next_corr()
        attempt = [0]

        def fire():
            self.bus.send(Envelope(self.name, dst, "request", (topic, body), corr))
            handle = self.bus.sim.call_after(timeout, expired)
            self._pending[corr] = (deliver, handle)

        def deliver(reply: object):
            _, handle = self._pending.pop(corr, (None, None))
            if handle is not None:
                handle.cancel()
            on_reply(reply)

        def expired():
            if corr not in self._pending:
                return
            self._pending.pop(corr, None)
            if attempt[0] < retries:
                attempt[0] += 1
                fire()
            elif on_timeout is not None:
                on_timeout()

        fire()

    def oneway(self, dst: str, topic: str, body: object) -> None:
        self.bus.send(Envelope(self.name, dst, "oneway", (topic, body), 0))

    def _receive(self, env: Envelope) -> None:
        if not self.alive:
            return
        if env.kind == "response":
            pending = self._pending.get(env.corr_id)
            if pending is not None:
                pending[0](env.body)
            return
        topic, body = env.body
        handler = self.handlers.get(topic)
        if handler is None:
            return
        result = handler(env)
        if env.kind == "request":
            self.bus.send(Envelope(self.name, env.src, "response", result, env.corr_id))


class MessageBus:
    """Point-to-point transport with latency and crashed-peer drops."""

    def __init__(self, sim: Simulator, latency: float = 100e-6):
        self.sim = sim
        self.latency = latency
        self.endpoints: dict[str, Endpoint] = {}
        self._corr = itertools.count(1)
        self.down: set[str] = set()

    def endpoint(self, name: str) -> Endpoint:
        ep = Endpoint(self, name)
        self.endpoints[name] = ep
        return ep

    def next_corr(self) -> int:
        return next(self._corr)

    def set_down(self, name: str, down: bool = True) -> None:
        if down:
            self.down.add(name)
        else:
            self.down.discard(name)

    def send(self, env: Envelope) -> None:
        if env.src in self.down or env.dst in self.down:
            return

        def deliver():
            if env.dst in self.down:
                return
            ep = self.endpoints.get(env.dst)
            if ep is not None:
                ep._receive(env)

        self.sim.call_after(self.latency, deliver)

    def broadcast(self, src: str, topic: str, body: object) -> None:
        for name in self.endpoints:
            if name != src:
                self.send(Envelope(src, name, "oneway", (topic, body), 0))
