"""Shared plumbing between the DSL architectures and the substrates.

A *front app* is the host-language application object of a front-end
instance: it queues incoming client requests, exposes the in-flight
request to host blocks and ``save`` providers, and completes requests
when the architecture produces a reply.  Every DSL architecture with a
request/reply shape (sharding, caching, fail-over, watched fail-over)
reuses it — mirroring the paper's observation that the architecture
code is decoupled from the application logic it dispatches.
"""

from __future__ import annotations

from collections import deque
from typing import Callable

from ..redislite.server import Command, Reply
from ..runtime.system import System


class FrontApp:
    """Client-request queue + in-flight bookkeeping for a front-end."""

    def __init__(self, system: System, node: str, req_prop: str = "Req"):
        self.system = system
        self.node = node
        self.req_prop = req_prop
        self.queue: deque[tuple[dict, Callable]] = deque()
        self.current: dict | None = None
        self.current_done: Callable | None = None
        self.reply: dict | None = None
        self.completed = 0
        self.failed = 0

    # -- client side ----------------------------------------------------------

    def submit(self, request: dict, on_done: Callable[[dict | None], None]) -> None:
        self.queue.append((request, on_done))
        self.system.external_update(self.node, self.req_prop, True)

    # -- host-block side ---------------------------------------------------------

    def begin_next(self) -> dict | None:
        """Pop the next request (called by the front-end's first host
        block).  Returns None when the queue is empty."""
        if self.current is not None:
            # previous request never completed (e.g. junction failed
            # before Respond); count it as failed
            self._finish(None)
        if not self.queue:
            self.current = None
            self.current_done = None
            return None
        self.current, self.current_done = self.queue.popleft()
        self.reply = None
        return self.current

    def set_reply(self, reply: dict | None) -> None:
        self.reply = reply

    def respond(self) -> None:
        """Complete the in-flight request with the current reply."""
        self._finish(self.reply)
        self._rearm()

    def fail_current(self) -> None:
        self._finish(None)
        self._rearm()

    def _finish(self, reply: dict | None) -> None:
        done = self.current_done
        self.current = None
        self.current_done = None
        if done is not None:
            if reply is None:
                self.failed += 1
            else:
                self.completed += 1
            done(reply)

    def _rearm(self) -> None:
        if self.queue:
            self.system.external_update(self.node, self.req_prop, True)


class BackApp:
    """In-flight request/reply holder for a back-end instance."""

    def __init__(self, payload: object):
        #: the wrapped substrate object (RedisServer, Pipeline, ...)
        self.payload = payload
        self.current: dict | None = None
        self.reply: dict | None = None
        self.executed = 0

    def receive(self, request: dict) -> None:
        self.current = request

    def set_reply(self, reply: dict) -> None:
        self.reply = reply
        self.executed += 1


class RedisPort:
    """The redislite ``RequestPort`` of a service whose ``front`` is a
    :class:`FrontApp`: a :class:`Command` goes in as the request dict
    the host blocks read, the reply dict comes back as a
    :class:`Reply` (``ok=False`` when the architecture gave up)."""

    front: FrontApp

    def submit(self, cmd: Command, on_done: Callable[[Reply], None]) -> None:
        request = {"op": cmd.op, "key": cmd.key, "value": cmd.value}

        def done(reply: dict | None):
            if reply is None:
                on_done(Reply(ok=False))
            else:
                on_done(Reply(ok=reply["ok"], value=reply["value"], hit=reply["hit"]))

        self.front.submit(request, done)
