"""Direct (non-DSL) elastic workers: the control arm for
``arch/elastic.py``.

A front endpoint load-balances jobs round-robin over the currently
registered worker endpoints and grows/shrinks the pool with an explicit
register/deregister handshake — membership bookkeeping the DSL version
gets from ``start``/``stop`` inside the architecture description.

The routing policy (round-robin cursor, initial pool of two) mirrors
the DSL arm exactly so differential tests can compare job placements.
"""

from __future__ import annotations

from typing import Callable

from repro.runtime.sim import Simulator
from .messaging import Envelope, MessageBus

WORKERS = ("Wrk1", "Wrk2", "Wrk3", "Wrk4")


class DirectElasticWorkers:
    """A job service with a hand-rolled grow/shrink worker pool."""

    def __init__(
        self,
        sim: Simulator,
        *,
        latency: float = 100e-6,
        timeout: float = 0.5,
    ):
        self.sim = sim
        self.timeout = timeout
        self.bus = MessageBus(sim, latency)
        self.front = self.bus.endpoint("front")
        self.active: list[str] = ["Wrk1", "Wrk2"]
        self.rr = 0
        self.executed: dict[str, int] = {w: 0 for w in WORKERS}
        self.scale_events: list[tuple[float, str, str]] = []
        self.failed_jobs = 0
        for name in WORKERS:
            ep = self.bus.endpoint(name)
            ep.on("job", self._job_handler(name))
            ep.on("register", lambda env: True)
            ep.on("deregister", lambda env: True)
            # spare workers start cold (a down endpoint drops traffic,
            # like a not-yet-started DSL instance)
            if name not in self.active:
                self.bus.set_down(name)

    def _job_handler(self, name: str):
        def handle(env: Envelope):
            _topic, units = env.body
            self.executed[name] += 1
            return {"worker": name, "units": units}

        return handle

    @property
    def active_workers(self) -> list[str]:
        return list(self.active)

    # -- jobs ----------------------------------------------------------------

    def submit_job(self, units: int, on_done: Callable[[dict | None], None]) -> None:
        if not self.active:
            raise ValueError("no running workers")
        # same cursor policy as the DSL arm: advance, then pick
        self.rr = (self.rr + 1) % len(self.active)
        target = self.active[self.rr]

        def on_timeout():
            self.failed_jobs += 1
            on_done(None)

        self.front.request(
            target, "job", units, on_done,
            timeout=self.timeout, on_timeout=on_timeout,
        )

    # -- scaling -------------------------------------------------------------

    def scale_out(self, on_done: Callable[[bool], None] | None = None) -> None:
        """Boot the next spare worker and register it with the pool."""
        spare = [w for w in WORKERS if w not in self.active]
        if not spare:
            raise ValueError("no spare workers")
        worker = spare[0]
        self.bus.set_down(worker, False)

        def registered(_reply):
            self.active.append(worker)
            self.scale_events.append((self.sim.now, "out", worker))
            if on_done is not None:
                on_done(True)

        def fail():
            self.bus.set_down(worker)
            if on_done is not None:
                on_done(False)

        self.front.request(
            worker, "register", None, registered,
            timeout=self.timeout, on_timeout=fail,
        )

    def scale_in(self, on_done: Callable[[bool], None] | None = None) -> None:
        """Drain and stop the most recently added worker."""
        if len(self.active) <= 1:
            raise ValueError("refusing to scale below one worker")
        worker = self.active[-1]

        def deregistered(_reply):
            self.active.remove(worker)
            self.rr = self.rr % len(self.active)
            self.bus.set_down(worker)
            self.scale_events.append((self.sim.now, "in", worker))
            if on_done is not None:
                on_done(True)

        def fail():
            if on_done is not None:
                on_done(False)

        self.front.request(
            worker, "deregister", None, deregistered,
            timeout=self.timeout, on_timeout=fail,
        )
