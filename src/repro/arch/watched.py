"""The "watched" fail-over architecture (sec. 7.4, Figs. 15-17).

Two back-ends — o (preferred) and s (spare) — plus a watchdog w that
arbitrates liveness.  The front-end dispatches each request to the
focused back-end; while no watchdog verdict exists it dispatches to
both and takes whichever reply lands (the paper's "otherwise" arm).

The watchdog's junctions are guarded purely on instance liveness
(``S(.)``), so the embedding application schedules them periodically —
:class:`WatchedService` polls them at ``watch_interval``.
"""

from __future__ import annotations

from typing import Callable

from ..redislite.server import RedisServer
from .ports import BackApp, ExecFn, FrontApp, RedisPort, RequestReply, Roles, redis_exec


_ROLES = Roles(
    front="FT", node="f::junction", backs=("OT", "ST"),
    first="H1", respond="H3", execute="H2", request="n", reply="m",
)


class WatchedService(RequestReply):
    """Request/reply service under watched fail-over."""

    def __init__(
        self,
        make_backend: Callable[[str], object],
        exec_fn: ExecFn,
        *,
        latency: float = 100e-6,
        timeout: float = 0.3,
        seed: int = 0,
        watch_interval: float = 0.5,
    ):
        super().__init__(
            "watched_failover", _ROLES, FrontApp,
            lambda inst: BackApp(make_backend(inst.name)), exec_fn,
            latency=latency, seed=seed,
        )
        self.watch_complaints = 0
        self.system.bind_app("WT", lambda inst: object())

        @self.system.host("WT", "Complain")
        def _w_complain(ctx):
            self.watch_complaints += 1

        self._start(t=timeout)
        self._arm_watch_poll(watch_interval)

    def _arm_watch_poll(self, interval: float) -> None:
        def poll():
            for j in ("w::co", "w::cs", "w::cunrecov"):
                if self.system.instance("w").alive:
                    self.system.poke(j)
            self.system.sim.call_after(interval, poll)

        self.system.sim.call_after(interval, poll)

    def focus(self) -> str:
        """Which back-end the front currently prefers."""
        failover = self.system.read_state("f::junction", "failover") is True
        nofailover = self.system.read_state("f::junction", "nofailover") is True
        if failover and not nofailover:
            return "s"
        if nofailover and not failover:
            return "o"
        return "both"


class WatchedRedis(WatchedService, RedisPort):
    """Watched fail-over over two redislite back-ends (RequestPort)."""

    def __init__(self, *, cost_model=None, **kw):
        super().__init__(
            lambda name: RedisServer(name=name, cost=cost_model), redis_exec, **kw
        )

    def preload(self, commands) -> None:
        for cmd in commands:
            for b in ("o", "s"):
                self.system.instance(b).app.payload.execute(cmd, now=0.0)
