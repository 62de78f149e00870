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

from ..redislite.server import Command, RedisServer
from ..runtime.faults import FaultPlan
from ..runtime.system import System
from .loader import load_program
from .ports import BackApp, FrontApp, RedisPort


class WatchedService:
    """Request/reply service under watched fail-over."""

    def __init__(
        self,
        make_backend: Callable[[str], object],
        exec_fn: Callable[[BackApp, dict, float], tuple[dict, float]],
        *,
        latency: float = 100e-6,
        timeout: float = 0.3,
        seed: int = 0,
        watch_interval: float = 0.5,
    ):
        self.exec_fn = exec_fn
        self.program = load_program("watched_failover")
        self.system = System(self.program, latency=latency, seed=seed)
        sys_ = self.system

        self.front = FrontApp(sys_, "f::junction")
        sys_.bind_app("FT", lambda inst: self.front)
        sys_.bind_app("WT", lambda inst: object())
        sys_.bind_app("OT", lambda inst: BackApp(make_backend("o")))
        sys_.bind_app("ST", lambda inst: BackApp(make_backend("s")))
        self.watch_complaints = 0

        @sys_.host("FT", "H1")
        def _h1(ctx):
            req = ctx.app.begin_next()
            if req is None:
                from ..core.errors import DslFailure

                raise DslFailure("watched front scheduled with no request")
            ctx.take(5e-6)

        @sys_.host("FT", "H3")
        def _h3(ctx):
            ctx.app.respond()

        @sys_.host("FT", "Complain")
        def _f_complain(ctx):
            ctx.app.fail_current()

        def _backend_exec(ctx):
            app: BackApp = ctx.app
            if app.current is None:
                return
            reply, cost = self.exec_fn(app, app.current, ctx.now)
            app.set_reply(reply)
            ctx.take(cost)

        for tname in ("OT", "ST"):
            sys_.bind_host(tname, "H2", _backend_exec)
            sys_.bind_host(tname, "Complain", lambda ctx: None)
            sys_.bind_state(
                tname, data_name="n",
                save=lambda app, inst: app.current,
                restore=lambda app, inst, obj: app.receive(obj),
            )
            sys_.bind_state(
                tname, data_name="m",
                save=lambda app, inst: app.reply,
                restore=lambda app, inst, obj: None,
            )

        def _w_complain(ctx):
            self.watch_complaints += 1

        sys_.bind_host("WT", "Complain", _w_complain)

        sys_.bind_state(
            "FT", data_name="n",
            save=lambda app, inst: app.current,
            restore=lambda app, inst, obj: None,
        )
        sys_.bind_state(
            "FT", data_name="m",
            save=lambda app, inst: app.reply,
            restore=lambda app, inst, obj: app.set_reply(obj),
        )

        sys_.start(t=timeout)
        self._arm_watch_poll(watch_interval)

    def _arm_watch_poll(self, interval: float) -> None:
        def poll():
            for j in ("w::co", "w::cs", "w::cunrecov"):
                if self.system.instance("w").alive:
                    self.system.poke(j)
            self.system.sim.call_after(interval, poll)

        self.system.sim.call_after(interval, poll)

    @property
    def sim(self):
        return self.system.sim

    def fault_plan(self) -> FaultPlan:
        return FaultPlan(self.system)

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
        def make_backend(name: str) -> RedisServer:
            return RedisServer(name=name, cost=cost_model)

        def exec_fn(app: BackApp, request: dict, now: float):
            server: RedisServer = app.payload
            cmd = Command(request["op"], request["key"], request.get("value", b""))
            reply, cost = server.execute(cmd, now=now)
            return ({"ok": reply.ok, "value": reply.value, "hit": reply.hit}, cost)

        super().__init__(make_backend, exec_fn, **kw)

    def preload(self, commands) -> None:
        for cmd in commands:
            for b in ("o", "s"):
                self.system.instance(b).app.payload.execute(cmd, now=0.0)
