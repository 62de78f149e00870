"""Live migration applied to redislite (extension; see
``dsl/migration.csaw``).

:class:`MigratableRedis` serves requests through the currently-active
node and can live-migrate the dataset to the other node:
snapshot → transfer → install → switch, all expressed in the DSL, with
the routing policy (which node is active) living in host-language
state, exactly where the paper draws the line between architecture and
application logic.
"""

from __future__ import annotations

from typing import Callable

from ..redislite.server import CostModel, RedisServer
from ..runtime.system import System
from .ports import BackApp, FrontApp, RedisPort, RequestReply, Roles, redis_exec

_NODES = ("NodeA", "NodeB")


class _RouterApp(FrontApp):
    def __init__(self, system: System, node: str):
        super().__init__(system, node)
        self.active = "NodeA"
        self.migration_plan: tuple[str, str] | None = None
        self.migrations = 0
        self.migration_done_cb: Callable[[], None] | None = None


_ROLES = Roles(
    front="Front", node="Fnt::route", backs=("Node",),
    first="PickActive", respond="Respond", execute="Exec", request="n", reply="m",
    cost=0.0,
)


class MigratableRedis(RequestReply, RedisPort):
    """A redislite service whose dataset can live-migrate between two
    nodes (RequestPort)."""

    def __init__(
        self,
        *,
        cost_model: CostModel | None = None,
        latency: float = 100e-6,
        timeout: float = 0.5,
        seed: int = 0,
    ):
        super().__init__(
            "migration", _ROLES, _RouterApp,
            lambda inst: BackApp(RedisServer(name=inst.name, cost=cost_model)),
            redis_exec, latency=latency, seed=seed,
        )
        sys_ = self.system

        @sys_.host("Front", "PlanMigration")
        def _plan(ctx):
            src, dst = ctx.app.migration_plan
            ctx.set("src", f"{src}::ctl")
            ctx.set("dst", f"{dst}::ctl")

        @sys_.host("Front", "SwitchActive")
        def _switch(ctx):
            _src, dst = ctx.app.migration_plan
            ctx.app.active = dst
            ctx.app.migrations += 1
            if ctx.app.migration_done_cb is not None:
                cb, ctx.app.migration_done_cb = ctx.app.migration_done_cb, None
                cb(True)

        @sys_.host("Node", "Freeze")
        def _freeze(ctx):
            server: RedisServer = ctx.app.payload
            _snap, cost = server.checkpoint()
            ctx.take(cost)

        sys_.bind_state(
            "Front", data_name="state",
            save=lambda app, inst: None,   # state only passes through
            restore=lambda app, inst, obj: None,
        )
        sys_.bind_state(
            "Node", data_name="state",
            save=lambda app, inst: app.payload.checkpoint()[0],
            restore=lambda app, inst, obj: app.payload.restore(obj),
        )
        self._start(t=timeout)

    def _route(self, ctx, request: dict) -> None:
        ctx.set("active", f"{ctx.app.active}::serve")

    def _complain(self, ctx) -> None:
        if ctx.junction == "route":
            ctx.app.fail_current()
        # a failed migration leaves routing untouched
        elif ctx.app.migration_done_cb is not None:
            cb, ctx.app.migration_done_cb = ctx.app.migration_done_cb, None
            cb(False)

    @property
    def active(self) -> str:
        return self.front.active

    def node_server(self, name: str) -> RedisServer:
        return self.system.instance(name).app.payload

    def preload(self, commands) -> None:
        server = self.node_server(self.front.active)
        for cmd in commands:
            server.execute(cmd, now=0.0)

    # -- migration -----------------------------------------------------------

    def migrate(self, dst: str, on_done: Callable[[bool], None] | None = None) -> None:
        """Live-migrate the dataset from the active node to ``dst``."""
        if dst not in _NODES:
            raise ValueError(f"unknown node {dst!r}")
        src = self.front.active
        if src == dst:
            raise ValueError("destination is already active")
        self.front.migration_plan = (src, dst)
        self.front.migration_done_cb = on_done
        self.system.external_update("Fnt::migrate", "MigrateReq", True)
