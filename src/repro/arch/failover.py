"""The fail-over architecture (sec. 7.3, Figs. 8-14) applied to
redislite and suricatalite.

Two warm back-end replicas execute every request; the front-end f fans
out to all registered back-ends and succeeds as long as one responds
within the timeout.  A timed-out back-end is deregistered; its
``reactivate`` watchdog junction later deactivates it and pokes
``startup``, which re-registers with ``f::b`` — the Fig. 8 loop.

The same architecture description runs over both substrates ("the same
logic is applied to both Redis and Suricata", sec. 7.3): only the host
``H2`` (execute a request) and the replica factory differ.
"""

from __future__ import annotations

import re
from typing import Callable

from ..core.compiler import CompiledProgram, compile_program
from ..redislite.server import Command, RedisServer
from ..runtime.faults import FaultPlan
from ..runtime.system import System
from .loader import load_program, load_source
from .ports import BackApp, FrontApp, RedisPort


def swap_backend_source(
    old_name: str = "b2",
    new_name: str = "b3",
    *,
    program_name: str = "failover",
) -> str:
    """The shipped fail-over source with one replica instance renamed —
    the canonical instance-swap reconfiguration target (retire ``b2``,
    bring up a fresh ``b3``)."""
    text = load_source(program_name)
    return re.sub(rf"\b{re.escape(old_name)}\b", new_name, text)


def swap_backend_program(
    old_name: str = "b2",
    new_name: str = "b3",
    *,
    program_name: str = "failover",
) -> CompiledProgram:
    return compile_program(swap_backend_source(old_name, new_name, program_name=program_name))


class _FoFrontApp(FrontApp):
    """Front app holding the canonical sequence number (the `state`
    data the paper's f::b oversees)."""

    def __init__(self, system: System, node: str):
        super().__init__(system, node)
        self.seq = 0
        self.canonical: dict = {"seq": 0}


class FailoverService:
    """A request/reply service with warm-replica fail-over."""

    def __init__(
        self,
        make_backend: Callable[[int], object],
        exec_fn: Callable[[BackApp, dict, float], tuple[dict, float]],
        *,
        latency: float = 100e-6,
        timeout: float = 0.5,
        seed: int = 0,
        reactivate_poll: float | None = 1.0,
        run_for: float = 1.0,
        program_name: str = "failover",
        program: CompiledProgram | None = None,
    ):
        self.exec_fn = exec_fn
        self.program_name = program_name
        self.program = program if program is not None else load_program(program_name)
        self.system = System(self.program, latency=latency, seed=seed)
        sys_ = self.system

        self.front = _FoFrontApp(sys_, "f::c")
        sys_.bind_app("FrontT", lambda inst: self.front)
        self._backend_counter = [0]

        def app_factory(inst, mk=make_backend):
            idx = int(inst.name[1:]) - 1  # b1 -> 0, b2 -> 1
            return BackApp(mk(idx))

        sys_.bind_app("BackT", app_factory)

        @sys_.host("FrontT", "H1")
        def _h1(ctx):
            req = ctx.app.begin_next()
            if req is None:
                from ..core.errors import DslFailure

                raise DslFailure("fail-over front scheduled with no request")
            ctx.take(5e-6)

        @sys_.host("FrontT", "H3")
        def _h3(ctx):
            ctx.app.seq += 1
            ctx.app.canonical = {"seq": ctx.app.seq}
            ctx.app.respond()

        @sys_.host("FrontT", "Complain")
        def _f_complain(ctx):
            ctx.app.fail_current()

        @sys_.host("BackT", "H2")
        def _h2(ctx):
            app: BackApp = ctx.app
            if app.current is None:
                return
            reply, cost = self.exec_fn(app, app.current, ctx.now)
            app.set_reply(reply)
            ctx.take(cost)

        @sys_.host("BackT", "Complain")
        def _b_complain(ctx):
            pass

        # -- state providers --------------------------------------------
        # FrontT 'state': the canonical state (f::b and f::c exchange it)
        sys_.bind_state(
            "FrontT", data_name="state",
            save=lambda app, inst: app.canonical,
            restore=lambda app, inst, obj: setattr(app, "canonical", obj),
        )
        sys_.bind_state(
            "FrontT", data_name="req",
            save=lambda app, inst: app.current,
            restore=lambda app, inst, obj: None,
        )
        sys_.bind_state(
            "FrontT", data_name="preresp",
            save=lambda app, inst: app.reply,
            restore=lambda app, inst, obj: app.set_reply(obj),
        )
        sys_.bind_state(
            "BackT", data_name="state",
            save=lambda app, inst: getattr(app, "canonical", {"seq": 0}),
            restore=lambda app, inst, obj: setattr(app, "canonical", obj),
        )
        sys_.bind_state(
            "BackT", data_name="req",
            save=lambda app, inst: app.current,
            restore=lambda app, inst, obj: app.receive(obj),
        )
        sys_.bind_state(
            "BackT", data_name="preresp",
            save=lambda app, inst: app.reply,
            restore=lambda app, inst, obj: None,
        )

        sys_.start(t=timeout)
        # let the registration/initialization phase complete
        sys_.run_until(sys_.now + run_for)

        # the paper schedules reactivate from the application; poll it
        if reactivate_poll is not None:
            self._arm_reactivate_poll(reactivate_poll)

    def back_instances(self) -> list[str]:
        """The replica instance names, sorted — derived live so a
        reconfiguration that swaps a replica keeps the watchdogs and
        reports working."""
        return sorted(
            name
            for name, inst in self.system.instances.items()
            if inst.type.name == "BackT"
        )

    def _arm_reactivate_poll(self, interval: float) -> None:
        def poll():
            for b in self.back_instances():
                inst = self.system.instance(b)
                if inst.alive:
                    self.system.poke(f"{b}::reactivate")
                    self.system.poke(f"{b}::startup")
            self.system.sim.call_after(interval, poll)

        self.system.sim.call_after(interval, poll)

    @property
    def sim(self):
        return self.system.sim

    def backend_app(self, idx: int) -> BackApp:
        return self.system.instance(f"b{idx + 1}").app

    def registered_backends(self) -> list[str]:
        out = []
        for b in self.back_instances():
            key = f"Backend[{b}::serve]"
            if self.system.read_state("f::c", key) is True:
                out.append(b)
        return out

    def swap_backend(
        self,
        old_name: str = "b2",
        new_name: str = "b3",
        *,
        quiesce_grace: float = 5.0,
    ):
        """Live instance swap: retire replica ``old_name`` and bring up
        a fresh ``new_name`` through a reconfiguration transition.  The
        new replica registers with ``f::b`` via the architecture's own
        Fig. 8 startup loop.  Returns the
        :class:`~repro.reconfig.ReconfigReport`."""
        new_program = swap_backend_program(
            old_name, new_name, program_name=self.program_name
        )
        return self.system.reconfigure(new_program, quiesce_grace=quiesce_grace)

    def fault_plan(self) -> FaultPlan:
        return FaultPlan(self.system)


class FailoverRedis(FailoverService, RedisPort):
    """Fail-over over two redislite replicas (RequestPort).

    ``slow_backend`` (index, extra seconds) injects a per-request delay
    on one replica — used to show how the conservative all-replica wait
    compares with the first-response-wins variant."""

    def __init__(self, *, cost_model=None, slow_backend=None, **kw):
        def make_backend(i: int) -> RedisServer:
            return RedisServer(name=f"replica{i}", cost=cost_model)

        def exec_fn(app: BackApp, request: dict, now: float):
            server: RedisServer = app.payload
            cmd = Command(request["op"], request["key"], request.get("value", b""))
            reply, cost = server.execute(cmd, now=now)
            if slow_backend is not None and server.name == f"replica{slow_backend[0]}":
                cost += slow_backend[1]
            return ({"ok": reply.ok, "value": reply.value, "hit": reply.hit}, cost)

        super().__init__(make_backend, exec_fn, **kw)

    def preload(self, commands) -> None:
        for cmd in commands:
            for i in (0, 1):
                self.backend_app(i).payload.execute(cmd, now=0.0)


class FastFailoverRedis(FailoverRedis):
    """The sec. 7.3 improvement (i): first-response-wins fail-over
    (``failover_fast.csaw``) — the front returns as soon as one replica
    pre-responds instead of waiting for all of them."""

    def __init__(self, **kw):
        kw.setdefault("program_name", "failover_fast")
        super().__init__(**kw)


class FailoverSuricata(FailoverService):
    """Fail-over over two suricatalite pipeline replicas — the paper's
    availability + diagnostics scenario (sec. 2), reusing the Redis
    fail-over architecture unchanged."""

    def __init__(self, **kw):
        from ..suricatalite.packet import FiveTuple, Packet
        from ..suricatalite.pipeline import Pipeline

        def make_backend(i: int) -> Pipeline:
            return Pipeline()

        def exec_fn(app: BackApp, request: dict, now: float):
            pipeline: Pipeline = app.payload
            cost = 0.0
            for rec in request["packets"]:
                f = rec["flow"]
                pkt = Packet(
                    ts=now,
                    flow=FiveTuple(f[0], f[1], int(f[2]), int(f[3]), f[4]),
                    size=rec["size"],
                    payload=rec.get("payload", b""),
                    app=rec.get("app", "unknown"),
                )
                cost += pipeline.process(pkt)
            return ({"processed": len(request["packets"])}, cost)

        super().__init__(make_backend, exec_fn, **kw)

    def submit_packets(self, packets, on_done: Callable[[dict | None], None]) -> None:
        recs = []
        for pkt in packets:
            f = pkt.flow
            recs.append(
                {
                    "flow": (f.src_ip, f.dst_ip, f.src_port, f.dst_port, f.proto),
                    "size": pkt.size,
                    "payload": pkt.payload,
                    "app": pkt.app,
                }
            )
        self.front.submit({"packets": recs}, on_done)
