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
from ..redislite.server import RedisServer
from ..runtime.system import System
from ..suricatalite.pipeline import Pipeline
from .loader import load_source
from .ports import (
    BackApp, ExecFn, FrontApp, RedisPort, RequestReply, Roles, redis_exec, suricata_exec,
)


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


_ROLES = Roles(
    front="FrontT", node="f::c", backs=("BackT",),
    first="H1", respond="H3", execute="H2", request="req", reply="preresp",
)


class FailoverService(RequestReply):
    """A request/reply service with warm-replica fail-over."""

    def __init__(
        self,
        make_backend: Callable[[int], object],
        exec_fn: ExecFn,
        *,
        latency: float = 100e-6,
        timeout: float = 0.5,
        seed: int = 0,
        reactivate_poll: float | None = 1.0,
        run_for: float = 1.0,
        program_name: str = "failover",
        program: CompiledProgram | None = None,
    ):
        self.program_name = program_name
        super().__init__(
            program_name, _ROLES, _FoFrontApp,
            # a replica's number is its position among the replicas
            # running *now*: one swapped in live takes over the number
            # of the one it replaces
            lambda inst: BackApp(make_backend(self.back_instances().index(inst.name))),
            exec_fn, latency=latency, seed=seed, program=program,
        )
        sys_ = self.system
        # 'state': the canonical state (f::b and f::c exchange it)
        sys_.bind_state(
            "FrontT", data_name="state",
            save=lambda app, inst: app.canonical,
            restore=lambda app, inst, obj: setattr(app, "canonical", obj),
        )
        sys_.bind_state(
            "BackT", data_name="state",
            save=lambda app, inst: getattr(app, "canonical", {"seq": 0}),
            restore=lambda app, inst, obj: setattr(app, "canonical", obj),
        )
        self._start(t=timeout)
        # let the registration/initialization phase complete
        sys_.run_until(sys_.now + run_for)

        # the paper schedules reactivate from the application; poll it
        if reactivate_poll is not None:
            self._arm_reactivate_poll(reactivate_poll)

    def _respond(self, ctx) -> None:
        ctx.app.seq += 1
        ctx.app.canonical = {"seq": ctx.app.seq}
        ctx.app.respond()

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

    def backend_app(self, idx: int) -> BackApp:
        return self.system.instance(self.back_instances()[idx]).app

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


class FailoverRedis(FailoverService, RedisPort):
    """Fail-over over two redislite replicas (RequestPort).

    ``slow_backend`` (index, extra seconds) injects a per-request delay
    on one replica — used to show how the conservative all-replica wait
    compares with the first-response-wins variant."""

    def __init__(self, *, cost_model=None, slow_backend=None, **kw):
        def exec_fn(app: BackApp, request: dict, now: float):
            reply, cost = redis_exec(app, request, now)
            if slow_backend is not None and app.payload.name == f"replica{slow_backend[0]}":
                cost += slow_backend[1]
            return reply, cost

        super().__init__(
            lambda i: RedisServer(name=f"replica{i}", cost=cost_model), exec_fn, **kw
        )

    def preload(self, commands) -> None:
        for cmd in commands:
            for b in self.back_instances():
                self.system.instance(b).app.payload.execute(cmd, now=0.0)


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
        super().__init__(lambda i: Pipeline(), suricata_exec, **kw)

    def submit_packets(self, packets, on_done: Callable[[dict | None], None]) -> None:
        self.front.submit({"packets": [pkt.to_record() for pkt in packets]}, on_done)
