"""The one binding between the DSL architectures and the substrates.

Every shipped architecture with a request/reply shape has a *front*
instance that takes client requests and *back* instances that execute
them; what the programs disagree on is names.  :class:`RequestReply`
is that binding written once — the queue of client requests, the first
host block that takes the next one, the blocks that complete or fail
it, the back-end block that runs it on the substrate, and the state
providers that ship the request and the reply between them — and
:class:`Roles` is what a program calls each part.  A wrapper states its
roles, its substrate's ``exec_fn`` and whatever blocks only it has,
mirroring the paper's observation that the architecture code is
decoupled from the application logic it dispatches (sec. 7.3).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable

from ..core.compiler import CompiledProgram
from ..core.errors import DslFailure, HostError
from ..redislite.server import Command, Reply
from ..runtime.faults import FaultPlan
from ..runtime.system import System
from ..suricatalite.packet import Packet
from .loader import BACKENDS, backend_names, declared_hosts, load_program

#: runs a request dict on a back-end: (app, request, now) -> (reply, cost)
ExecFn = Callable[["BackApp", dict, float], tuple[dict, float]]


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


@dataclass(frozen=True)
class Roles:
    """What one program calls the parts of the request/reply binding."""

    front: str  #: the front instance type
    node: str  #: the front junction a client's ``Req`` is asserted on
    backs: tuple[str, ...]  #: the back-end instance types
    first: str  #: the front block that takes the next request
    respond: str | None  #: the front block that completes it (``None``: one-way)
    execute: str  #: the back-end block that runs it
    request: str  #: the data name that carries the request
    reply: str | None  #: the data name that carries the reply
    cost: float = 5e-6  #: what the first block itself takes


def _nothing(*_):
    """A block with nothing to tell the application, a provider with
    nothing to install."""


class Service:
    """A shipped program running with its host bindings."""

    system: System

    @property
    def sim(self):
        return self.system.sim

    def fault_plan(self) -> FaultPlan:
        return FaultPlan(self.system)

    def _start(self, **main_args) -> None:
        """Run ``main`` — once every instance type's bindings are the
        ⌊H⌉ names the program declares, no fewer and no more: a
        misspelt block otherwise fails the first request to reach it,
        and a block bound under a name no junction runs never runs."""
        for tname, trt in self.system.types.items():
            declared, bound = declared_hosts(trt), set(trt.host_fns)
            if declared != bound:
                raise HostError(
                    f"{type(self).__name__}: instance type {tname!r} has host "
                    f"blocks {sorted(declared - bound)} not bound and "
                    f"{sorted(bound - declared)} bound but never declared"
                )
        self.system.start(**main_args)


class RequestReply(Service):
    """The front/back request-reply binding of program ``name``.

    Construction loads the program, builds the :class:`System` and
    binds everything :class:`Roles` names; the wrapper then binds the
    blocks only it has and calls :meth:`_start`.  ``front_app(system,
    node)`` makes the :class:`FrontApp`, ``back_app(instance)`` each
    back-end's :class:`BackApp`; a wrapper that routes overrides
    :meth:`_route`.
    """

    def __init__(
        self,
        name: str,
        roles: Roles,
        front_app: Callable[[System, str], FrontApp],
        back_app: Callable[[object], BackApp],
        exec_fn: ExecFn,
        *,
        latency: float,
        seed: int,
        n_backends: int | None = None,
        program: CompiledProgram | None = None,
    ):
        self._roles = roles
        self.exec_fn = exec_fn
        if program is None:
            program = load_program(name, n_backends=n_backends)
        self.program = program
        self.system = sys_ = System(program, latency=latency, seed=seed)
        self.front = front_app(sys_, roles.node)

        sys_.bind_app(roles.front, lambda inst: self.front)
        sys_.bind_host(roles.front, roles.first, self._first)
        sys_.bind_host(roles.front, "Complain", self._complain)
        if roles.respond is not None:
            sys_.bind_host(roles.front, roles.respond, self._respond)
        for back in roles.backs:
            sys_.bind_app(back, back_app)
            sys_.bind_host(back, roles.execute, self._exec)
            # a back-end that gives up has nobody to tell
            if "Complain" in declared_hosts(sys_.types[back]):
                sys_.bind_host(back, "Complain", _nothing)
        # both ends save what they hold; the back-ends install the
        # request shipped to them, the front the reply shipped back
        ends = [(roles.front, _nothing, lambda app, inst, obj: app.set_reply(obj))]
        ends += [(b, lambda app, inst, obj: app.receive(obj), _nothing) for b in roles.backs]
        for tname, install_request, install_reply in ends:
            sys_.bind_state(
                tname, data_name=roles.request,
                save=lambda app, inst: app.current, restore=install_request,
            )
            if roles.reply is not None:
                sys_.bind_state(
                    tname, data_name=roles.reply,
                    save=lambda app, inst: app.reply, restore=install_reply,
                )

    # -- the host blocks ------------------------------------------------------

    def _first(self, ctx) -> None:
        request = ctx.app.begin_next()
        if request is None:
            # a stale Req with an empty queue; fail this scheduling
            raise DslFailure("front-end scheduled with no pending request")
        self._route(ctx, request)
        ctx.take(self._roles.cost)

    def _route(self, ctx, request: dict) -> None:
        """What the first block decides about ``request`` (which
        back-end, whether it is cacheable, ...): nothing, here."""

    def _respond(self, ctx) -> None:
        ctx.app.respond()

    def _complain(self, ctx) -> None:
        ctx.app.fail_current()

    def _exec(self, ctx) -> None:
        app: BackApp = ctx.app
        if app.current is None:
            return
        reply, cost = self.exec_fn(app, app.current, ctx.now)
        app.set_reply(reply)
        ctx.take(cost)


class FamilyService(RequestReply):
    """A request/reply service whose back-ends are the program's
    :data:`~repro.arch.loader.BACKENDS` family, ``backends[i]`` being
    shard, replica or partition ``i``."""

    def __init__(self, name: str, *args, n_backends: int, **kw):
        self._name = name
        self.backends = backend_names(n_backends)
        super().__init__(name, *args, n_backends=n_backends, **kw)

    def _index(self, inst) -> int:
        """``inst``'s position in the family of the program running
        *now*, so a back-end added by a live resize gets the right
        shard / partition number."""
        return self.system.program.family(BACKENDS).index(inst.name)

    def backend_app(self, i: int) -> BackApp:
        return self.system.instance(self.backends[i]).app

    def _resize(self, n: int, move, switch, *, quiesce_grace: float):
        """Live-resize the family to ``n`` back-ends through a
        reconfiguration transition with zero dropped requests.  In the
        state-transfer step ``move(sources, targets)`` gets the payload
        of every old back-end (removed ones included) and of every new
        one, both in family order; ``switch()`` then points the
        wrapper's routing at the new set.  Returns the
        :class:`~repro.reconfig.ReconfigReport`."""
        if n == len(self.backends):
            return self.system.reconfigure(quiesce_grace=quiesce_grace)
        old, new = self.backends, backend_names(n)

        def transfer(system: System, removed_apps: dict) -> None:
            apps = [
                removed_apps[b] if b in removed_apps else system.instances[b].app
                for b in old
            ]
            move(
                [app.payload for app in apps if app is not None],
                [system.instance(b).app.payload for b in new],
            )
            # routing switches here, inside the cutover: resume replays
            # the buffered requests before ``reconfigure`` returns, and
            # they must be routed over the back-end set just rebound (a
            # rolled-back transition never reaches the transfer step)
            self.backends = new
            switch()

        return self.system.reconfigure(
            load_program(self._name, n_backends=n),
            on_transfer=transfer, quiesce_grace=quiesce_grace,
        )


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


def redis_exec(app: BackApp, request: dict, now: float) -> tuple[dict, float]:
    """The ``exec_fn`` of a back-end whose payload is a ``RedisServer``."""
    cmd = Command(request["op"], request["key"], request.get("value", b""))
    reply, cost = app.payload.execute(cmd, now=now)
    return {"ok": reply.ok, "value": reply.value, "hit": reply.hit}, cost


def suricata_exec(app: BackApp, request: dict, now: float) -> tuple[dict, float]:
    """The ``exec_fn`` of a back-end whose payload is a suricatalite
    ``Pipeline``: the request is a batch of packet records."""
    pipeline = app.payload
    before = len(pipeline.ctx.alerts)
    cost = 0.0
    for record in request["packets"]:
        cost += pipeline.process(Packet.from_record(record, ts=now))
    return (
        {"processed": len(request["packets"]), "alerts": len(pipeline.ctx.alerts) - before},
        cost,
    )
