"""The pluggable execution engine: Clock / Transport.

The runtime used to be welded to the deterministic discrete-event
:class:`~repro.runtime.sim.Simulator`: ``system.py`` built one,
``channels.py`` scheduled deliveries on it, ``delivery.py`` armed
retransmission timers on it, and the interpreter pumped strands through
it.  That coupling is factored into two backend interfaces here —
mirroring how the paper's prototype separates libcompart's channel layer
from the scheduling of component code:

* :class:`Clock` — ``now`` plus timer scheduling (``call_at`` /
  ``call_after`` returning cancellable handles) and the run loop
  (``run_until`` / ``run``).  The deterministic ``Simulator`` *is* a
  clock; the realtime backend maps logical seconds onto wall-clock
  asyncio timers.
* :class:`Transport` — carries a :class:`~repro.runtime.channels.Message`
  from the sender to the receiving junction's dispatch function after a
  link latency.  Loss, partitions, duplication and reordering stay in
  :class:`~repro.runtime.channels.Network` (they are *policy*, shared by
  every backend — which is what keeps chaos schedules engine-portable);
  the transport is only the *mechanism* that moves the bytes.

Host blocks (``⌊H⌉{V}``) are not an engine concern: on every engine
they run synchronously inside the strand, on the runtime thread, and
model their service time with ``ctx.take`` (the paper's host code is C
inlined in the junction's own compartment).

An :class:`ExecutionEngine` bundles one of each.  :class:`SimEngine`
wraps the existing simulator so the default behaviour — including
byte-identical telemetry, chaos schedules and ``repro explore``
replay — is unchanged; :class:`~repro.runtime.realtime.RealtimeEngine`
(see :mod:`repro.runtime.realtime`) runs the same architectures on
wall-clock time.

Engine selection::

    System(program, engine="realtime")          # by name
    System(program, engine=RealtimeEngine())    # by instance
    with default_engine(lambda: RealtimeEngine()):
        FailoverRedis(...)                      # wrappers that build their
                                                # own System inside __init__

Controlled scheduling (the exploration harness) is an *engine
capability*: only engines with ``supports_controlled_scheduling`` can
honour a :func:`use_controller` scope, and :class:`System` refuses the
combination otherwise instead of silently ignoring the controller.
"""

from __future__ import annotations

import contextlib
import dataclasses
import inspect
from typing import TYPE_CHECKING, Callable

from .sim import EventHandle, ScheduleController, Simulator, use_controller

if TYPE_CHECKING:  # pragma: no cover
    from .channels import Message, Network
    from .system import System

__all__ = [
    "Clock",
    "ClockTransport",
    "EngineSpec",
    "ExecutionEngine",
    "ScheduleController",
    "SimEngine",
    "Transport",
    "controller_pending",
    "create_engine",
    "default_engine",
    "use_controller",
]


class Clock:
    """Timer scheduling + the run loop.

    The deterministic :class:`~repro.runtime.sim.Simulator` satisfies
    this interface natively (this class documents the contract; engines
    may duck-type).  ``label`` and ``footprint`` are schedule-replay
    metadata — backends without controlled scheduling ignore them.

    ``controller`` is the attached
    :class:`~repro.runtime.sim.ScheduleController`, the only reader of
    that metadata.  It is always ``None`` on the realtime and cluster
    clocks; a Simulator gets one at construction inside a
    :func:`use_controller` scope.  Per-message scheduling sites
    (deliveries, retransmission timers) build labels and footprints
    only while it is set.
    """

    now: float = 0.0
    controller: ScheduleController | None = None

    def call_at(self, time: float, callback: Callable[[], None], priority: int = 0,
                *, label: str | None = None, footprint: object = None) -> EventHandle:
        raise NotImplementedError

    def call_after(self, delay: float, callback: Callable[[], None], priority: int = 0,
                   *, label: str | None = None, footprint: object = None) -> EventHandle:
        raise NotImplementedError

    def post(self, callback: Callable[[], None],
             *, label: str | None = None, footprint: object = None) -> None:
        """Fire-and-forget zero-delay schedule (no cancellation handle).
        Semantically ``call_after(0, callback)``; hot paths that never
        cancel (junction attempts, strand pumps) use it to skip the
        handle allocation.  The default delegates to :meth:`call_after`."""
        self.call_after(0.0, callback, label=label, footprint=footprint)

    def run_until(self, time: float) -> None:
        raise NotImplementedError

    def run(self, max_events: int = 10_000_000) -> None:
        raise NotImplementedError

    def pending_events(self) -> int:
        raise NotImplementedError


class Transport:
    """Moves messages between junction endpoints.

    :meth:`deliver` receives the message, the link latency the
    :class:`~repro.runtime.channels.Network` already resolved (loss and
    partition policy have been applied by the caller), and the network's
    ``dispatch`` function that performs receiver-side processing.  The
    transport's job is to invoke ``dispatch(msg)`` on the engine's
    runtime context after the latency has elapsed.

    ``in_flight`` counts messages handed to the transport whose dispatch
    has not run yet — part of the engine's quiescence accounting.
    """

    #: dispatch happens in-process on the runtime thread (no wire format)
    inproc = True

    def __init__(self):
        self.in_flight = 0

    def bind(self, network: "Network", clock: Clock) -> None:
        self.network = network
        self.clock = clock

    def deliver(self, msg: "Message", latency: float,
                dispatch: Callable[["Message"], None], *,
                label: str | None = None, footprint: object = None) -> None:
        raise NotImplementedError

    def close(self) -> None:  # pragma: no cover - trivial default
        pass


class ClockTransport(Transport):
    """The in-process transport: delivery is a clock timer.

    Used by both the sim engine (simulated latency) and the realtime
    engine's ``inproc`` mode (latency scaled onto wall time by the
    realtime clock).  The timer carries the delivery's schedule label
    and commute footprint, so exploration-mode replay sees exactly the
    event stream previous releases produced.
    """

    def deliver(self, msg, latency, dispatch, *, label=None, footprint=None):
        self.in_flight += 1

        def fire(m=msg):
            self.in_flight -= 1
            dispatch(m)

        self.clock.call_after(latency, fire, label=label, footprint=footprint)


class ExecutionEngine:
    """One clock + transport, attached to one System."""

    name = "?"
    supports_controlled_scheduling = False

    def __init__(self, clock: Clock, transport: Transport):
        self.clock = clock
        self.transport = transport
        self.system: "System | None" = None

    def attach(self, system: "System") -> None:
        """Bind the engine to its system (wires the transport to the
        network).  Called once, at the end of ``System.__init__``."""
        self.system = system
        self.transport.bind(system.network, self.clock)

    # -- run loop -----------------------------------------------------------

    def run_until(self, time: float) -> None:
        self.clock.run_until(time)

    def run(self, max_events: int = 10_000_000) -> None:
        self.clock.run(max_events)

    def pending_work(self) -> int:
        """Timers + in-flight messages; zero means the system is
        quiescent (nothing will happen without external input)."""
        return self.clock.pending_events() + self.transport.in_flight

    def drain(self, grace: float = 5.0) -> bool:
        """Graceful shutdown: run until in-flight messages settle, or
        ``grace`` logical seconds elapse.  Returns True when fully
        drained.  Engines with external resources (cluster workers)
        extend this; the default just runs the clock against the
        transport's in-flight counter."""
        deadline = self.clock.now + max(grace, 0.0)
        while self.transport.in_flight > 0 and self.clock.now < deadline:
            self.clock.run_until(min(self.clock.now + 0.1, deadline))
        return self.transport.in_flight == 0

    # -- live reconfiguration ----------------------------------------------

    def prepare_instances(self, names) -> None:
        """Provision backend resources for instances about to be added
        by a live reconfiguration (cluster: spawn worker processes).
        Called from blocking code before the transition's quiesce phase;
        a no-op for in-process engines."""

    def retire_instances(self, names) -> None:
        """Release backend resources of instances removed by a live
        reconfiguration (cluster: shut down and reap their workers).
        Called after the transition completes; a no-op for in-process
        engines."""

    def close(self) -> None:
        """Release backend resources (sockets, event loops).
        Idempotent; a no-op for the sim engine."""
        self.transport.close()


class SimEngine(ExecutionEngine):
    """The deterministic discrete-event backend (the default).

    Wraps a :class:`~repro.runtime.sim.Simulator` — optionally a shared
    one, so several systems can run on one timeline.
    """

    name = "sim"
    supports_controlled_scheduling = True

    def __init__(self, sim: Simulator | None = None):
        super().__init__(sim if sim is not None else Simulator(), ClockTransport())

    @property
    def sim(self) -> Simulator:
        return self.clock


# ---------------------------------------------------------------------------
# Engine selection
# ---------------------------------------------------------------------------

#: engine specs accepted by ``create_engine`` / ``System(engine=...)`` /
#: ``repro run --engine``
ENGINE_NAMES = ("sim", "realtime", "realtime-tcp", "cluster")


_TRUE_WORDS = ("1", "true", "yes", "on")
_FALSE_WORDS = ("0", "false", "no", "off")


@dataclasses.dataclass(frozen=True)
class EngineSpec:
    """One value describing *how to execute* a System: the engine
    backend plus its options plus the compile mode.

    An ``EngineSpec`` is
    accepted uniformly by :class:`~repro.runtime.system.System`,
    :func:`default_engine`, and every CLI subcommand's ``--engine``
    flag, with a single textual form::

        sim
        sim,compiled=off
        realtime,time_scale=0.05
        realtime-tcp
        cluster,workers=4

    ``compiled`` selects junction compilation (``None`` = ambient
    default, see :func:`repro.compile.compilation`); it is a System
    concern, not an engine constructor argument.  ``options`` carries
    any further ``key=value`` pairs through to the engine constructor
    (e.g. ``heartbeat_timeout`` for the cluster backend).
    """

    name: str = "sim"
    workers: int | None = None
    time_scale: float | None = None
    compiled: bool | None = None
    options: tuple[tuple[str, object], ...] = ()

    @classmethod
    def of(cls, spec: "EngineSpec | str | None") -> "EngineSpec":
        """Coerce a spec-like value (EngineSpec, spec string, None)."""
        if spec is None:
            return cls()
        if isinstance(spec, EngineSpec):
            return spec
        if isinstance(spec, str):
            return cls.parse(spec)
        raise TypeError(f"cannot build an EngineSpec from {spec!r}")

    @classmethod
    def parse(cls, text: str) -> "EngineSpec":
        """Parse the textual form (``name[,key=value...]``)."""
        parts = [p.strip() for p in text.split(",") if p.strip()]
        if not parts:
            raise ValueError("empty engine spec")
        name = "sim"
        if "=" not in parts[0]:
            name = parts[0]
            parts = parts[1:]
        workers = time_scale = compiled = None
        options: list[tuple[str, object]] = []
        for part in parts:
            if "=" not in part:
                raise ValueError(
                    f"bad engine option {part!r} (expected key=value)"
                )
            key, _, raw = part.partition("=")
            key = key.strip()
            raw = raw.strip()
            if key == "workers":
                workers = int(raw)
            elif key == "time_scale":
                time_scale = float(raw)
            elif key == "compiled":
                if raw.lower() in _TRUE_WORDS:
                    compiled = True
                elif raw.lower() in _FALSE_WORDS:
                    compiled = False
                else:
                    raise ValueError(
                        f"bad value for compiled: {raw!r} (expected on/off)"
                    )
            else:
                options.append((key, _parse_option_value(raw)))
        return cls(
            name=name,
            workers=workers,
            time_scale=time_scale,
            compiled=compiled,
            options=tuple(sorted(options)),
        )

    def engine_kwargs(self) -> dict:
        """Constructor keyword arguments for :func:`create_engine`
        (everything except ``compiled``, which Systems interpret)."""
        kw: dict[str, object] = dict(self.options)
        if self.workers is not None:
            kw["workers"] = self.workers
        if self.time_scale is not None:
            kw["time_scale"] = self.time_scale
        return kw

    def check(self) -> "EngineSpec":
        """This spec, once an engine of its name is known to take its
        options (``ValueError`` otherwise); nothing is built."""
        _engine_class(self.name, self.engine_kwargs())
        return self

    def create(self) -> "ExecutionEngine":
        """Build a fresh engine for this spec."""
        return create_engine(self.name, **self.engine_kwargs())

    def __str__(self) -> str:
        parts = [self.name]
        if self.workers is not None:
            parts.append(f"workers={self.workers}")
        if self.time_scale is not None:
            parts.append(f"time_scale={self.time_scale}")
        if self.compiled is not None:
            parts.append(f"compiled={'on' if self.compiled else 'off'}")
        parts.extend(f"{k}={v}" for k, v in self.options)
        return ",".join(parts)


def _parse_option_value(raw: str) -> object:
    if raw.lower() in _TRUE_WORDS:
        return True
    if raw.lower() in _FALSE_WORDS:
        return False
    try:
        return int(raw)
    except ValueError:
        pass
    try:
        return float(raw)
    except ValueError:
        pass
    return raw


def _engine_class(name: str, kw: dict) -> tuple[type, dict]:
    """The constructor behind engine ``name`` and the keyword arguments
    the name itself fixes.  Raises ``ValueError`` naming the engine,
    the options it does not take and the ones it does, before anything
    is built."""
    fixed: dict = {}
    if name == "sim":
        cls: type = SimEngine
    elif name in ("realtime", "realtime-tcp"):
        from .realtime import RealtimeEngine

        cls = RealtimeEngine
        if name == "realtime-tcp":
            fixed = {"transport": "tcp"}
    elif name == "cluster":
        from .cluster import ClusterEngine

        cls = ClusterEngine
    else:
        raise ValueError(f"unknown engine {name!r} (expected one of {', '.join(ENGINE_NAMES)})")
    accepted = [p for p in inspect.signature(cls).parameters if p not in fixed]
    unknown = sorted(set(kw) - set(accepted))
    if unknown:
        raise ValueError(
            f"engine {name!r} has no option {', '.join(unknown)} "
            f"(accepted: {', '.join(accepted) or 'none'})"
        )
    return cls, fixed


def create_engine(spec: str, **kw) -> ExecutionEngine:
    """Build an engine from its name: ``sim``, ``realtime`` (asyncio +
    in-process channels), ``realtime-tcp`` (asyncio + TCP loopback
    channels) or ``cluster`` (one supervised OS process per instance or
    shard group).  Keyword arguments pass through to the engine
    constructor (e.g. ``time_scale`` for the realtime backends,
    ``workers``/``heartbeat_timeout`` for the cluster backend); one it
    does not take is a ``ValueError`` that lists the ones it does."""
    cls, fixed = _engine_class(spec, kw)
    return cls(**fixed, **kw)


#: factory consulted by ``System.__init__`` when no explicit engine (or
#: sim) is passed — the engine-level analogue of ``use_controller``,
#: needed because architecture wrappers build and start their System
#: inside ``__init__``, before a caller could hand one in
_engine_factory: Callable[[], ExecutionEngine] | None = None
#: the EngineSpec behind the ambient factory, when one was given — lets
#: Systems inherit spec-level settings (``compiled``) too
_engine_spec: EngineSpec | None = None


@contextlib.contextmanager
def default_engine(factory: "Callable[[], ExecutionEngine] | EngineSpec | str"):
    """Make every :class:`System` constructed inside the ``with`` block
    default to the given engine (one fresh engine per system).  Accepts
    a factory callable, an :class:`EngineSpec`, or a spec string::

        with default_engine(lambda: RealtimeEngine(time_scale=0.05)):
            svc = FailoverRedis(seed=7)
        with default_engine("realtime,time_scale=0.05,compiled=off"):
            svc = FailoverRedis(seed=7)
    """
    global _engine_factory, _engine_spec
    spec: EngineSpec | None = None
    if isinstance(factory, (EngineSpec, str)):
        spec = EngineSpec.of(factory)
        fac = spec.create
    else:
        fac = factory
    prev = (_engine_factory, _engine_spec)
    _engine_factory, _engine_spec = fac, spec
    try:
        yield
    finally:
        _engine_factory, _engine_spec = prev


def _default_engine_factory() -> Callable[[], ExecutionEngine] | None:
    return _engine_factory


def _default_engine_spec() -> EngineSpec | None:
    return _engine_spec


def controller_pending() -> bool:
    """True when a :func:`use_controller` scope is active (the next
    Simulator built will attach a schedule controller)."""
    from . import sim as _sim

    return _sim._controller_factory is not None
