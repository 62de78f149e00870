"""System assembly: programs + host bindings + network + scheduler.

A :class:`System` loads a :class:`~repro.core.compiler.CompiledProgram`,
creates the declared instances, and runs the architecture on simulated
time.  It plays the role of the paper's libcompart deployment: starting
the special ``main`` computation, interconnecting junctions, routing KV
updates, evaluating junction guards, and exposing fault injection.

Scheduling model
----------------

A junction executes when *scheduled*.  Scheduling attempts happen:

* when a KV update arrives while the junction is idle,
* when the embedding application pokes it
  (:meth:`System.external_update` / :meth:`System.poke`),
* right after an instance starts (each junction gets an initial
  attempt — the paper starts an instance's junctions concurrently in
  arbitrary order),
* after an execution finishes with queued pending updates.

An attempt applies pending updates, evaluates the guard and — if the
guard holds — runs the junction body.  Guards therefore express the
paper's scheduling assumptions (``guard Work``, ``guard !Starting &&
Req`` …).
"""

from __future__ import annotations

import random
from functools import partial
from typing import Callable, Mapping

from ..core import ast as A
from ..core.compiler import CompiledProgram
from ..core.errors import (
    CompileError,
    DslFailure,
    StartStopFailure,
    UndeclaredKeyError,
    UndefError,
)
from ..core.elaborate import junction_env, main_env, start_groups
from ..core.expand import specialize, to_ast_value
from ..core.formula import UNKNOWN, evaluate
from ..core.validate import validate_closed_junction
from ..serde.framing import Serializer
from ..analysis.capture import note_program
from ..telemetry import Telemetry
from ..telemetry.facade import note_system
from .channels import Message, Network
from .delivery import DeliveryPolicy, ReliableDelivery
from .engine import (
    EngineSpec,
    ExecutionEngine,
    SimEngine,
    _default_engine_factory,
    _default_engine_spec,
    controller_pending,
)
from .instance import Closure, InstanceRuntime, InstanceTypeRuntime, JunctionRuntime
from .interpreter import JunctionExecution
from .kvtable import UNDEF, Update


def _close(cj, env: Mapping[str, object], instance: str, junction: str) -> Closure:
    """Template ``cj`` closed under ``env`` for ``instance::junction``.

    Specialised and validated on the first bind of the key, then kept
    in ``cj.closures`` for as long as the program lives, so a rebuild,
    a restart and a rebind reuse it.  The key is the environment's
    items, not the template: hashing a frozen AST walks all of it.  A
    closure that fails validation raises on every bind and is not
    kept.  Every environment value is an AST value
    (:func:`~repro.core.expand.to_ast_value`), so the key hashes."""
    key = (tuple(env.items()), instance, junction)
    closure = cj.closures.get(key)
    if closure is None:
        closed = specialize(cj.body, cj.decls, env, (instance, junction))
        validate_closed_junction(cj.qualified, closed.decls, closed.body, cj.params)
        closure = cj.closures[key] = Closure(closed.body, closed.decls, closed.guard)
    return closure


class System:
    """A running C-Saw architecture."""

    def __init__(
        self,
        program: CompiledProgram,
        *,
        latency: float = 0.05,
        intra_latency: float = 0.0005,
        max_retries: int = 3,
        seed: int = 0,
        serializer: Serializer | None = None,
        delivery_policy: DeliveryPolicy | None = None,
        telemetry: Telemetry | bool | None = None,
        host_contract: str = "strict",
        engine: ExecutionEngine | EngineSpec | str | None = None,
    ):
        if host_contract not in ("strict", "warn"):
            raise ValueError(
                f"host_contract must be 'strict' or 'warn', got {host_contract!r}"
            )
        self.program = program
        #: how undeclared host-block writes are handled: ``"strict"``
        #: raises :class:`~repro.core.errors.HostError`; ``"warn"``
        #: performs the write and emits a ``host_contract_violation``
        #: telemetry event (sec. 6's ``⌊H⌉{V}`` write contract)
        self.host_contract = host_contract
        # -- execution engine resolution: explicit engine/spec >
        #    ambient default_engine() scope > fresh SimEngine.  Spec
        #    strings and EngineSpec values carry a compile mode too.
        compiled: bool | None = None
        if isinstance(engine, (EngineSpec, str)):
            spec = EngineSpec.of(engine)
            compiled = spec.compiled
            engine = spec.create()
        if engine is None:
            factory = _default_engine_factory()
            if factory is not None:
                engine = factory()
                ambient = _default_engine_spec()
                if ambient is not None:
                    compiled = ambient.compiled
            else:
                engine = SimEngine()
        if compiled is None:
            from ..compile import compile_default

            compiled = compile_default()
        self._compiled = bool(compiled)
        #: node -> JunctionRuntime resolution cache; cleared whenever
        #: the instance/junction topology changes (reconfiguration)
        self._junction_cache: dict[str, JunctionRuntime] = {}
        if controller_pending() and not engine.supports_controlled_scheduling:
            raise ValueError(
                f"engine {engine.name!r} does not support controlled scheduling "
                "(use_controller / repro explore require the sim engine)"
            )
        self.engine = engine
        self.clock = engine.clock
        self.rng = random.Random(seed)
        # the telemetry facade owns the metrics registry shared by the
        # transport, delivery layer, KV tables and interpreter;
        # ``telemetry=False`` disables event emission (metrics stay on,
        # they are plain integer counters) for clean timing runs
        if isinstance(telemetry, Telemetry):
            self.telemetry = telemetry
            self.telemetry.clock = self.clock
        else:
            self.telemetry = Telemetry(self.clock, enabled=telemetry is not False)
        # tag every metric and exported trace line with the engine, so
        # sim and realtime runs of one workload are distinguishable
        self.telemetry.engine = engine.name
        self.telemetry.metrics.constant_labels["engine"] = engine.name
        note_system(self.telemetry)
        note_program(program)
        self.network = Network(
            self.clock,
            default_latency=latency,
            intra_latency=intra_latency,
            rng=self.rng,
            metrics=self.telemetry.metrics,
            transport=engine.transport,
        )
        self.network.telemetry = self.telemetry
        self.delivery = ReliableDelivery(self, delivery_policy, seed=seed)
        self.max_retries = max_retries
        self.serializer = serializer or Serializer()

        self.types: dict[str, InstanceTypeRuntime] = {}
        for tname in program.source.instance_types:
            self.types[tname] = InstanceTypeRuntime(tname, program.junctions_of_type(tname))

        self.instances: dict[str, InstanceRuntime] = {}
        for iname, tname in program.instance_map().items():
            self.instances[iname] = InstanceRuntime(iname, self.types[tname])

        self._executions: dict[str, JunctionExecution] = {}
        self._started_main = False
        #: AST-valued environment ``main`` was started with (config +
        #: caller overrides); reconfiguration re-evaluates the *new*
        #: program's start expression against it so unchanged parameters
        #: keep their original values
        self._main_env: dict[str, object] = {}
        #: re-entrancy latch for :meth:`reconfigure`
        self._reconfiguring = False
        #: transient causal context: the event that triggered the KV
        #: receive currently being processed (see ``_make_deliver``)
        self._attempt_cause: int | None = None
        self.failures: list[tuple[float, str, BaseException]] = []
        engine.attach(self)

    @property
    def sim(self):
        """The engine's clock (named for the original Simulator-only
        runtime; on a realtime engine this is the wall-clock timer
        facade).  Kept as the stable alias embedding code and the
        chaos/fault layers schedule against."""
        return self.clock

    # ------------------------------------------------------------------
    # Host bindings
    # ------------------------------------------------------------------

    def type_runtime(self, type_name: str) -> InstanceTypeRuntime:
        try:
            return self.types[type_name]
        except KeyError:
            raise CompileError(f"no instance type {type_name!r}") from None

    def bind_host(self, type_name: str, fn_name: str, fn) -> None:
        """Bind host function ``fn_name`` of instance type ``type_name``."""
        self.type_runtime(type_name).bind_host(fn_name, fn)

    def host(self, type_name: str, fn_name: str):
        """Decorator form of :meth:`bind_host`."""

        def deco(fn):
            self.bind_host(type_name, fn_name, fn)
            return fn

        return deco

    def bind_app(self, type_name: str, factory) -> None:
        """Application-object factory, called per instance at start."""
        self.type_runtime(type_name).app_factory = factory

    def bind_state(
        self,
        type_name: str,
        *,
        save=None,
        restore=None,
        schema: str | None = None,
        data_name: str | None = None,
    ) -> None:
        """Register host-state capture for ``save``/``restore``.

        ``data_name`` scopes the providers to one named data item;
        otherwise they become the type's defaults.
        """
        t = self.type_runtime(type_name)
        from .instance import StateProviders

        providers = StateProviders(save=save, restore=restore, schema=schema)
        if data_name is None:
            t.state = providers
        else:
            t.data_state[data_name] = providers

    # ------------------------------------------------------------------
    # Program start-up
    # ------------------------------------------------------------------

    @property
    def now(self) -> float:
        return self.clock.now

    def start(self, **main_args) -> None:
        """Run ``main``: evaluates the start-up expression.

        ``main_args`` bind main's parameters by name; unbound parameters
        fall back to the program's compile-time config.
        """
        if self._started_main:
            raise CompileError("main already started")
        main = self.program.main
        env, missing = main_env(self.program, main_args)
        if missing:
            raise CompileError(f"main parameters missing values: {missing}")
        self._started_main = True
        if main is None:
            return
        self._main_env = dict(env)
        # main runs on a distinguished start-up pseudo-instance
        init = InstanceRuntime("__init__", InstanceTypeRuntime("__init__", [main]))
        init.running = True
        jr = init.junctions["main"]
        self._bind_junction(init, jr, tuple(env[p] for p in main.params), env)
        execution = self._executions[jr.node] = JunctionExecution(self, jr)
        execution.start()
        # drain immediate events so starts complete deterministically
        self.engine.run_until(self.clock.now)

    def run_until(self, time: float) -> None:
        self.engine.run_until(time)

    def run(self, max_events: int = 10_000_000) -> None:
        self.engine.run(max_events)

    def shutdown(self) -> None:
        """Release engine resources (worker threads, sockets, event
        loops).  A no-op for the default sim engine; realtime systems
        should be shut down when the embedding application is done."""
        self.engine.close()

    # ------------------------------------------------------------------
    # Instance lifecycle
    # ------------------------------------------------------------------

    def instance(self, name: str) -> InstanceRuntime:
        try:
            return self.instances[name]
        except KeyError:
            raise CompileError(f"no instance {name!r}") from None

    def _resolve_instance_name(self, ref: A.Ref, caller: JunctionRuntime | None) -> str:
        """Resolve a start/stop target, dereferencing the caller's idx
        cursors and parameters (so ``start which(t)`` works with
        ``idx which of {...}`` — used by elastic scale-out)."""
        name = str(ref)
        if name in self.instances or caller is None:
            return name
        if ref.is_simple and ref.name in caller.declared.idx:
            v = caller.table.get(ref.name)
            if v is UNDEF:
                raise UndefError(f"{caller.node}: index {ref.name!r} is undef")
            return str(v)
        if ref.is_simple and isinstance(caller.params.get(ref.name), str):
            return caller.params[ref.name]
        return name

    def _execution_event(self, caller: JunctionRuntime | None) -> int | None:
        """The ``sched`` event of the caller's running execution — the
        causal parent of lifecycle actions taken from DSL code."""
        if caller is None:
            return None
        ex = self._executions.get(caller.node)
        return ex.sched_event if ex is not None else None

    def exec_start(
        self, instance: A.Ref, junction_args: tuple, caller: JunctionRuntime | None
    ) -> None:
        """Execute a ``start`` statement (the fields of ``A.Start``)."""
        name = self._resolve_instance_name(instance, caller)
        inst = self.instance(name)
        if inst.running and not inst.crashed:
            raise StartStopFailure(f"start {name}: instance already running")
        arg_groups = start_groups(name, inst.junctions.values(), junction_args)
        self._start_instance(inst, arg_groups, parent=self._execution_event(caller))

    def start_instance(self, name: str, /, **junction_args) -> None:
        """Host-level instance start.  ``junction_args`` maps junction
        name to a dict of parameter values (or, for a sole junction, may
        be the parameter dict directly via ``args=...``)."""
        inst = self.instance(name)
        if inst.running and not inst.crashed:
            raise StartStopFailure(f"start {name}: instance already running")
        groups: dict[str, tuple] = {}
        for jname, params in junction_args.items():
            jr = inst.junction(jname)
            ordered = tuple(
                to_ast_value(params[p]) for p in jr.compiled.params
            )
            groups[jname] = ordered
        self._start_instance(inst, groups)

    def _start_instance(
        self,
        inst: InstanceRuntime,
        arg_groups: Mapping[str, tuple],
        parent: int | None = None,
    ) -> None:
        inst.running = True
        inst.crashed = False
        inst.start_count += 1
        self.network.set_down(inst.name, False)
        if inst.type.app_factory is not None:
            inst.app = inst.type.app_factory(inst)
        config_env = self.program.config_env()

        for jname, jr in inst.junctions.items():
            self._bind_junction(inst, jr, arg_groups.get(jname, ()), config_env)

        self.telemetry.counter("instance_starts", instance=inst.name).inc()
        ev = self.telemetry.emit("start_instance", inst.name, parent=parent)
        # junctions of a started instance start concurrently, in
        # arbitrary order — model with an immediate attempt for each
        for jr in inst.junctions.values():
            self._attempt_soon(jr, cause=ev)

    def _bind_junction(
        self,
        inst: InstanceRuntime,
        jr: JunctionRuntime,
        args: tuple,
        config_env: Mapping[str, object],
    ) -> None:
        """Specialize a junction template against its arguments and wire
        it into the network.  Used both at instance start and when the
        reconfiguration executor rebinds a live junction to a new
        template (the table is re-initialized; the caller restores any
        carried-over state afterwards).  A template is closed once per
        environment and instance while its program lives (:func:`_close`)."""
        cj = jr.compiled
        env = junction_env(config_env, cj, args, inst.name)
        closure = jr.closure = _close(cj, env, inst.name, jr.name)
        jr.body, jr.decls = closure.body, closure.decls
        jr.guard = closure.guard
        jr.ast_params = dict(zip(cj.params, args))
        jr.params = {p: _to_runtime_value(v) for p, v in jr.ast_params.items()}
        self._init_table(jr)
        jr.code = self._compile_junction(jr)
        self.network.register(jr.node, self._make_deliver(jr))

    def _init_table(self, jr: JunctionRuntime) -> None:
        """Give ``jr`` its closure's initial table (a bind, or a
        restart that re-initialises) and wire the table to this system."""
        jr.init_state()
        jr.table.attach_telemetry(self.telemetry)
        jr.table.on_idle_update = lambda j=jr: self._attempt_soon(j)

    def reconfigure(
        self,
        new_program: CompiledProgram | None = None,
        *,
        main_args: Mapping[str, object] | None = None,
        quiesce_grace: float = 5.0,
        poll: float = 0.01,
        bind: "Callable[[System], None] | None" = None,
        on_transfer=None,
    ):
        """Live-reconfigure this running system to ``new_program``.

        Diffs the running architecture against the target, plans the
        transition (spawn → quiesce inbound junctions → serde state
        snapshot → cutover → stop/rebind/start → transfer → resume) and
        runs that plan without dropping client requests: updates to a
        quiescing junction keep buffering (and acking) through the
        reliable-delivery layer and replay after cutover.

        ``new_program=None`` re-binds against the *same* program with
        new ``main_args`` (parameter-only reconfiguration).  ``bind``
        runs before cutover to install host bindings for newly added
        instance types; ``on_transfer(system, removed_apps)`` runs after
        cutover for application-level state transfer (e.g. resharding).

        Must be called from outside engine callbacks (like
        :meth:`run_until`): the quiesce phase pumps the engine, and on
        the cluster engine worker processes spawn/retire around it.

        Returns a :class:`repro.reconfig.ReconfigReport`.
        """
        from ..reconfig.executor import execute_reconfiguration

        return execute_reconfiguration(
            self,
            new_program,
            main_args=main_args,
            quiesce_grace=quiesce_grace,
            poll=poll,
            bind=bind,
            on_transfer=on_transfer,
        )

    def exec_stop(self, instance: A.Ref, caller: JunctionRuntime | None) -> None:
        self.stop_instance(
            self._resolve_instance_name(instance, caller),
            _parent=self._execution_event(caller),
        )

    def stop_instance(self, name: str, *, _parent: int | None = None) -> None:
        inst = self.instance(name)
        if not inst.running:
            raise StartStopFailure(f"stop {name}: instance not running")
        for jr in inst.junctions.values():
            ex = self._executions.pop(jr.node, None)
            if ex is not None and not ex.finished:
                ex.cancel()
            self.network.unregister(jr.node)
        inst.running = False
        self.telemetry.counter("instance_stops", instance=name).inc()
        self.telemetry.emit("stop_instance", name, parent=_parent)

    # -- fault injection -----------------------------------------------------

    def crash_instance(self, name: str) -> None:
        """Crash an instance: abort executions, drop its traffic."""
        inst = self.instance(name)
        inst.crashed = True
        self.network.set_down(inst.name, True)
        for jr in inst.junctions.values():
            ex = self._executions.pop(jr.node, None)
            if ex is not None and not ex.finished:
                ex.cancel()
        self.telemetry.counter("instance_crashes", instance=name).inc()
        self.telemetry.emit("crash_instance", name)

    def restart_instance(self, name: str, /, reinit: bool = True) -> None:
        """Bring a crashed instance back (fresh junction state)."""
        inst = self.instance(name)
        if not inst.crashed:
            raise StartStopFailure(f"restart {name}: instance is not crashed")
        inst.crashed = False
        self.network.set_down(inst.name, False)
        if reinit:
            for jr in inst.junctions.values():
                self._init_table(jr)
        self.telemetry.counter("instance_restarts", instance=name).inc()
        ev = self.telemetry.emit("restart_instance", name)
        for jr in inst.junctions.values():
            self._attempt_soon(jr, cause=ev)

    # ------------------------------------------------------------------
    # Junction scheduling
    # ------------------------------------------------------------------

    def junction(self, node: str) -> JunctionRuntime:
        jr = self._junction_cache.get(node)
        if jr is not None:
            return jr
        inst_name, _, jname = node.partition("::")
        inst = self.instance(inst_name)
        jr = inst.sole_junction() if not jname else inst.junction(jname)
        self._junction_cache[node] = jr
        return jr

    def _attempt_soon(self, jr: JunctionRuntime, cause: int | None = None) -> None:
        """Schedule an attempt; ``cause`` (or, when absent, the event
        currently being applied — see ``_make_deliver``) becomes the
        causal parent of the resulting ``attempt`` event."""
        if cause is None:
            cause = self._attempt_cause
        if cause is None:
            # causeless attempts (telemetry off, or idle pokes with no
            # parent event) reuse one callback per junction instead of
            # allocating a partial per post
            cb = jr._attempt_cb
            if cb is None:
                cb = jr._attempt_cb = partial(self.attempt_schedule, jr, None)
        else:
            cb = partial(self.attempt_schedule, jr, cause)
        self.clock.post(cb, label=jr._label_attempt, footprint=jr._fp_node)

    def attempt_schedule(self, jr: JunctionRuntime, cause: int | None = None) -> bool:
        """Apply pending updates, check the guard, and run if it holds."""
        inst = jr.instance
        if jr.status != "idle" or not inst.running or inst.crashed or jr.paused or jr.body is None:
            return False
        tel = self.telemetry
        attempt_ev = tel.emit("attempt", jr.node, parent=cause) if tel.enabled else None
        t = jr.table
        if t._pending_n:
            t.apply_pending()
        # inline of _guard_holds' clean-cache fast path (dirty-driven
        # scheduling): most attempts in an update storm re-see a guard
        # whose footprint did not change
        if t.guard_tracked and not t.guard_dirty and t.guard_cached is not None:
            if not t.guard_cached:
                return False
        elif not self._guard_holds(jr):
            return False
        execution = jr._free_exec
        if execution is None:
            execution = JunctionExecution(self, jr, parent_event=attempt_ev)
        else:
            jr._free_exec = None
            execution.reset(attempt_ev)
        self._executions[jr.node] = execution
        execution.start()
        return True

    def _compile_junction(self, jr: JunctionRuntime):
        """Compile a freshly-bound junction (tentpole of the junction
        compiler).  Disabled per system via ``compiled=off`` in its
        engine spec or ``compilation(False)``, and nothing else: under a
        schedule controller too, since every choice-point label and
        footprint is made by the machine's ops, which both front-ends call.
        A closure emits and loads its source once
        (``compile_junction_code``), so a restart and a rebuild run the
        functions its first bind loaded; compiling the text is paid
        once per distinct text in the process (:mod:`repro.codeload`),
        so a family member with equal parameters reuses the code object.
        """
        if not self._compiled:
            return None
        from ..compile import compile_junction_code

        return compile_junction_code(self, jr)

    def _guard_holds(self, jr: JunctionRuntime) -> bool:
        # dirty-driven scheduling: a pure guard's verdict depends only
        # on the keys the table tracks for it, so while none of them
        # changed since the last evaluation the cached verdict stands.
        # Only the *evaluation* is skipped — attempts still fire and
        # pending updates still apply, so the observable event stream
        # (and telemetry) is identical with or without the cache.
        t = jr.table
        if t.guard_tracked and not t.guard_dirty and t.guard_cached is not None:
            return t.guard_cached
        code = jr.code
        if code is not None and code.guard_fn is not None:
            held = code.guard_fn(t.slots) is True
        else:
            held = (
                evaluate(
                    jr.guard, t.truth, at=self.make_at_resolver(jr), live=self.make_live_resolver()
                )
                is True
            )
        if t.guard_tracked:
            t.guard_cached = held
            t.guard_dirty = False
        return held

    def execution_finished(self, jr: JunctionRuntime, execution: JunctionExecution) -> None:
        if execution.failure is not None:
            self.failures.append((self.clock.now, jr.node, execution.failure))
        self._executions.pop(jr.node, None)
        if jr.table._pending_n:
            self._attempt_soon(jr)

    # ------------------------------------------------------------------
    # Message routing
    # ------------------------------------------------------------------

    def _make_deliver(self, jr: JunctionRuntime):
        def deliver(msg: Message) -> None:
            tel = self.telemetry
            if msg.kind == "update":
                if not jr.instance.alive:
                    return  # no ack: sender retransmits / times out
                send_ev = tel.message_event(msg.msg_id)
                # retransmitted updates (lost ack) apply exactly once,
                # but every copy is (re-)acknowledged
                if msg.msg_id and not jr.table.note_msg_id(msg.msg_id):
                    self.network.count("dedup_suppressed", msg.kind)
                    tel.emit("dedup", jr.node, parent=send_ev, msg_id=msg.msg_id)
                else:
                    apply_ev = tel.emit(
                        "apply",
                        jr.node,
                        parent=send_ev,
                        key=msg.payload.key,
                        src=msg.src,
                        msg_id=msg.msg_id,
                    )
                    # the receive below may trigger an idle-update
                    # attempt; parent that attempt to the apply event
                    self._attempt_cause = apply_ev
                    try:
                        jr.table.receive(msg.payload)
                    finally:
                        self._attempt_cause = None
                self.network.send(
                    Message(src=jr.node, dst=msg.src, kind="ack", payload=msg.msg_id, msg_id=msg.msg_id)
                )
            elif msg.kind == "ack":
                tel.emit(
                    "ack",
                    jr.node,
                    parent=tel.message_event(msg.payload),
                    msg_id=msg.payload,
                )
                self.delivery.ack(msg.payload)
                ex = self._executions.get(jr.node)
                if ex is not None:
                    ex.on_ack(msg.payload)

        return deliver

    # ------------------------------------------------------------------
    # Target / formula resolution
    # ------------------------------------------------------------------

    def resolve_target(
        self, target: object, caller: JunctionRuntime, static: bool = False
    ) -> JunctionRuntime:
        """Resolve an assert/retract/write target to a junction.

        ``static`` is the junction compiler's bind-time question: the
        same resolution, but a target that goes through an ``idx``
        cursor (which moves at runtime, unlike the instance map and the
        junction's parameters) fails instead of being dereferenced."""
        if isinstance(target, str):
            target = A.ref(target)
        if not isinstance(target, A.Ref):
            raise DslFailure(f"{caller.node}: bad communication target {target!r}")
        parts = target.parts
        if parts[0] == "me":
            raise DslFailure(f"{caller.node}: unresolved special reference {target}")
        if target.is_simple:
            name = parts[0]
            # an index variable? dereference through the table
            if name in caller.declared.idx:
                if static:
                    raise DslFailure(f"{caller.node}: target {name!r} is a runtime cursor")
                v = caller.table.get(name)
                if v is UNDEF:
                    raise UndefError(f"{caller.node}: index {name!r} is undef")
                return self.resolve_target(str(v), caller)
            if name in caller.params:
                v = caller.params[name]
                if isinstance(v, str):
                    return self.resolve_target(v, caller, static)
                raise DslFailure(f"{caller.node}: parameter {name!r} is not a junction reference")
            if name in self.instances:
                return self.instance(name).sole_junction()
            raise DslFailure(f"{caller.node}: unknown target {name!r}")
        inst_name, jname = parts[0], parts[1]
        if inst_name not in self.instances:
            raise DslFailure(f"{caller.node}: unknown instance {inst_name!r} in target {target}")
        return self.instance(inst_name).junction(jname)

    def make_at_resolver(self, caller: JunctionRuntime):
        """``gamma@F`` evaluation: read the remote junction's table if
        its instance is running, else UNKNOWN (ternary error)."""

        def at(junction_ref, body):
            try:
                jr = self.resolve_target(junction_ref, caller)
            except DslFailure:
                return UNKNOWN
            if not jr.instance.alive:
                return UNKNOWN
            return evaluate(
                body, jr.table.truth, at=self.make_at_resolver(jr), live=self.make_live_resolver()
            )

        return at

    def make_live_resolver(self):
        def live(instance_ref):
            name = str(instance_ref) if not isinstance(instance_ref, A.Ref) else instance_ref.parts[0]
            inst = self.instances.get(name)
            if inst is None:
                return UNKNOWN
            return inst.alive

        return live

    # ------------------------------------------------------------------
    # External (application-driven) interaction
    # ------------------------------------------------------------------

    def external_update(self, node: str, key: str, value: object, *, poke: bool = True) -> None:
        """Apply an externally-originated KV update (e.g. the embedding
        application asserting ``Req`` on a client request) and attempt a
        scheduling.  A key the junction does not declare raises
        :class:`~repro.core.errors.UndeclaredKeyError`."""
        jr = self._declaring(node, key)
        jr.external_inbound = True
        tel = self.telemetry
        if tel.enabled:
            ev = tel.emit("external_update", jr.node, key=key)
            self._attempt_cause = ev
            try:
                jr.table.receive(Update(key, value, "__external__"))
            finally:
                self._attempt_cause = None
        else:
            ev = None
            jr.table.receive(Update(key, value, "__external__"))
        if poke:
            self._attempt_soon(jr, cause=ev)

    def external_data(self, node: str, key: str, obj: object, schema: str | None = None) -> None:
        """Install externally-supplied named data (serialized); an
        undeclared key raises as in :meth:`external_update`."""
        jr = self._declaring(node, key)
        jr.external_inbound = True
        payload = self.serializer.encode(schema, obj)
        ev = self.telemetry.emit("external_data", jr.node, key=key)
        self._attempt_cause = ev
        try:
            jr.table.receive(Update(key=key, value=payload, src="__external__"))
        finally:
            self._attempt_cause = None

    def _declaring(self, node: str, key: str) -> JunctionRuntime:
        jr = self.junction(node)
        if key not in jr.table.index:
            raise UndeclaredKeyError(f"{jr.node} declares no key {key!r}; its table is unchanged")
        return jr

    def poke(self, node: str) -> None:
        """Attempt to schedule a junction."""
        jr = self.junction(node)
        jr.external_inbound = True
        self._attempt_soon(jr, cause=self.telemetry.emit("poke", jr.node))

    def read_state(self, node: str, key: str):
        """Read junction state from outside (tests/metrics)."""
        return self.junction(node).table.values.get(key, UNDEF)


def _to_runtime_value(v: object) -> object:
    """AST argument value → runtime value (str / float / tuple)."""
    if isinstance(v, A.Ref):
        return str(v)
    if isinstance(v, A.Num):
        return v.value
    if isinstance(v, A.SetLit):
        return tuple(_to_runtime_value(i) for i in v.items)
    return v
