"""Transition executor: run a :class:`TransitionPlan` on a *running* System.

The executor interprets the plan (:mod:`repro.reconfig.plan`).  It
derives the transition once — diff, new ``main`` environment, rebind
set (:func:`rebind_set`), plan — then walks ``plan.ordered()``, hands
every step of a kind to that kind's entry in :data:`HANDLERS` and
records ``(step_id, began, ended)`` in ``ReconfigReport.steps``.  It
keeps no step order of its own, and a kind without a handler fails the
import.  It is blocking code over the ``engine.run_until`` surface the
embedding application uses, so the identical plan runs on the sim,
realtime and cluster engines (on a cluster ``spawn`` deploys worker
processes and the removed instances' workers retire after ``resume``,
both while the event loop is idle).

``quiesce`` is the zero-drop protocol of docs/RECONFIG.md, two waves:
pause the affected instances' client-facing junctions (their tables
keep receiving, acking and deduplicating, so requests buffer instead of
dropping), then pump the engine until every affected junction is idle
at once.  Unaffected instances never stop serving.

From there to ``resume`` the engine never runs, one atomic blocking
stretch: ``snapshot`` serde-copies the junction tables, ``cutover``
swaps program and templates, ``stop`` / ``rebind`` / ``start`` change
the instances (a rebound junction gets its snapshot back for the keys
the new binding still declares, buffered updates included),
``transfer`` moves application state, ``resume`` unpauses and replays.

A step that raises before the cutover begins — a drain that misses its
grace included — rolls back (unpause, retire pre-spawned workers,
``reconfig_rollback``; nothing was mutated); the missed drain is
reported as ``rolled_back``, anything else re-raised.  After it there
is no way back: whatever ``quiesce`` paused is resumed, so the service
keeps answering, and the error propagates.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import groupby
from typing import Callable, Mapping

from ..core.compiler import CompiledProgram
from ..core.elaborate import main_env, main_starts, start_groups
from ..core.errors import SerdeError
from ..runtime.instance import InstanceRuntime, InstanceTypeRuntime, JunctionRuntime
from ..runtime.system import System, _close
from .diff import ArchDiff, diff_programs
from .plan import KINDS, TransitionPlan, plan_transition

__all__ = ["ReconfigError", "ReconfigReport", "execute_reconfiguration"]


class ReconfigError(Exception):
    """A live reconfiguration could not be planned or applied."""


class _DrainTimeout(ReconfigError):
    """The quiesce step missed its grace deadline."""


@dataclass
class ReconfigReport:
    """Outcome of one live reconfiguration."""

    ok: bool
    rolled_back: bool = False
    reason: str = ""
    started_at: float = 0.0
    finished_at: float = 0.0
    instances_added: tuple[str, ...] = ()
    instances_removed: tuple[str, ...] = ()
    instances_rebound: tuple[str, ...] = ()
    updates_replayed: int = 0
    snapshot_bytes: int = 0
    diff: ArchDiff | None = None
    plan: TransitionPlan | None = None
    #: ``(step_id, began, ended)`` of every step run, in the order run
    steps: list[tuple[str, float, float]] = field(default_factory=list)

    @property
    def duration(self) -> float:
        return max(0.0, self.finished_at - self.started_at)

    def render(self) -> str:
        verdict = (
            "rolled back" if self.rolled_back else ("ok" if self.ok else "failed")
        )
        line = (
            f"reconfigure: {verdict} in {self.duration:.3f}s "
            f"(+{len(self.instances_added)} -{len(self.instances_removed)} "
            f"~{len(self.instances_rebound)} instances, "
            f"{self.updates_replayed} update(s) replayed, "
            f"{self.snapshot_bytes} snapshot byte(s))"
        )
        if self.reason:
            line += f" — {self.reason}"
        return line


def _snapshot_junction(system: "System", jr) -> tuple[dict, list, int]:
    """Serde-roundtrip the junction's KV state: its values, its pending
    updates, the bytes encoded.  Values the generic codec covers travel
    through ``Serializer`` (this is the path a future cross-host
    transfer takes — and it counts transfer bytes); host-object values
    (app handles, UNDEF) are carried by reference."""
    values, nbytes = {}, 0
    for key, value in jr.table.values.items():
        try:
            saved = system.serializer.encode(None, value)
            values[key] = system.serializer.decode(saved)
            nbytes += len(saved.blob)
        except (SerdeError, TypeError):
            values[key] = value
    return values, jr.table.pending_updates(), nbytes


def _rebind_args(bound: Mapping[str, object], cj, from_main: tuple | None) -> tuple | None:
    """Arguments for rebinding a junction to ``cj``: the new ``main``'s
    start expression wins; otherwise the arguments it is ``bound`` with
    now, matched by parameter name — ``None`` when a parameter has none."""
    if from_main is not None:
        return from_main
    if all(p in bound for p in cj.params):
        return tuple(bound[p] for p in cj.params)
    return None


def start_args(program: CompiledProgram, env: Mapping[str, object]) -> dict[str, dict[str, tuple]]:
    """Instance → junction → the arguments ``main`` closed under ``env``
    starts it with, read from the closure ``System.start`` binds under
    the same key (a ``main`` a fresh start refuses raises here), so
    reconfigured and freshly-started bindings agree exactly."""
    if program.main is None:
        return {}
    imap = program.instance_map()
    body = _close(program.main, env, "__init__", "main").body
    return {
        name: start_groups(name, program.junctions_of_type(imap[name]), groups)
        for name, groups in main_starts(program, body).items()
    }


def rebind_set(
    diff: ArchDiff,
    new: CompiledProgram,
    new_args: Mapping[str, Mapping[str, tuple]],
    bound: Mapping[str, Mapping[str, Mapping[str, object]]],
) -> tuple[str, ...]:
    """The kept instances whose junctions must rebind, in ``bound``'s
    order: a junction template of their type changed or went, a config
    entry changed, or ``new_args`` (:func:`start_args` of ``new``)
    differs from what a junction is bound with.  ``bound`` is instance →
    junction → parameter → value for what runs now: the executor passes
    the live junctions' arguments, ``repro reconfigure --plan-only``
    what the old ``main`` elaborates to."""
    removed = {name for name, _ in diff.instances_removed}
    retemplated = {cj.type_name for cj in diff.junctions_changed}
    retemplated |= {tname for tname, _ in diff.junctions_removed}
    everything = bool(diff.config_set or diff.config_removed)
    new_imap = new.instance_map()

    def differs(name: str, cj) -> bool:
        params = bound[name].get(cj.name)
        if params is None:  # not bound now: nothing to rebind
            return False
        args = _rebind_args(params, cj, new_args.get(name, {}).get(cj.name))
        return args is not None and args != tuple(params.get(p) for p in cj.params)

    return tuple(
        name
        for name in bound
        if name not in removed and name in new_imap
        and (
            everything
            or new_imap[name] in retemplated
            or any(differs(name, cj) for cj in new.junctions_of_type(new_imap[name]))
        )
    )


@dataclass
class _Transition:
    """What the step handlers share, derived once before the first step."""

    system: "System"
    new: CompiledProgram
    env: dict
    new_args: dict[str, dict[str, tuple]]
    imap: dict[str, str]  # the new program's instance → type
    report: ReconfigReport
    grace: float
    poll: float
    on_transfer: object
    begin_ev: int | None = None
    cut_ev: int | None = None
    #: the cutover has begun: before it a failure rolls back, after it
    #: the transition can only be resumed
    cut: bool = False
    quiesced: dict[str, InstanceRuntime] = field(default_factory=dict)
    snapshots: dict[str, dict[str, tuple]] = field(default_factory=dict)
    removed_apps: dict[str, object] = field(default_factory=dict)

    def emit(self, kind: str, node: str = "__reconfig__", *, parent=None, **attrs):
        parent = self.begin_ev if parent is None else parent
        return self.system.telemetry.emit(kind, node, parent=parent, **attrs)


def _derive(system: "System", new, main_args, grace, poll, on_transfer) -> _Transition:
    diff = diff_programs(system.program, new)
    # the new main environment: new config, then parameters carried over
    # from the original start, then explicit overrides
    params = new.main.params if new.main is not None else ()
    carried = {p: system._main_env[p] for p in params if p in system._main_env}
    env, missing = main_env(new, {**carried, **main_args})
    if missing:
        raise ReconfigError(f"main parameters missing values: {missing}")
    new_args = start_args(new, env)
    bound = {
        name: {jn: jr.ast_params for jn, jr in inst.junctions.items() if jr.body is not None}
        for name, inst in system.instances.items()
        if inst.running
    }
    rebind = rebind_set(diff, new, new_args, bound)
    plan = plan_transition(diff, rebind=rebind, transfer=on_transfer is not None)
    report = ReconfigReport(
        ok=False,
        started_at=system.clock.now,
        instances_added=tuple(name for name, _ in diff.instances_added),
        instances_removed=tuple(name for name, _ in diff.instances_removed),
        instances_rebound=tuple(sorted(rebind)),
        diff=diff,
        plan=plan,
    )
    imap = new.instance_map()
    return _Transition(system, new, env, new_args, imap, report, grace, poll, on_transfer)


def _unpause(tr: _Transition, names) -> int:
    """Unpause and wake the named instances that still exist; returns
    how many buffered updates that replays."""
    replayed = 0
    for name in names:
        inst = tr.system.instances.get(name)
        if inst is None:
            continue
        inst.set_paused(False)
        for jr in inst.junctions.values():
            replayed += jr.table.pending_count
            tr.system._attempt_soon(jr)
    return replayed


def _quiesce(tr: _Transition, names) -> None:
    system, clock = tr.system, tr.system.clock
    tr.quiesced = {name: system.instances[name] for name in names}
    junctions = [jr for inst in tr.quiesced.values() for jr in inst.junctions.values()]
    # wave 1: close the client-facing boundary
    tr.emit("reconfig_quiesce")
    for jr in junctions:
        if jr.external_inbound:
            jr.paused = True
    # wave 2: drain — until none is mid-execution or, unless paused, has
    # pending updates
    deadline = clock.now + max(tr.grace, 0.0)
    while any(
        jr.node in system._executions or (jr.table.has_pending and not jr.paused)
        for jr in junctions
    ):
        if clock.now >= deadline:
            raise _DrainTimeout(f"quiesce did not drain within {tr.grace}s")
        system.engine.run_until(min(clock.now + max(tr.poll, 1e-6), deadline))
    # from here to resume the engine never runs: the cutover is atomic
    # with respect to message delivery and scheduling
    for inst in tr.quiesced.values():
        inst.set_paused(True)


def _snapshot(tr: _Transition, names) -> None:
    for name in names:
        snaps = tr.snapshots[name] = {
            jname: _snapshot_junction(tr.system, jr)
            for jname, jr in tr.quiesced[name].junctions.items()
            if jr.body is not None
        }
        tr.report.snapshot_bytes += sum(nbytes for _, _, nbytes in snaps.values())
    tr.emit("reconfig_snapshot", bytes=tr.report.snapshot_bytes)


def _cutover(tr: _Transition, _names) -> None:
    system, new = tr.system, tr.new
    tr.cut = True
    tr.cut_ev = tr.emit("reconfig_cutover")
    system.program = new
    system._main_env = dict(tr.env)
    for tname in set(new.source.instance_types):  # added ones: made before ``bind``
        system.types[tname].junctions = {j.name: j for j in new.junctions_of_type(tname)}
    # template bookkeeping for instances no step touches (not running,
    # or unaffected): future starts bind against the new program
    for name, inst in system.instances.items():
        trt = system.types.get(tr.imap.get(name, ""))
        if trt is None or name in tr.quiesced:
            continue
        for jname in [j for j in inst.junctions if j not in trt.junctions]:
            if inst.junctions[jname].body is None:
                del inst.junctions[jname]
        for jname, cj in trt.junctions.items():
            jr = inst.junctions.get(jname)
            if jr is None:
                inst.junctions[jname] = JunctionRuntime(inst, cj)
            elif jr.body is None:
                jr.compiled = cj


def _stop(tr: _Transition, names) -> None:
    for name in names:
        inst = tr.system.instances[name]
        tr.removed_apps[name] = inst.app
        if inst.running:
            tr.system.stop_instance(name, _parent=tr.cut_ev)
        del tr.system.instances[name]


def _rebind(tr: _Transition, names) -> None:
    system, config_env = tr.system, tr.new.config_env()
    for name in names:
        inst, trt = system.instances[name], system.types[tr.imap[name]]
        snap = tr.snapshots.get(name, {})
        # drop junctions the new type no longer declares
        for jname in [j for j in inst.junctions if j not in trt.junctions]:
            jr = inst.junctions.pop(jname)
            system._executions.pop(jr.node, None)
            system.network.unregister(jr.node)
        for jname, cj in trt.junctions.items():
            jr = inst.junctions.get(jname)
            if jr is None:
                jr = inst.junctions[jname] = JunctionRuntime(inst, cj)
                jr.paused = True
            was_bound = jr.body is not None
            jr.compiled = cj
            args = _rebind_args(jr.ast_params, cj, tr.new_args.get(name, {}).get(jname))
            if args is None:
                raise ReconfigError(
                    f"cannot rebind {jr.node}: new parameter(s) among {cj.params} have no value "
                    "(not started by the new main; pass main_args or start it explicitly)"
                )
            system._bind_junction(inst, jr, args, config_env)
            if was_bound and jname in snap:
                values, pending, _ = snap[jname]
                # restore by key *name*: the new program may declare
                # the same keys at different slots
                for key, value in values.items():
                    if key in jr.table.values:
                        jr.table.values[key] = value
                jr.table.enqueue_pending(u for u in pending if u.key in jr.table.values)
        tr.emit("reconfig_rebind", name, parent=tr.cut_ev)


def _start(tr: _Transition, names) -> None:
    system = tr.system
    for name in names:
        inst = system.instances[name] = InstanceRuntime(name, system.types[tr.imap[name]])
        if name in tr.new_args:
            system._start_instance(inst, tr.new_args[name], parent=tr.cut_ev)


def _transfer(tr: _Transition, _names) -> None:
    tr.on_transfer(tr.system, tr.removed_apps)
    tr.emit("reconfig_transfer", parent=tr.cut_ev)


def _resume(tr: _Transition, names) -> None:
    report = tr.report
    report.updates_replayed += _unpause(tr, names)
    tr.emit("reconfig_resume", replayed=report.updates_replayed)
    if report.updates_replayed:
        tr.system.telemetry.counter("reconfig_replayed_updates").inc(report.updates_replayed)


#: one handler per step kind, applied to that kind's targets in plan
#: order; tests fail a step by patching its entry
HANDLERS = {
    "spawn": lambda tr, names: tr.system.engine.prepare_instances(tuple(names)),
    "quiesce": _quiesce,
    "snapshot": _snapshot,
    "cutover": _cutover,
    "stop": _stop,
    "rebind": _rebind,
    "start": _start,
    "transfer": _transfer,
    "resume": _resume,
}
assert set(HANDLERS) == set(KINDS), set(HANDLERS) ^ set(KINDS)


def execute_reconfiguration(
    system: "System",
    new_program: CompiledProgram | None = None,
    *,
    main_args: Mapping[str, object] | None = None,
    quiesce_grace: float = 5.0,
    poll: float = 0.01,
    bind: "Callable[[System], None] | None" = None,
    on_transfer=None,
) -> ReconfigReport:
    """Apply a live reconfiguration to ``system`` (see
    :meth:`repro.runtime.system.System.reconfigure`)."""
    if system._reconfiguring:
        raise ReconfigError("a reconfiguration is already in progress")
    if not system._started_main:
        raise ReconfigError("reconfigure a *running* system (call start() first)")
    system._reconfiguring = True
    try:
        new = new_program if new_program is not None else system.program
        tr = _derive(system, new, main_args or {}, quiesce_grace, poll, on_transfer)
        return _execute(tr, bind)
    finally:
        system._reconfiguring = False


def _execute(tr: _Transition, bind) -> ReconfigReport:
    """Interpret ``tr.report.plan`` (the module docstring says how)."""
    system, report = tr.system, tr.report
    tel, clock, diff = system.telemetry, system.clock, report.diff
    if diff.is_empty and not report.instances_rebound:
        report.ok = True
        report.finished_at = clock.now
        report.reason = "no changes"
        return report

    tr.begin_ev = tel.emit(
        "reconfig_begin",
        "__reconfig__",
        added=list(report.instances_added),
        removed=list(report.instances_removed),
        rebound=list(report.instances_rebound),
    )
    tel.counter("reconfig_transitions").inc()
    tel.gauge("reconfig_in_progress").set(1)
    try:
        # host bindings for new types — before anything observable changes
        for tname in diff.types_added:
            trt = InstanceTypeRuntime(tname, tr.new.junctions_of_type(tname))
            system.types.setdefault(tname, trt)
        if bind is not None:
            bind(system)
        for kind, steps in groupby(report.plan.ordered(), key=lambda s: s.kind):
            steps = list(steps)
            began = clock.now
            try:
                HANDLERS[kind](tr, [s.target for s in steps])
            finally:
                report.steps.extend((s.step_id, began, clock.now) for s in steps)
            if tr.cut:
                # node-name resolutions made during the cutover must not
                # outlive it: instances and junction runtimes are replaced
                system._junction_cache.clear()
    except BaseException as exc:
        if tr.cut:
            # no way back: let what quiesce paused serve again, then fail
            _resume(tr, tr.quiesced)
            raise
        _unpause(tr, tr.quiesced)
        system.engine.retire_instances(report.instances_added)
        tr.emit("reconfig_rollback")
        if not isinstance(exc, _DrainTimeout):
            raise
        report.rolled_back = True
        report.finished_at = clock.now
        report.reason = str(exc)
        return report
    else:
        # drain the immediate wake-ups, then release backend resources of
        # the removed instances (cluster workers) while the loop is idle
        system.engine.run_until(clock.now)
        system.engine.retire_instances(report.instances_removed)
        report.ok = True
        report.finished_at = clock.now
        tr.emit("reconfig_end", duration=round(report.duration, 6))
        tel.histogram("reconfig_seconds").observe(report.duration)
        return report
    finally:
        tel.gauge("reconfig_in_progress").set(0)
