"""Transition executor: apply an :class:`ArchDiff` to a *running* System.

The executor is engine-portable — it drives the transition from
blocking code through the same ``engine.run_until`` surface the
embedding application uses, so the identical plan executes on the sim,
realtime and cluster engines.  On the cluster engine, worker processes
for added instances spawn in the prepare phase and removed instances'
workers retire after the transition, both while the event loop is idle
(`engine.prepare_instances` / `engine.retire_instances`).

Zero-drop protocol
------------------

Quiesce happens in two waves (the decentralized part — unaffected
instances never stop serving):

1. *Close the doors*: junctions of affected instances that have ever
   been driven from outside the architecture (``external_update`` /
   ``poke`` — the client-facing boundary) are paused.  A paused
   junction schedules no new executions, but its table still receives,
   acks and dedups inbound updates through the reliable-delivery
   layer, so client requests submitted during the window buffer
   instead of dropping.
2. *Drain*: the engine pumps until every affected junction is
   simultaneously quiescent — not mid-execution, and (unless paused)
   with no pending updates.  In-flight request chains complete
   normally because only the boundary is closed.  If the drain misses
   the grace deadline the transition rolls back (unpause, retire any
   pre-spawned workers) having mutated nothing.

Cutover then runs as one atomic blocking stretch (the engine never
runs between quiesce convergence and resume): junction tables are
serde-snapshotted, templates swapped, junctions re-specialized against
the new program, snapshots restored for keys the new binding still
declares, buffered updates carried over, removed instances stopped and
added instances started.  ``resume`` unpauses everything and replays
the buffered work.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Mapping

from dataclasses import dataclass, field

from ..core.compiler import CompiledProgram
from ..core.elaborate import main_env, main_starts, start_groups
from ..core.errors import SerdeError
from .diff import ArchDiff, diff_programs
from .plan import TransitionPlan, plan_transition

if TYPE_CHECKING:  # pragma: no cover
    from ..runtime.system import System

__all__ = ["ReconfigError", "ReconfigReport", "execute_reconfiguration"]


class ReconfigError(Exception):
    """A live reconfiguration could not be planned or applied."""


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


@dataclass
class _JunctionSnapshot:
    values: dict = field(default_factory=dict)
    pending: list = field(default_factory=list)
    nbytes: int = 0


def _quiescent(system: "System", jr) -> bool:
    if jr.node in system._executions:
        return False
    return jr.paused or not jr.table.has_pending


def _snapshot_junction(system: "System", jr) -> _JunctionSnapshot:
    """Serde-roundtrip the junction's KV state.  Values the generic
    codec covers travel through ``Serializer`` (this is the path a
    future cross-host transfer takes — and it counts transfer bytes);
    host-object values (app handles, UNDEF) are carried by reference."""
    snap = _JunctionSnapshot(pending=jr.table.pending_updates())
    for key, value in jr.table.values.items():
        try:
            saved = system.serializer.encode(None, value)
            snap.values[key] = system.serializer.decode(saved)
            snap.nbytes += len(saved.blob)
        except (SerdeError, TypeError):
            snap.values[key] = value
    return snap


def _rebind_args(
    jr, cj, new_start_args: Mapping[str, Mapping[str, tuple]], inst_name: str
) -> tuple:
    """Arguments for rebinding one junction: the new ``main``'s start
    expression wins; otherwise carried-over arguments matched by
    parameter name."""
    from_main = new_start_args.get(inst_name, {}).get(cj.name)
    if from_main is not None:
        return from_main
    missing = [p for p in cj.params if p not in jr.ast_params]
    if missing:
        raise ReconfigError(
            f"cannot rebind {jr.node}: no value for new parameter(s) {missing} "
            "(not started by the new main; pass main_args or start it explicitly)"
        )
    return tuple(jr.ast_params[p] for p in cj.params)


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
        return _execute(
            system,
            new_program if new_program is not None else system.program,
            main_args or {},
            quiesce_grace,
            poll,
            bind,
            on_transfer,
        )
    finally:
        system._reconfiguring = False


def _execute(
    system: "System",
    new: CompiledProgram,
    main_args: Mapping[str, object],
    quiesce_grace: float,
    poll: float,
    bind,
    on_transfer,
) -> ReconfigReport:
    tel = system.telemetry
    clock = system.clock
    old = system.program
    diff = diff_programs(old, new)

    # -- new main environment: new config, then parameters carried over
    #    from the original start, then explicit overrides
    params = new.main.params if new.main is not None else ()
    carried = {p: system._main_env[p] for p in params if p in system._main_env}
    env, missing = main_env(new, {**carried, **main_args})
    if missing:
        raise ReconfigError(f"main parameters missing values: {missing}")
    # the same elaboration ``System.start`` runs through, so reconfigured
    # and freshly-started bindings agree exactly
    new_imap = new.instance_map()
    _, starts = main_starts(new, env)
    new_start_args = {
        name: start_groups(name, new.junctions_of_type(new_imap[name]), groups)
        for name, groups in starts.items()
    }

    # -- derive the rebind set: kept running instances whose junction
    #    templates, start arguments or config changed
    added = tuple(name for name, _ in diff.instances_added)
    removed = tuple(name for name, _ in diff.instances_removed)
    changed_types = {cj.type_name for cj in diff.junctions_changed}
    changed_types.update(t for t, _ in diff.junctions_removed)
    config_changed = bool(diff.config_set or diff.config_removed)

    rebind: list[str] = []
    for name, inst in system.instances.items():
        if name in removed or name not in new_imap or not inst.running:
            continue
        tname = new_imap[name]
        if tname in changed_types or config_changed:
            rebind.append(name)
            continue
        for cj in new.junctions_of_type(tname):
            jr = inst.junctions.get(cj.name)
            if jr is None or jr.body is None:
                continue
            try:
                if _rebind_args(jr, cj, new_start_args, name) != tuple(
                    jr.ast_params.get(p) for p in cj.params
                ):
                    rebind.append(name)
                    break
            except ReconfigError:
                continue
    rebind.sort()

    plan = plan_transition(
        diff, rebind=tuple(rebind), transfer=on_transfer is not None
    )

    report = ReconfigReport(
        ok=False,
        started_at=clock.now,
        instances_added=added,
        instances_removed=removed,
        instances_rebound=tuple(rebind),
        diff=diff,
        plan=plan,
    )
    if diff.is_empty and not rebind:
        report.ok = True
        report.finished_at = clock.now
        report.reason = "no changes"
        return report

    begin_ev = tel.emit(
        "reconfig_begin",
        "__reconfig__",
        added=list(added),
        removed=list(removed),
        rebound=list(rebind),
    )
    tel.counter("reconfig_transitions").inc()
    tel.gauge("reconfig_in_progress").set(1)

    try:
        # ---- prepare: host bindings for new types, backend resources
        #      (cluster worker processes) for added instances — blocking,
        #      before anything observable changes
        from ..runtime.instance import InstanceTypeRuntime

        for tname in diff.types_added:
            if tname not in system.types:
                system.types[tname] = InstanceTypeRuntime(
                    tname, new.junctions_of_type(tname)
                )
        if bind is not None:
            bind(system)
        system.engine.prepare_instances(added)

        # ---- quiesce wave 1: close the client-facing boundary
        affected = [
            system.instances[n]
            for n in sorted(set(rebind) | set(removed))
            if n in system.instances
        ]
        tel.emit("reconfig_quiesce", "__reconfig__", parent=begin_ev)
        for inst in affected:
            for jr in inst.junctions.values():
                if jr.external_inbound:
                    jr.paused = True

        # ---- quiesce wave 2: drain in-flight work
        deadline = clock.now + max(quiesce_grace, 0.0)
        step = max(poll, 1e-6)

        def drained() -> bool:
            return all(
                _quiescent(system, jr)
                for inst in affected
                for jr in inst.junctions.values()
            )

        while not drained():
            if clock.now >= deadline:
                for inst in affected:
                    inst.set_paused(False)
                    for jr in inst.junctions.values():
                        system._attempt_soon(jr)
                system.engine.retire_instances(added)
                tel.emit("reconfig_rollback", "__reconfig__", parent=begin_ev)
                report.rolled_back = True
                report.finished_at = clock.now
                report.reason = f"quiesce did not drain within {quiesce_grace}s"
                return report
            system.engine.run_until(min(clock.now + step, deadline))

        # from here to resume the engine never runs: the cutover is
        # atomic with respect to message delivery and scheduling
        for inst in affected:
            inst.set_paused(True)

        # ---- snapshot
        snapshots: dict[str, dict[str, _JunctionSnapshot]] = {}
        for inst in affected:
            snapshots[inst.name] = {
                jname: _snapshot_junction(system, jr)
                for jname, jr in inst.junctions.items()
                if jr.body is not None
            }
            report.snapshot_bytes += sum(
                s.nbytes for s in snapshots[inst.name].values()
            )
        tel.emit(
            "reconfig_snapshot",
            "__reconfig__",
            parent=begin_ev,
            bytes=report.snapshot_bytes,
        )

        # ---- cutover
        cut_ev = tel.emit("reconfig_cutover", "__reconfig__", parent=begin_ev)
        system.program = new
        system._main_env = dict(env)
        system._compile_cache.clear()
        system._junction_cache.clear()
        for tname in set(new.source.instance_types):
            trt = system.types.get(tname)
            if trt is None:
                system.types[tname] = InstanceTypeRuntime(
                    tname, new.junctions_of_type(tname)
                )
            else:
                trt.junctions = {j.name: j for j in new.junctions_of_type(tname)}

        removed_apps: dict[str, object] = {}
        for name in removed:
            inst = system.instances.get(name)
            if inst is None:
                continue
            removed_apps[name] = inst.app
            if inst.running:
                system.stop_instance(name, _parent=cut_ev)
            del system.instances[name]

        config_env = new.config_env()
        from ..runtime.instance import JunctionRuntime

        for name, inst in system.instances.items():
            trt = system.types.get(new_imap.get(name, ""))
            if trt is None:
                continue
            if name in rebind:
                snap = snapshots.get(name, {})
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
                    args = _rebind_args(jr, cj, new_start_args, name)
                    system._bind_junction(inst, jr, args, config_env)
                    if was_bound and jname in snap:
                        s = snap[jname]
                        # restore by key *name*: the new program may
                        # declare the same keys at different slots
                        for key, value in s.values.items():
                            if key in jr.table.values:
                                jr.table.values[key] = value
                        jr.table.enqueue_pending(
                            u for u in s.pending if u.key in jr.table.values
                        )
                tel.emit("reconfig_rebind", name, parent=cut_ev)
            else:
                # template bookkeeping for instances that don't rebind
                # now (not running, or unaffected): future starts bind
                # against the new program
                for jname in [j for j in inst.junctions if j not in trt.junctions]:
                    jr = inst.junctions[jname]
                    if jr.body is None:
                        del inst.junctions[jname]
                for jname, cj in trt.junctions.items():
                    jr = inst.junctions.get(jname)
                    if jr is None:
                        inst.junctions[jname] = JunctionRuntime(inst, cj)
                    elif jr.body is None:
                        jr.compiled = cj

        from ..runtime.instance import InstanceRuntime

        for name, tname in diff.instances_added:
            inst = system.instances[name] = InstanceRuntime(
                name, system.types[tname]
            )
            if name in new_start_args:
                system._start_instance(inst, new_start_args[name], parent=cut_ev)

        # node-name resolutions made during the cutover must not
        # outlive it: instances and junction runtimes were replaced
        system._junction_cache.clear()

        # ---- transfer (application-level state movement, e.g. resharding)
        if on_transfer is not None:
            on_transfer(system, removed_apps)
            tel.emit("reconfig_transfer", "__reconfig__", parent=cut_ev)

        # ---- resume: unpause and replay buffered work
        for inst in affected:
            if inst.name not in system.instances:
                continue
            inst.set_paused(False)
            for jr in inst.junctions.values():
                report.updates_replayed += jr.table.pending_count
                system._attempt_soon(jr)
        tel.emit(
            "reconfig_resume",
            "__reconfig__",
            parent=begin_ev,
            replayed=report.updates_replayed,
        )
        if report.updates_replayed:
            tel.counter("reconfig_replayed_updates").inc(report.updates_replayed)

        # drain the immediate wake-ups, then release backend resources
        # of the removed instances (cluster workers) while the loop is
        # idle again
        system.engine.run_until(clock.now)
        system.engine.retire_instances(removed)

        report.ok = True
        report.finished_at = clock.now
        tel.emit(
            "reconfig_end",
            "__reconfig__",
            parent=begin_ev,
            duration=round(report.duration, 6),
        )
        tel.histogram("reconfig_seconds").observe(report.duration)
        return report
    finally:
        tel.gauge("reconfig_in_progress").set(0)
