"""Transition planner: an :class:`ArchDiff` → lifecycle steps per instance.

The plan is decentralized in Concerto-D's sense: only *affected*
instances have steps and the others appear nowhere — they keep serving
throughout:

* added instance A:              ``spawn:A → cutover → start:A``
* kept-but-affected instance X:  ``quiesce:X → snapshot:X → cutover →
  rebind:X → resume:X``
* removed instance R:            ``quiesce:R → snapshot:R → cutover →
  stop:R``

Across instances the kinds run in the order of :data:`KINDS`, each
waiting for the nearest earlier kind that has steps — what the
executor used to keep to itself.  ``spawn`` is first: a cluster spawn
takes tens of milliseconds and nothing is paused while it runs.  A
``snapshot`` waits for *every* ``quiesce``, because the drain is joint
(an instance is only still once the others it talks to are).  After
the ``cutover``, ``stop`` → ``rebind`` → ``start``: a junction
re-specializes against the instance set the new program leaves, and an
added instance's first events follow.  ``transfer`` reads the removed
instances' apps and writes the added ones', so it comes after all
three and before any ``resume`` — and only what ``quiesce`` paused and
the cutover kept has one.  The executor
(:mod:`repro.reconfig.executor`) interprets
:meth:`TransitionPlan.ordered` and keeps no order of its own.
"""

from __future__ import annotations

from dataclasses import dataclass

from .diff import ArchDiff

__all__ = ["PlanStep", "TransitionPlan", "plan_transition"]

#: step kinds in lifecycle order
KINDS = (
    "spawn",
    "quiesce",
    "snapshot",
    "cutover",
    "stop",
    "rebind",
    "start",
    "transfer",
    "resume",
)


@dataclass(frozen=True)
class PlanStep:
    """One lifecycle action on one instance (or the global cutover)."""

    step_id: str
    kind: str
    target: str | None
    deps: tuple[str, ...] = ()

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown plan step kind {self.kind!r}")


@dataclass(frozen=True)
class TransitionPlan:
    """A dependency DAG of :class:`PlanStep`."""

    steps: tuple[PlanStep, ...]

    def by_kind(self, kind: str) -> list[PlanStep]:
        return [s for s in self.steps if s.kind == kind]

    def validate(self) -> None:
        """Raise ``ValueError`` on dangling dependencies or cycles."""
        ids = {s.step_id for s in self.steps}
        if len(ids) != len(self.steps):
            raise ValueError("duplicate step ids")
        for s in self.steps:
            for d in s.deps:
                if d not in ids:
                    raise ValueError(f"step {s.step_id!r} depends on unknown {d!r}")
        self.ordered()  # raises on cycles

    def ordered(self) -> list[PlanStep]:
        """The order the executor runs: of the steps whose dependencies
        are done, always the one earliest in lifecycle order
        (:data:`KINDS`), then earliest in ``steps``."""
        todo = sorted(self.steps, key=lambda s: KINDS.index(s.kind))
        out: list[PlanStep] = []
        done: set[str] = set()
        while todo:
            step = next((s for s in todo if done.issuperset(s.deps)), None)
            if step is None:
                raise ValueError("transition plan has a dependency cycle")
            todo.remove(step)
            done.add(step.step_id)
            out.append(step)
        return out

    def render(self) -> str:
        lines = []
        for s in self.ordered():
            dep = f"  (after {', '.join(s.deps)})" if s.deps else ""
            tgt = f" {s.target}" if s.target else ""
            lines.append(f"{s.kind}{tgt}{dep}")
        return "\n".join(lines)


def plan_transition(
    diff: ArchDiff,
    *,
    rebind: tuple[str, ...] = (),
    transfer: bool = False,
) -> TransitionPlan:
    """Compile a diff into a transition plan.

    ``rebind`` names the kept instances whose junctions must rebind
    (:func:`repro.reconfig.executor.rebind_set`; pure-diff callers may
    leave it empty); ``rebind`` steps keep its order, every other kind
    goes by instance name.  ``transfer`` inserts the application
    state-transfer step between the last start and the first resume.
    """
    added = sorted(name for name, _ in diff.instances_added)
    removed = sorted(name for name, _ in diff.instances_removed)
    rebind = tuple(n for n in rebind if n not in added and n not in removed)

    quiesced = sorted({*rebind, *removed})
    targets = {
        "spawn": added,
        "quiesce": quiesced,
        "snapshot": quiesced,
        "cutover": [None],
        "stop": removed,
        "rebind": rebind,
        "start": added,
        "transfer": [None] if transfer else [],
        "resume": sorted(rebind),
    }
    steps: list[PlanStep] = []
    last: tuple[str, ...] = ()
    for kind in KINDS:  # each kind waits for the nearest earlier one with steps
        ids = tuple(f"{kind}:{name}" if name else kind for name in targets[kind])
        steps.extend(PlanStep(i, kind, name, last) for i, name in zip(ids, targets[kind]))
        last = ids or last

    return TransitionPlan(steps=tuple(steps))
