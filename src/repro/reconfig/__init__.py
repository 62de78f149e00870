"""Live architecture reconfiguration: apply a ``.csaw`` diff to a
running system.

* :mod:`repro.reconfig.diff` — the architecture differ
  (:class:`ArchDiff`, :func:`diff_programs`).
* :mod:`repro.reconfig.plan` — the transition planner
  (:class:`TransitionPlan`, :func:`plan_transition`).
* :mod:`repro.reconfig.executor` — the engine-portable executor behind
  :meth:`repro.runtime.system.System.reconfigure`
  (:class:`ReconfigReport`).

See ``docs/RECONFIG.md`` for the model, the zero-drop quiesce protocol
and the verification matrix.
"""

from .diff import ArchDiff, diff_programs
from .executor import ReconfigError, ReconfigReport, execute_reconfiguration
from .plan import PlanStep, TransitionPlan, plan_transition

__all__ = [
    "ArchDiff",
    "diff_programs",
    "PlanStep",
    "TransitionPlan",
    "plan_transition",
    "ReconfigError",
    "ReconfigReport",
    "execute_reconfiguration",
]
