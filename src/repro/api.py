"""Stable public facade of the reproduction.

Import from here (or from :mod:`repro` itself) rather than from the
internal module layout — ``repro.runtime.*`` / ``repro.core.*`` paths
are implementation detail and may move between releases; this module's
``__all__`` is the compatibility surface::

    from repro.api import System, Simulator, Telemetry, load_program

    system = System(load_program("sharding", n_backends=4))
    system.start(t=5.0)
    system.run_until(60.0)
    print(system.telemetry.export("jsonl"))

The surface covers the four things an embedding application touches:

* **the DSL** — ``parse_program`` / ``compile_program`` plus the
  packaged paper architectures via ``load_program`` / ``ARCHITECTURES``;
* **the runtime** — ``System``, the pluggable execution engines
  (``SimEngine`` / ``RealtimeEngine`` / ``ClusterEngine`` via
  ``create_engine`` / ``default_engine``, selected uniformly through
  ``EngineSpec``; see ``docs/RUNTIME.md``), the ``Simulator`` clock,
  and the delivery/fault knobs (``DeliveryPolicy``, ``FaultPlan``,
  ``BackoffPolicy``, ``ChaosConfig`` / ``ChaosEngine`` /
  ``SoakHarness``);
* **the compiler** — junction compilation happens automatically at
  ``System`` build time; ``compilation`` / ``compile_default`` select
  the mode, ``generated_source`` dumps a junction's generated Python
  for debugging, and ``compile_junction_code`` is the per-junction
  entry point (see ``docs/RUNTIME.md``);
* **the semantics** — ``denote_junction`` maps one junction to its
  event structure (``expand=False`` for the linear-size unexpanded
  form used by analysis/compile consumers);
* **reconfiguration** — live architecture transitions: ``diff_programs``
  produces an ``ArchDiff``, ``plan_transition`` compiles it to a
  ``TransitionPlan``, and ``System.reconfigure`` runs that plan step by
  step on a running system with zero dropped requests (returns a
  ``ReconfigReport``: the plan, the steps run); see ``docs/RECONFIG.md``;
* **observability** — the ``Telemetry`` facade (``system.telemetry``)
  and its metric/exporter types; see ``docs/OBSERVABILITY.md``;
* **errors** — the ``CSawError`` hierarchy root and the failure types
  an application is expected to catch.
"""

from __future__ import annotations

from .arch.loader import ARCHITECTURES, backend_names, load_program, load_source
from .compile import (
    JunctionCode,
    compilation,
    compile_default,
    compile_junction_code,
    generated_source,
)
from .core.compiler import CompiledProgram, compile_program
from .core.errors import CSawError, DeliveryFailure, DslFailure
from .core.parser import parse_program
from .reconfig import (
    ArchDiff,
    ReconfigError,
    ReconfigReport,
    TransitionPlan,
    apply_diff,
    diff_programs,
    plan_transition,
    program_signature,
)
from .runtime import (
    BackoffPolicy,
    ChaosConfig,
    ChaosEngine,
    ClusterEngine,
    DeliveryPolicy,
    EngineSpec,
    ExecutionEngine,
    FaultPlan,
    HostContext,
    RealtimeEngine,
    SimEngine,
    Simulator,
    SoakHarness,
    System,
    create_engine,
    default_engine,
)
from .semantics import denote_junction
from .telemetry import (
    MetricsRegistry,
    RingBufferSink,
    Telemetry,
    TraceEvent,
    capture_systems,
)

__all__ = [
    # DSL
    "ARCHITECTURES",
    "CompiledProgram",
    "backend_names",
    "compile_program",
    "load_program",
    "load_source",
    "parse_program",
    # semantics
    "denote_junction",
    # compiler
    "JunctionCode",
    "compilation",
    "compile_default",
    "compile_junction_code",
    "generated_source",
    # runtime
    "BackoffPolicy",
    "ChaosConfig",
    "ChaosEngine",
    "ClusterEngine",
    "DeliveryPolicy",
    "EngineSpec",
    "ExecutionEngine",
    "FaultPlan",
    "HostContext",
    "RealtimeEngine",
    "SimEngine",
    "Simulator",
    "SoakHarness",
    "System",
    "create_engine",
    "default_engine",
    # reconfiguration
    "ArchDiff",
    "ReconfigError",
    "ReconfigReport",
    "TransitionPlan",
    "apply_diff",
    "diff_programs",
    "plan_transition",
    "program_signature",
    # observability
    "MetricsRegistry",
    "RingBufferSink",
    "Telemetry",
    "TraceEvent",
    "capture_systems",
    # errors
    "CSawError",
    "DeliveryFailure",
    "DslFailure",
]
