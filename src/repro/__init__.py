"""repro — a Python reproduction of C-Saw.

C-Saw ("see-saw") is an embedded DSL for expressing the *architecture*
of distributed software separately from its application logic, from the
paper "A Domain-Specific Language for Reconfigurable, Distributed
Software Architecture" (Zhu, Zhao, Sultana).

Package map:

* :mod:`repro.core` — the DSL: AST, parser, validation, template
  expansion, compilation, topology extraction.
* :mod:`repro.semantics` — formal event-structure semantics.
* :mod:`repro.runtime` — deterministic distributed runtime (the
  libcompart stand-in): simulated network, KV tables, interpreter.
* :mod:`repro.serde` — C-strider-style serialization framework.
* :mod:`repro.redislite` / :mod:`repro.curlite` /
  :mod:`repro.suricatalite` — substrates standing in for the paper's
  third-party systems.
* :mod:`repro.arch` — the paper's architectures as DSL programs.

The direct (non-DSL) control implementations for the effort study are
evaluation code, not part of the package: ``benchmarks/control``.

Quick start::

    from repro import compile_program, System

    prog = compile_program(dsl_text)
    system = System(prog)
    system.start(t=5.0)
    system.run_until(100.0)

The stable import surface is :mod:`repro.api` — everything an
embedding application needs (System, Simulator, Telemetry, the arch
loaders, chaos/fault knobs) without reaching into internal modules.
"""

from .core import compile_program, parse_program
from .runtime import FaultPlan, System
from .telemetry import Telemetry

__version__ = "1.0.0"

__all__ = [
    "FaultPlan",
    "System",
    "Telemetry",
    "compile_program",
    "parse_program",
    "__version__",
]
