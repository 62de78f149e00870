"""Junction compiler — build-time codegen for bound junctions.

At :class:`~repro.runtime.system.System` build time each bound
junction's guard and body are lowered to a specialized Python module
(:mod:`.codegen`), loaded through :mod:`repro.codeload` (one
``compile()`` per distinct text in the process), and attached to
the junction runtime as :class:`JunctionCode`.  The junction-body
machine (:class:`~repro.runtime.interpreter.JunctionExecution`) runs the
compiled generator when one is present; the tree-walker
(:mod:`repro.runtime.treewalk`) remains the reference semantics and the
automatic fallback for anything the compiler does not cover.
``explore``'s controlled scheduler runs the compiled code too: choice
points are labelled by the machine's ops, which both front-ends call,
so a schedule recorded under one replays under the other.

Toggling::

    from repro.api import compilation

    with compilation(False):        # force tree-walking interpretation
        sys_ = System(arch)

    src = generated_source(sys_, "cache::serve")   # dump generated code

Per-system override: an engine spec with ``compiled=off``
(``System(arch, engine="sim,compiled=off")``).
"""

from __future__ import annotations

from contextlib import contextmanager

from .codegen import BodyCompiler, JunctionCode, compile_junction_code
from .formulas import formula_function, is_pure

__all__ = [
    "BodyCompiler",
    "JunctionCode",
    "compilation",
    "compile_default",
    "compile_junction_code",
    "formula_function",
    "generated_source",
    "is_pure",
]

_default_enabled = True


@contextmanager
def compilation(enabled: bool):
    """Context manager setting the ambient compile default for Systems
    built inside the block (an ``EngineSpec(compiled=...)`` passed to
    the System still wins)."""
    global _default_enabled
    prev = _default_enabled
    _default_enabled = bool(enabled)
    try:
        yield
    finally:
        _default_enabled = prev


def compile_default() -> bool:
    """The ambient compile default (see :func:`compilation`)."""
    return _default_enabled


def generated_source(system, node: str) -> str | None:
    """The generated module source for a junction (``"inst::junction"``
    or a sole-junction instance name), or ``None`` when the junction
    runs interpreted."""
    if "::" in node:
        inst, jname = node.split("::", 1)
        jr = system.instances[inst].junction(jname)
    else:
        jr = system.instances[node].sole_junction()
    code = getattr(jr, "code", None)
    return code.source if code is not None else None
