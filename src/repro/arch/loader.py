"""Loading the architecture library's DSL sources.

Architectures live as ``.csaw`` files under ``repro/arch/dsl``.  The
sharding program is parameterized by the number of back-ends (a
compile-time configuration parameter in the paper, sec. 5.2); the
loader expands the ``@BACKENDS@`` / ``@BACKSET@`` / ``@STARTS@``
placeholders before compilation.

Two functions serve every tool that takes a *target* (each CLI verb,
the exploration scenarios): :func:`open_target` resolves what the user
named to DSL source, and :func:`start_bare` starts a program that has
no embedding application.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from ..core import ast as A
from ..core.compiler import CompiledProgram, compile_program
from ..core.errors import CSawError

_DSL_DIR = Path(__file__).parent / "dsl"

ARCHITECTURES = (
    "remote_snapshot",
    "sharding",
    "parallel_sharding",
    "caching",
    "checkpointing",
    "failover",
    "failover_fast",
    "migration",
    "elastic",
    "watched_failover",
    "broker_sharded",
    "broker_failover",
)


def dsl_path(name: str) -> Path:
    p = _DSL_DIR / f"{name}.csaw"
    if not p.exists():
        raise FileNotFoundError(f"no architecture {name!r}; have {ARCHITECTURES}")
    return p


def expand_placeholders(text: str, n_backends: int = 4) -> str:
    """Instantiate the ``@BACKENDS@`` / ``@BACKSET@`` / ``@STARTS@``
    placeholders of a back-end-parameterized source."""
    names = [f"Bck{i}" for i in range(1, n_backends + 1)]
    text = text.replace("@BACKENDS@", ", ".join(f"{b}: Back" for b in names))
    text = text.replace("@BACKSET@", "{" + ", ".join(names) + "}")
    text = text.replace("@STARTS@", " + ".join(f"start {b}(t)" for b in names))
    return text


def load_source(name: str, *, n_backends: int | None = None) -> str:
    """Read (and, for sharding, instantiate) an architecture source."""
    text = dsl_path(name).read_text()
    if "@BACKENDS@" in text:
        text = expand_placeholders(text, n_backends or 4)
    elif n_backends is not None:
        raise ValueError(f"architecture {name!r} is not parameterized by back-end count")
    return text


def load_program(name: str, *, n_backends: int | None = None, config=None) -> CompiledProgram:
    """Load and compile an architecture."""
    return compile_program(load_source(name, n_backends=n_backends), config=config)


def backend_names(n: int) -> list[str]:
    return [f"Bck{i}" for i in range(1, n + 1)]


@dataclass(frozen=True)
class Target:
    """What a target named on a command line resolved to."""

    kind: str  #: ``"arch"`` (a shipped name), ``"csaw"`` or ``"py"``
    text: str | None  #: DSL source, placeholders expanded (``None`` for a script)
    parameterized: bool = False  #: a ``.csaw`` file that carries placeholders


def open_target(
    target: str, *, n_backends: int | None = None, scripts: bool = False
) -> Target:
    """The one target rule: a name in :data:`ARCHITECTURES`, else a
    ``.csaw`` file (placeholders expanded for ``n_backends``, default
    4), else — for the verbs that run scripts — a ``.py`` file."""
    if target in ARCHITECTURES:
        return Target("arch", load_source(target, n_backends=n_backends))
    if Path(target).suffix == ".py":
        if not scripts:
            raise CSawError(
                f"{target}: expected a shipped architecture name or a .csaw "
                "file (a .py script has no single DSL source)"
            )
        return Target("py", None)
    raw = Path(target).read_text()
    text = expand_placeholders(raw, n_backends or 4)
    return Target("csaw", text, text != raw)


def start_bare(
    program: CompiledProgram,
    engine=None,
    *,
    note: Callable[[str], None] | None = None,
):
    """Start ``program`` with no embedding application and return the
    running :class:`~repro.runtime.system.System`: every unbound ⌊H⌉
    block gets a no-op host function, every type without state
    providers an empty save/restore pair, and every ``main`` parameter
    the configuration leaves open defaults to 1.0.  ``engine`` is what
    ``System(engine=...)`` takes (``None``: the ambient default);
    ``note`` hears one line per kind of stand-in made."""
    from ..runtime.instance import StateProviders
    from ..runtime.system import System

    system = System(program, engine=engine)
    stubbed: list[str] = []
    for tname, trt in sorted(system.types.items()):
        declared = {
            e.name
            for cj in trt.junctions.values()
            for e in A.walk(cj.body)
            if isinstance(e, A.HostBlock)
        }
        for name in sorted(declared - set(trt.host_fns)):
            trt.bind_host(name, lambda ctx: None)
            stubbed.append(f"{tname}.{name}")
        if trt.state.save is None:
            trt.state = StateProviders(
                save=lambda app, inst: {},
                restore=lambda app, inst, obj: None,
            )
    main_args = {}
    if program.main is not None:
        env = program.config_env()
        main_args = {p: 1.0 for p in program.main.params if p not in env}
    if note is not None:
        if stubbed:
            note(f"stubbed host bindings: {', '.join(stubbed)}")
        if main_args:
            note(f"defaulted main parameter(s) to 1.0: {sorted(main_args)}")
    system.start(**main_args)
    return system
