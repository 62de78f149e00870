"""Loading the architecture library's DSL sources.

Architectures live as ``.csaw`` files under ``repro/arch/dsl``, each
of them C-Saw as written.  The sharded ones are parameterized by the
number of back-ends (a compile-time configuration parameter in the
paper, sec. 5.2): they declare the indexed instance family
``Bck[4]: Back``, whose size the load-time ``config`` entry ``Bck``
overrides — ``n_backends=N`` here is that entry and nothing else.

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
from ..core.elaborate import main_env
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


#: the indexed instance family of the sharded architectures
#: (``Bck[4]: Back``); its size is the back-end count
BACKENDS = "Bck"


def load_source(name: str) -> str:
    """Read an architecture source."""
    return dsl_path(name).read_text()


def compile_sized(
    text: str, n_backends: int | None, config=None, *, what: str
) -> CompiledProgram:
    """Compile DSL ``text``; ``n_backends`` is the ``config`` entry
    that sizes its :data:`BACKENDS` family, and an error without one."""
    if n_backends is None:
        return compile_program(text, config=config)
    program = compile_program(text, config={**(config or {}), BACKENDS: n_backends})
    if not program.family(BACKENDS):
        raise ValueError(f"{what} is not parameterized by back-end count")
    return program


def load_program(name: str, *, n_backends: int | None = None, config=None) -> CompiledProgram:
    """Load and compile an architecture."""
    return compile_sized(
        load_source(name), n_backends, config, what=f"architecture {name!r}"
    )


def backend_names(n: int) -> list[str]:
    return list(A.family_members(BACKENDS, n))


@dataclass(frozen=True)
class Target:
    """What a target named on a command line resolved to."""

    kind: str  #: ``"arch"`` (a shipped name), ``"csaw"`` or ``"py"``
    text: str | None  #: DSL source (``None`` for a script)


def open_target(target: str, *, scripts: bool = False) -> Target:
    """The one target rule: a name in :data:`ARCHITECTURES`, else a
    ``.csaw`` file, else — for the verbs that run scripts — a ``.py``
    file."""
    if target in ARCHITECTURES:
        return Target("arch", load_source(target))
    if Path(target).suffix == ".py":
        if not scripts:
            raise CSawError(
                f"{target}: expected a shipped architecture name or a .csaw "
                "file (a .py script has no single DSL source)"
            )
        return Target("py", None)
    return Target("csaw", Path(target).read_text())


def declared_hosts(type_rt) -> set[str]:
    """The ⌊H⌉ names the junctions of instance type ``type_rt`` run."""
    return {
        e.name
        for cj in type_rt.junctions.values()
        for e in A.walk(cj.body)
        if isinstance(e, A.HostBlock)
    }


def bare_main_args(program: CompiledProgram) -> dict[str, float]:
    """1.0 for every ``main`` parameter the configuration leaves open."""
    return {p: 1.0 for p in main_env(program)[1]}


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
        for name in sorted(declared_hosts(trt) - set(trt.host_fns)):
            trt.bind_host(name, lambda ctx: None)
            stubbed.append(f"{tname}.{name}")
        if trt.state.save is None:
            trt.state = StateProviders(
                save=lambda app, inst: {},
                restore=lambda app, inst, obj: None,
            )
    main_args = bare_main_args(program)
    if note is not None:
        if stubbed:
            note(f"stubbed host bindings: {', '.join(stubbed)}")
        if main_args:
            note(f"defaulted main parameter(s) to 1.0: {sorted(main_args)}")
    system.start(**main_args)
    return system
