"""Compilation pipeline: parse → validate → inline → package.

The output, :class:`CompiledProgram`, is what the runtime loads.  Each
junction keeps its (inlined, ``if``-desugared) body template plus its
declarations; final specialization — substituting the parameter values
supplied by ``start`` and unrolling ``for`` templates — happens when an
instance starts (:func:`repro.core.expand.specialize`).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Mapping

from . import ast as A
from .errors import CompileError
from .expand import inline_functions, subst_decl, subst_expr, to_ast_value
from .parser import parse_program
from .validate import validate_program


@dataclass(frozen=True)
class CompiledJunction:
    """A junction definition after function inlining."""

    type_name: str
    name: str
    params: tuple[str, ...]
    decls: tuple[A.Decl, ...]
    body: A.Expr

    @property
    def qualified(self) -> str:
        return f"{self.type_name}::{self.name}"


@dataclass(frozen=True)
class CompiledProgram:
    """A validated, inlined architecture description ready to run."""

    source: A.Program
    junctions: tuple[CompiledJunction, ...]
    main: A.MainDef | None
    config: Mapping[str, object] = field(default_factory=dict)
    #: the DSL text this program was compiled from, when compiled from
    #: text (the analyzer reads ``# analyze:`` comment directives)
    source_text: str | None = None

    def instance_map(self) -> dict[str, str]:
        return self.source.instance_map()

    def family(self, name: str) -> tuple[str, ...]:
        """The members of instance family ``name`` in index order
        (empty when the program declares no such family)."""
        sizes = {f[0]: f[1] for f in self.source.families}
        return A.family_members(name, sizes[name]) if name in sizes else ()

    def junctions_of_type(self, type_name: str) -> list[CompiledJunction]:
        return [j for j in self.junctions if j.type_name == type_name]

    def junction(self, type_name: str, name: str) -> CompiledJunction:
        for j in self.junctions:
            if j.type_name == type_name and j.name == name:
                return j
        raise CompileError(f"no junction {type_name}::{name}")

    def config_env(self) -> dict[str, object]:
        """The load-time configuration lifted to AST values (used to
        supply ``set`` declarations without literals and main args)."""
        return {k: to_ast_value(v) for k, v in self.config.items()}


def compile_program(
    source: str | A.Program,
    config: Mapping[str, object] | None = None,
) -> CompiledProgram:
    """Compile DSL source text (or a parsed :class:`~repro.core.ast.Program`).

    ``config`` supplies load-time values: the size of an indexed
    instance family (``{"Bck": 16}`` for ``Bck[4]: Back`` — consumed
    here: the compiled program carries it in ``source.families``),
    contents for ``set`` declarations that lack literals, and values
    referenced by ``main``'s parameters when the runtime starts the
    program.
    """
    program = parse_program(source) if isinstance(source, str) else source
    config = dict(config or {})
    program = replace(program, families=tuple(
        (name, config.pop(name, size), tname) for name, size, tname in program.families
    ))
    validate_program(program)
    functions = program.function_map()
    # a family's name denotes the set of its members: templates carry
    # the set, so two sizes differ exactly where hand-written ones would
    sets = {
        name: A.SetLit(tuple(A.ref(m) for m in A.family_members(name, size)))
        for name, size, _ in program.families
    }
    for owner in (*program.defs, *filter(None, [program.main])):
        for p in sets.keys() & set(owner.params):
            raise CompileError(f"parameter {p!r} carries the name of an instance family")

    compiled: list[CompiledJunction] = []
    for d in program.defs:
        body, extra_decls = inline_functions(d.body, functions)
        decls = d.decls + extra_decls
        if sets:
            decls = tuple(subst_decl(x, sets) for x in decls)
            body = subst_expr(body, sets)
        compiled.append(
            CompiledJunction(
                type_name=d.type_name,
                name=d.junction,
                params=d.params,
                decls=decls,
                body=body,
            )
        )

    main = program.main
    if main is not None:
        main_body, extra = inline_functions(main.body, functions)
        if extra:
            raise CompileError("functions inlined into main may not carry declarations")
        if sets:
            main_body = subst_expr(main_body, sets)
        main = A.MainDef(params=main.params, body=main_body)

    return CompiledProgram(
        source=program,
        junctions=tuple(compiled),
        main=main,
        config=config,
        source_text=source if isinstance(source, str) else None,
    )
