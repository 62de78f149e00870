"""Elaboration: what each ``(instance, junction)`` of a program closes to.

Sec. 8.4's start-up portion hands every junction its parameters
(``main`` → ``Start_init(ι)`` → the init writes); ``Topo`` (sec. 8.7),
the denotation (sec. 8.5) and the analyzer are functions of the result.
The rule — docs/RUNTIME.md, "Elaboration" — is spelled once, here: the
runtime executes ``main`` through the small steps below, and
:func:`elaborate` follows the same steps statically for a whole program.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping

from . import ast as A
from .compiler import CompiledJunction, CompiledProgram
from .errors import CSawError, StartStopFailure
from .expand import specialize, to_ast_value
from .formula import Formula


def main_env(
    program: CompiledProgram, args: Mapping[str, object] | None = None
) -> tuple[dict, list[str]]:
    """The environment ``main`` closes under — the configuration, then
    ``args`` by name — and the parameters of ``main`` it leaves open."""
    env = program.config_env()
    env.update((k, to_ast_value(v)) for k, v in (args or {}).items())
    params = program.main.params if program.main is not None else ()
    return env, [p for p in params if p not in env]


def start_groups(instance: str, junctions: Iterable, junction_args: tuple) -> dict[str, tuple]:
    """The argument groups of one ``start`` by junction name
    (``junctions``: what ``instance`` has, anything with a ``name``).
    An anonymous group — ``start i(args)`` — names the sole junction of
    ``i``; on an instance with several it is a failure."""
    groups = dict(junction_args)
    if None in groups and len(groups) == 1:
        junctions = list(junctions)
        if len(junctions) != 1:
            raise StartStopFailure(
                f"start {instance}: anonymous arguments but {len(junctions)} junctions"
            )
        groups = {junctions[0].name: groups[None]}
    return groups


def junction_env(
    config_env: Mapping[str, object], cj: CompiledJunction, args: tuple, instance: str
) -> dict:
    """The environment junction ``cj`` of ``instance`` closes under:
    the configuration, then its ``start`` arguments by position."""
    if len(args) != len(cj.params):
        raise StartStopFailure(
            f"start {instance}: junction {cj.name!r} expects {len(cj.params)} "
            f"parameter(s), got {len(args)}"
        )
    return {**config_env, **dict(zip(cj.params, args))}


def main_starts(
    program: CompiledProgram, env: Mapping[str, object]
) -> tuple[A.Expr, dict[str, tuple]]:
    """``main`` closed under ``env`` and, for each declared instance it
    starts by name, that ``start``'s argument groups as written (a
    target that goes through an ``idx`` cursor is the runtime's to
    resolve; :func:`start_groups` reads the groups)."""
    if program.main is None:
        return A.Skip(), {}
    body = specialize(program.main.body, (), env).body
    declared = program.instance_map()
    return body, {
        str(e.instance): e.junction_args
        for e in A.walk(body)
        if isinstance(e, A.Start) and str(e.instance) in declared
    }


@dataclass
class BoundJunction:
    """One (instance, junction) pair, closed."""

    node: str  # "instance::junction"
    instance: str
    type_name: str
    junction: str
    params: tuple[str, ...]
    decls: tuple[A.Decl, ...]
    body: A.Expr
    guard: Formula | None

    @cached_property
    def idx_sets(self) -> dict[str, tuple[str, ...]]:
        """The element names each ``idx`` cursor ranges over (empty
        when its set has no static value)."""
        literals = {d.name: d.literal for d in self.decls if isinstance(d, A.SetDecl)}
        out = {}
        for d in self.decls:
            if isinstance(d, A.IdxDecl):
                of = d.of_set
                if isinstance(of, A.Ref) and of.is_simple:
                    of = literals.get(of.name)
                items = of.items if isinstance(of, A.SetLit) else ()
                out[d.name] = tuple(str(i) for i in items)
        return out


@dataclass
class Binding:
    """The statically elaborated program."""

    program: CompiledProgram
    main: A.Expr  # main's closed body (``skip`` without a main)
    junctions: list[BoundJunction]
    unbound: list[tuple[str, str]]  # (node, reason) that did not close
    started: frozenset[str]  # instance names started anywhere
    has_dynamic_starts: bool  # some start goes through a cursor

    @cached_property
    def _bare(self) -> dict[str, str]:
        """Instance name → the node a bare mention of it denotes."""
        out = {}
        for iname, tname in self.program.instance_map().items():
            names = [cj.name for cj in self.program.junctions_of_type(tname)]
            if len(names) == 1 or "junction" in names:
                out[iname] = f"{iname}::{names[0] if len(names) == 1 else 'junction'}"
        return out

    def node_of(self, name: str) -> str | None:
        """The runtime's reading of a target element: ``Inst::j`` as
        written; a bare ``Inst`` is its sole junction, else the one
        named ``junction``, else nothing (the runtime raises)."""
        return name if "::" in name else self._bare.get(name)

    def targets(self, target: object, bj: BoundJunction) -> list[str]:
        """The nodes a communication target of ``bj`` can denote — an
        ``idx`` cursor stands for every element of its set — and an
        empty list when that cannot be told statically."""
        if isinstance(target, A.SelfTarget):
            return [bj.node]
        if not isinstance(target, A.Ref):
            return []
        elems = bj.idx_sets.get(str(target), (str(target),))
        return [n for n in map(self.node_of, elems) if n is not None]


def elaborate(program: CompiledProgram, env: Mapping[str, object] | None = None) -> Binding:
    """Close every junction of ``program`` as the runtime would on
    ``start(**env)``.  Being static, it gives each parameter of
    ``main`` that is left open the value 1.0, closes a junction ``main``
    does not start under ``env`` by name, and lists what does not close
    in ``unbound`` instead of raising."""
    static, missing = main_env(program, env)
    static.update((p, A.Num(1.0)) for p in missing)
    config = program.config_env()
    instances = program.instance_map()
    try:
        main, starts = main_starts(program, static)
    except CSawError:  # e.g. a ``for`` over a set only ``start()`` supplies
        main, starts = program.main.body, {}

    junctions: list[BoundJunction] = []
    unbound: list[tuple[str, str]] = []
    for iname, tname in instances.items():
        cjs = program.junctions_of_type(tname)
        for cj in cjs:
            node = f"{iname}::{cj.name}"
            try:
                jenv = static
                if iname in starts:
                    args = start_groups(iname, cjs, starts[iname]).get(cj.name, ())
                    jenv = junction_env(config, cj, args, iname)
                closed = specialize(cj.body, cj.decls, jenv, (iname, cj.name))
            except CSawError as exc:  # stays analyzable program-minus-one
                unbound.append((node, str(exc)))
                continue
            junctions.append(
                BoundJunction(
                    node, iname, tname, cj.name, cj.params,
                    closed.decls, closed.body, closed.guard,
                )
            )

    # started: by main or (flow-insensitively) by any junction body
    targets = {
        str(e.instance)
        for body in [main, *(bj.body for bj in junctions)]
        for e in A.walk(body)
        if isinstance(e, A.Start)
    }
    return Binding(
        program, main, junctions, unbound,
        started=frozenset(targets & instances.keys()),
        has_dynamic_starts=bool(targets - instances.keys()),
    )
