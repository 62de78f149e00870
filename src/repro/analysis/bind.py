"""Bind compiled junctions to instances for whole-program analysis.

Mirrors what :meth:`repro.runtime.system.System._start_instance` does at
run time — specialize each (instance, junction) body with the load-time
configuration, resolve ``me::`` references — but *statically*, for every
instance at once.  Junction parameters that remain unbound (timeouts
supplied by ``start`` arguments) are defaulted to ``1.0``: parameter
values never influence key flow, only deadlines.

Also derives the set of instances that are ever started.  ``start``
targets that go through an idx cursor (elastic scale-out) are dynamic —
their presence disables the never-started check.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core import ast as A
from ..core.compiler import CompiledJunction, CompiledProgram
from ..core.expand import resolve_me_decl, resolve_me_expr, specialize, to_ast_value
from ..core.formula import Formula


@dataclass
class BoundJunction:
    """One (instance, junction) pair with a closed body."""

    node: str  # "instance::junction"
    instance: str
    type_name: str
    junction: str
    params: tuple[str, ...]
    decls: tuple[A.Decl, ...]
    body: A.Expr
    guard: Formula | None


@dataclass
class Binding:
    """The statically-bound program."""

    program: CompiledProgram
    junctions: list[BoundJunction]
    unbound: list[tuple[str, str]]  # (node, reason) that failed to close
    started: frozenset[str]  # instance names started anywhere
    has_dynamic_starts: bool

    def sole_junction_node(self, instance: str) -> str | None:
        """The runtime's instance-name target resolution: an instance
        with exactly one junction."""
        nodes = [bj.node for bj in self.junctions if bj.instance == instance]
        return nodes[0] if len(nodes) == 1 else None


def bind_program(program: CompiledProgram, env: dict | None = None) -> Binding:
    cfg = program.config_env()
    for k, v in (env or {}).items():
        cfg[k] = to_ast_value(v)

    main_body = _specialized_main(program, cfg)
    start_args = _collect_start_args(main_body)

    junctions: list[BoundJunction] = []
    unbound: list[tuple[str, str]] = []
    for iname, tname in program.instance_map().items():
        for cj in program.junctions_of_type(tname):
            node = f"{iname}::{cj.name}"
            args = start_args.get((iname, cj.name), start_args.get((iname, None)))
            try:
                body, decls = _close(cj, cfg, args)
            except Exception as exc:  # stays analyzable program-minus-one
                unbound.append((node, str(exc)))
                continue
            body = resolve_me_expr(body, iname, cj.name)
            decls = tuple(resolve_me_decl(d, iname, cj.name) for d in decls)
            guard = None
            for d in decls:
                if isinstance(d, A.Guard):
                    guard = d.formula
            junctions.append(
                BoundJunction(
                    node=node,
                    instance=iname,
                    type_name=tname,
                    junction=cj.name,
                    params=cj.params,
                    decls=decls,
                    body=body,
                    guard=guard,
                )
            )

    started, dynamic = _started_instances(program, main_body, junctions)
    return Binding(
        program=program,
        junctions=junctions,
        unbound=unbound,
        started=frozenset(started),
        has_dynamic_starts=dynamic,
    )


def _specialized_main(program: CompiledProgram, cfg: dict) -> A.Expr | None:
    if program.main is None:
        return None
    env = dict(cfg)
    for p in program.main.params:
        env.setdefault(p, A.Num(1.0))
    try:
        body, _ = specialize(program.main.body, (), env)
        return body
    except Exception:
        return program.main.body


def _collect_start_args(main_body: A.Expr | None) -> dict[tuple[str, str | None], tuple]:
    """Junction arguments supplied by ``main``'s ``start`` statements:
    ``start f b({b1,b2}, t)`` binds f::b's params.  An anonymous
    argument group (``start Wrk1(t)``) applies to every junction of the
    instance (keyed with junction None)."""
    out: dict[tuple[str, str | None], tuple] = {}
    if main_body is None:
        return out
    for e in A.walk(main_body):
        if not isinstance(e, A.Start):
            continue
        iname = str(e.instance)
        for jname, args in e.junction_args:
            out[(iname, jname)] = tuple(args)
    return out


def _close(
    cj: CompiledJunction, cfg: dict, args: tuple | None
) -> tuple[A.Expr, tuple[A.Decl, ...]]:
    """Specialize with the config plus ``main``'s start arguments;
    default params that remain unbound to 1.0 (timeouts never influence
    key flow)."""
    env = dict(cfg)
    if args:
        for p, a in zip(cj.params, args):
            env[p] = a
    for p in cj.params:
        env.setdefault(p, A.Num(1.0))
    return specialize(cj.body, cj.decls, env)


def _started_instances(
    program: CompiledProgram, main_body: A.Expr | None, junctions: list[BoundJunction]
) -> tuple[set[str], bool]:
    """Instances started by ``main`` or (flow-insensitively) by any
    junction body.  Returns (started, has_dynamic_starts)."""
    instances = set(program.instance_map())
    started: set[str] = set()
    dynamic = False

    bodies: list[A.Expr] = [bj.body for bj in junctions]
    if main_body is not None:
        bodies.append(main_body)

    for body in bodies:
        for e in A.walk(body):
            if not isinstance(e, A.Start):
                continue
            name = str(e.instance)
            if name in instances:
                started.add(name)
            else:
                dynamic = True  # idx cursor / parameter target
    return started, dynamic
