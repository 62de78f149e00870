"""Compile-time template expansion for the C-Saw DSL.

The paper's DSL is not Turing complete: functions are templates inlined
at compile time, and ``for`` loops unroll over compile-time sets
(sec. 6, "Template-based Recursion").  This module implements:

* **function inlining** with by-name substitution (function parameters
  may stand for data names, propositions, targets, sets, indices, or
  timeout values — cf. ``Watch(tgt, prop)`` in Fig. 16);
* **``for`` unrolling** for expressions, formulas, declarations and
  case arms, with the paper's rules: right-associative folding, empty
  set ``∨ → false``, ``∧ → !false``, other operators ``→ skip``;
* **``if`` desugaring** into a two-arm ``case``;
* **substitution** of bound values (parameters, for-variables, set
  declarations) into expressions.

Expansion happens in two phases.  Phase one (``expand_static``) runs at
compile time and inlines functions and desugars ``if``.  Phase two
(``specialize``) runs when a junction's parameters are bound at
instance start; it substitutes parameter values, resolves sets and
unrolls every ``for``.  The paper performs both at compile time; our
bind time is equivalent because instances and their start arguments are
static in a C-Saw program.
"""

from __future__ import annotations

from typing import Mapping, NamedTuple

from . import ast as A
from .errors import ExpansionError
from .formula import And, At, FalseF, Formula, Implies, Live, Not, Or, Prop, TRUE

_MAX_INLINE_DEPTH = 32

#: Values that may be bound to names during expansion.
Value = object  # A.Ref | A.Num | A.SetLit


def to_ast_value(v: object) -> Value:
    """Lift a Python value into an AST-level expansion value."""
    if isinstance(v, (A.Ref, A.Num, A.SetLit)):
        return v
    if isinstance(v, str):
        return A.ref(v)
    if isinstance(v, bool):
        raise ExpansionError("booleans are not DSL values; use propositions")
    if isinstance(v, (int, float)):
        return A.Num(float(v))
    if isinstance(v, (list, tuple, set, frozenset)):
        items = tuple(to_ast_value(x) for x in v)
        return A.SetLit(items)
    raise ExpansionError(f"cannot use {type(v).__name__} as a DSL value")


# ---------------------------------------------------------------------------
# Phase 1: function inlining + if desugaring
# ---------------------------------------------------------------------------

class _Inliner:
    """Inlines function templates into an expression tree."""

    def __init__(self, functions: Mapping[str, A.FunctionDef]):
        self.functions = functions
        self.collected_decls: list[A.Decl] = []

    def inline(self, e: A.Expr, env: Mapping[str, Value], depth: int = 0) -> A.Expr:
        if depth > _MAX_INLINE_DEPTH:
            raise ExpansionError("function inlining exceeded maximum depth (recursive templates?)")

        if isinstance(e, A.Call):
            fn = self.functions.get(e.func)
            if fn is None:
                raise ExpansionError(f"unknown function {e.func!r}")
            if len(fn.params) != len(e.args):
                raise ExpansionError(
                    f"function {e.func!r} expects {len(fn.params)} argument(s), got {len(e.args)}"
                )
            call_env = dict(
                zip(fn.params, (subst_arg(a, env) for a in e.args))
            )
            # Function declarations merge into the host junction, with
            # the call's arguments substituted in.
            for d in fn.decls:
                self.collected_decls.append(subst_decl(d, call_env))
            body = subst_expr(fn.body, call_env)
            return self.inline(body, {}, depth + 1)

        if isinstance(e, A.If):
            then = self.inline(e.then, env, depth)
            orelse = self.inline(e.orelse, env, depth) if e.orelse is not None else A.Skip()
            return A.Case(
                arms=(A.CaseArm(e.cond, then, "break"),),
                otherwise=orelse,
            )

        return _rebuild(e, lambda c: self.inline(c, env, depth))


def _rebuild(e: A.Expr, f) -> A.Expr:
    """Rebuild ``e`` with ``f`` applied to each direct child expression."""
    if isinstance(e, A.FateBlock):
        return A.FateBlock(f(e.body))
    if isinstance(e, A.Transaction):
        return A.Transaction(f(e.body))
    if isinstance(e, A.Seq):
        return A.seq(*(f(i) for i in e.items))
    if isinstance(e, A.Par):
        return A.par(*(f(i) for i in e.items))
    if isinstance(e, A.RepPar):
        return A.RepPar(tuple(f(i) for i in e.items))
    if isinstance(e, A.Otherwise):
        return A.Otherwise(f(e.body), e.timeout, f(e.handler))
    if isinstance(e, A.Case):
        arms = []
        for arm in e.arms:
            if isinstance(arm, A.ForArm):
                arms.append(
                    A.ForArm(
                        arm.var,
                        arm.iterable,
                        A.CaseArm(arm.arm.formula, f(arm.arm.body), arm.arm.terminator),
                    )
                )
            else:
                arms.append(A.CaseArm(arm.formula, f(arm.body), arm.terminator))
        return A.Case(tuple(arms), f(e.otherwise))
    if isinstance(e, A.For):
        return A.For(e.var, e.iterable, e.op, f(e.body), e.op_timeout)
    return e


def inline_functions(
    body: A.Expr, functions: Mapping[str, A.FunctionDef]
) -> tuple[A.Expr, tuple[A.Decl, ...]]:
    """Inline all function calls in ``body``; returns the rewritten body
    and any declarations contributed by inlined functions."""
    inl = _Inliner(functions)
    out = inl.inline(body, {})
    return out, tuple(inl.collected_decls)


# ---------------------------------------------------------------------------
# Substitution
# ---------------------------------------------------------------------------

def subst_arg(a: object, env: Mapping[str, Value]) -> object:
    """Substitute bound names inside an argument expression, folding
    arithmetic when both operands become numbers."""
    if isinstance(a, A.Ref):
        if a.parts[0] not in env:
            return a
        head = env[a.parts[0]]
        if a.parts[0] == ME:
            return _resolve_me(a, *head.parts)
        if a.is_simple:
            return head
        if isinstance(head, A.Ref):
            return A.Ref(head.parts + a.parts[1:])
        raise ExpansionError(f"cannot qualify non-reference value with ::{a.parts[1:]}")
    if isinstance(a, A.Num):
        return a
    if isinstance(a, A.SetLit):
        return A.SetLit(tuple(subst_arg(i, env) for i in a.items))
    if isinstance(a, A.BinArith):
        left = subst_arg(a.left, env)
        right = subst_arg(a.right, env)
        if isinstance(left, A.Num) and isinstance(right, A.Num):
            ops = {
                "+": lambda x, y: x + y,
                "-": lambda x, y: x - y,
                "*": lambda x, y: x * y,
                "/": lambda x, y: x / y,
            }
            return A.Num(ops[a.op](left.value, right.value))
        return A.BinArith(a.op, left, right)
    return a


def _subst_name(name: str, env: Mapping[str, Value], what: str) -> str:
    """Substitute a name-position occurrence (data name, prop name)."""
    if name in env:
        v = env[name]
        if isinstance(v, A.Ref) and v.is_simple:
            return v.name
        raise ExpansionError(f"parameter {name!r} used as a {what} must be bound to a simple name")
    return name


def _subst_index(index: object, env: Mapping[str, Value]) -> object:
    if index is None:
        return None
    if isinstance(index, (A.Ref, A.Num, A.BinArith)):
        return subst_arg(index, env)
    return index


def _subst_target(t: object, env: Mapping[str, Value]) -> object:
    if isinstance(t, A.SelfTarget):
        return t
    if isinstance(t, A.Ref):
        return subst_arg(t, env)
    return t


def subst_formula(f: Formula, env: Mapping[str, Value]) -> Formula:
    if isinstance(f, Prop):
        name = _subst_name(f.name, env, "proposition")
        return Prop(name, _subst_index(f.index, env))
    if isinstance(f, FalseF):
        return f
    if isinstance(f, Not):
        return Not(subst_formula(f.operand, env))
    if isinstance(f, And):
        return And(subst_formula(f.left, env), subst_formula(f.right, env))
    if isinstance(f, Or):
        return Or(subst_formula(f.left, env), subst_formula(f.right, env))
    if isinstance(f, Implies):
        return Implies(subst_formula(f.left, env), subst_formula(f.right, env))
    if isinstance(f, At):
        return At(_subst_target(f.junction, env), subst_formula(f.body, env))
    if isinstance(f, Live):
        return Live(_subst_target(f.instance, env))
    if isinstance(f, A.ForFormula):
        inner = {k: v for k, v in env.items() if k != f.var}
        return A.ForFormula(f.var, subst_arg(f.iterable, env), f.op, subst_formula(f.body, inner))
    raise ExpansionError(f"cannot substitute into formula {f!r}")


def subst_decl(d: A.Decl, env: Mapping[str, Value]) -> A.Decl:
    if isinstance(d, A.InitProp):
        return A.InitProp(_subst_name(d.name, env, "proposition"), d.value, _subst_index(d.index, env))
    if isinstance(d, A.InitData):
        return A.InitData(_subst_name(d.name, env, "data name"))
    if isinstance(d, A.Guard):
        return A.Guard(subst_formula(d.formula, env))
    if isinstance(d, A.SetDecl):
        lit = A.SetLit(tuple(subst_arg(i, env) for i in d.literal.items)) if d.literal else None
        return A.SetDecl(d.name, lit)
    if isinstance(d, A.SubsetDecl):
        return A.SubsetDecl(d.name, subst_arg(d.of_set, env))
    if isinstance(d, A.IdxDecl):
        return A.IdxDecl(d.name, subst_arg(d.of_set, env))
    if isinstance(d, A.ForInit):
        inner = {k: v for k, v in env.items() if k != d.var}
        return A.ForInit(d.var, subst_arg(d.iterable, env), subst_decl(d.decl, inner))
    raise ExpansionError(f"cannot substitute into declaration {d!r}")


def subst_expr(e: A.Expr, env: Mapping[str, Value]) -> A.Expr:
    if isinstance(e, (A.Skip, A.Return, A.Retry, A.HostBlock, A.Keep)):
        return e
    if isinstance(e, A.Write):
        return A.Write(_subst_name(e.name, env, "data name"), _subst_target(e.target, env))
    if isinstance(e, A.Save):
        return A.Save(_subst_name(e.name, env, "data name"))
    if isinstance(e, A.Restore):
        return A.Restore(_subst_name(e.name, env, "data name"))
    if isinstance(e, A.Wait):
        keys = tuple(_subst_name(k, env, "data name") for k in e.keys)
        return A.Wait(keys, subst_formula(e.formula, env))
    if isinstance(e, A.Assert):
        return A.Assert(
            _subst_target(e.target, env),
            _subst_name(e.prop, env, "proposition"),
            _subst_index(e.index, env),
        )
    if isinstance(e, A.Retract):
        return A.Retract(
            _subst_target(e.target, env),
            _subst_name(e.prop, env, "proposition"),
            _subst_index(e.index, env),
        )
    if isinstance(e, A.Verify):
        return A.Verify(subst_formula(e.formula, env))
    if isinstance(e, A.Otherwise):
        return A.Otherwise(
            subst_expr(e.body, env),
            subst_arg(e.timeout, env) if e.timeout is not None else None,
            subst_expr(e.handler, env),
        )
    if isinstance(e, A.Start):
        groups = tuple(
            (jname, tuple(subst_arg(a, env) for a in args)) for jname, args in e.junction_args
        )
        target = _subst_target(e.instance, env)
        if not isinstance(target, A.Ref):
            raise ExpansionError(f"start target must be an instance reference, got {target!r}")
        return A.Start(target, groups)
    if isinstance(e, A.Stop):
        target = _subst_target(e.instance, env)
        if not isinstance(target, A.Ref):
            raise ExpansionError(f"stop target must be an instance reference, got {target!r}")
        return A.Stop(target)
    if isinstance(e, A.Call):
        return A.Call(e.func, tuple(subst_arg(a, env) for a in e.args))
    if isinstance(e, A.Case):
        arms = []
        for arm in e.arms:
            if isinstance(arm, A.ForArm):
                inner = {k: v for k, v in env.items() if k != arm.var}
                arms.append(
                    A.ForArm(
                        arm.var,
                        subst_arg(arm.iterable, env),
                        A.CaseArm(
                            subst_formula(arm.arm.formula, inner),
                            subst_expr(arm.arm.body, inner),
                            arm.arm.terminator,
                        ),
                    )
                )
            else:
                arms.append(
                    A.CaseArm(
                        subst_formula(arm.formula, env),
                        subst_expr(arm.body, env),
                        arm.terminator,
                    )
                )
        return A.Case(tuple(arms), subst_expr(e.otherwise, env))
    if isinstance(e, A.If):
        return A.If(
            subst_formula(e.cond, env),
            subst_expr(e.then, env),
            subst_expr(e.orelse, env) if e.orelse is not None else None,
        )
    if isinstance(e, A.For):
        inner = {k: v for k, v in env.items() if k != e.var}
        return A.For(
            e.var,
            subst_arg(e.iterable, env),
            e.op,
            subst_expr(e.body, inner),
            subst_arg(e.op_timeout, env) if e.op_timeout is not None else None,
        )
    if isinstance(e, A.FateBlock):
        return A.FateBlock(subst_expr(e.body, env))
    if isinstance(e, A.Transaction):
        return A.Transaction(subst_expr(e.body, env))
    if isinstance(e, A.Seq):
        return A.seq(*(subst_expr(i, env) for i in e.items))
    if isinstance(e, A.Par):
        return A.par(*(subst_expr(i, env) for i in e.items))
    if isinstance(e, A.RepPar):
        return A.RepPar(tuple(subst_expr(i, env) for i in e.items))
    raise ExpansionError(f"cannot substitute into {type(e).__name__}")


# ---------------------------------------------------------------------------
# ``me::`` resolution
# ---------------------------------------------------------------------------

#: env key under which substitution finds ``Ref((instance, junction))``,
#: the junction being closed: every position that can hold a
#: reference goes through :func:`subst_arg`, so binding it resolves
#: ``me::junction`` / ``me::instance[::j]`` wherever they stand
ME = "me"


def _resolve_me(r: A.Ref, instance: str, junction: str) -> A.Ref:
    if r.parts == (ME, "junction"):
        return A.Ref((instance, junction))
    if r.parts[1:2] == ("instance",):
        return A.Ref((instance,) + r.parts[2:])
    raise ExpansionError(f"unknown special reference {r}")


def resolve_me_formula(f: Formula, instance: str, junction: str) -> Formula:
    return subst_formula(f, {ME: A.Ref((instance, junction))})


def resolve_me_expr(e: A.Expr, instance: str, junction: str) -> A.Expr:
    """Rewrite ``me::junction`` / ``me::instance[::j]`` references to the
    concrete instance and junction names (:func:`specialize` does it
    as part of closing a junction)."""
    return subst_expr(e, {ME: A.Ref((instance, junction))})


# ---------------------------------------------------------------------------
# Phase 2: set resolution + for unrolling
# ---------------------------------------------------------------------------

def resolve_set(iterable: object, env: Mapping[str, Value]) -> tuple:
    """Resolve a set expression (a set name or literal) to its elements."""
    s = subst_arg(iterable, env) if isinstance(iterable, (A.Ref, A.BinArith)) else iterable
    if isinstance(s, A.SetLit):
        return tuple(subst_arg(i, env) for i in s.items)
    if isinstance(s, A.Ref):
        raise ExpansionError(f"set {s} has no value at expansion time")
    raise ExpansionError(f"not a set: {s!r}")


#: env-key prefix marking a subset declaration's parent set, so that
#: ``for x in <subset>`` can unroll over the parent with membership
#: guards (subsets are runtime-populated; sec. 7.1's Fig. 6).
SUBSET_PARENT_PREFIX = "__subset_parent__:"


def subset_membership_prop(subset_name: str) -> str:
    """The auto-declared proposition family tracking a subset's
    membership: ``__in_<name>[elem]``."""
    return f"__in_{subset_name}"


def unroll_for(e: A.For, env: Mapping[str, Value]) -> A.Expr:
    """Unroll one ``for`` node per the paper's template-recursion rules.

    Iterating over a *subset* unrolls over its (compile-time) parent
    set, wrapping each instantiation in a membership test on the
    auto-maintained ``__in_<subset>[elem]`` proposition — "all sets and
    subsets are necessarily finite, and it is always possible to
    iterate over them" (sec. 6)."""
    if isinstance(e.iterable, A.Ref) and e.iterable.is_simple:
        parent_key = SUBSET_PARENT_PREFIX + e.iterable.name
        if parent_key in env:
            member = subset_membership_prop(e.iterable.name)
            guarded = A.Case(
                arms=(A.CaseArm(Prop(member, A.ref(e.var)), e.body, "break"),),
                otherwise=A.Skip(),
            )
            inner = A.For(e.var, env[parent_key], e.op, guarded, e.op_timeout)
            return unroll_for(inner, env)
    elems = resolve_set(e.iterable, env)
    if not elems:
        return A.Skip()  # expression-level ops: empty set -> skip
    bodies = []
    for elem in elems:
        inner = dict(env)
        inner[e.var] = elem
        bodies.append(unroll_expr(subst_expr(e.body, {e.var: elem}), inner))
    if len(bodies) == 1:
        return bodies[0]
    if e.op == ";":
        return A.seq(*bodies)
    if e.op == "+":
        return A.par(*bodies)
    if e.op == "||":
        return A.RepPar(tuple(bodies))
    if e.op == "otherwise":
        # right-associative: E1 otherwise (E2 otherwise E3)
        out = bodies[-1]
        for b in reversed(bodies[:-1]):
            out = A.Otherwise(b, e.op_timeout, out)
        return out
    raise ExpansionError(f"unknown for-operator {e.op!r}")


def unroll_formula(f: Formula, env: Mapping[str, Value]) -> Formula:
    """Unroll ``ForFormula`` nodes and substitute the environment."""
    f = subst_formula(f, env)
    if isinstance(f, A.ForFormula):
        elems = resolve_set(f.iterable, env)
        if not elems:
            return FalseF() if f.op == "||" else TRUE
        parts = [unroll_formula(subst_formula(f.body, {f.var: el}), env) for el in elems]
        out = parts[-1]
        ctor = Or if f.op == "||" else And
        for p in reversed(parts[:-1]):
            out = ctor(p, out)
        return out
    if isinstance(f, Not):
        return Not(unroll_formula(f.operand, env))
    if isinstance(f, And):
        return And(unroll_formula(f.left, env), unroll_formula(f.right, env))
    if isinstance(f, Or):
        return Or(unroll_formula(f.left, env), unroll_formula(f.right, env))
    if isinstance(f, Implies):
        return Implies(unroll_formula(f.left, env), unroll_formula(f.right, env))
    if isinstance(f, At):
        return At(f.junction, unroll_formula(f.body, env))
    return f


def unroll_expr(e: A.Expr, env: Mapping[str, Value]) -> A.Expr:
    """Recursively unroll every ``for`` in ``e`` under ``env``."""
    if isinstance(e, A.For):
        return unroll_for(A.For(e.var, e.iterable, e.op, e.body, e.op_timeout), env)
    if isinstance(e, A.Wait):
        return A.Wait(e.keys, unroll_formula(e.formula, env))
    if isinstance(e, A.Verify):
        return A.Verify(unroll_formula(e.formula, env))
    if isinstance(e, A.Case):
        arms: list[A.CaseArm] = []
        for arm in e.arms:
            if isinstance(arm, A.ForArm):
                for elem in resolve_set(arm.iterable, env):
                    sub = {arm.var: elem}
                    arms.append(
                        A.CaseArm(
                            unroll_formula(subst_formula(arm.arm.formula, sub), env),
                            unroll_expr(subst_expr(arm.arm.body, sub), env),
                            arm.arm.terminator,
                        )
                    )
            else:
                arms.append(
                    A.CaseArm(
                        unroll_formula(arm.formula, env),
                        unroll_expr(arm.body, env),
                        arm.terminator,
                    )
                )
        return A.Case(tuple(arms), unroll_expr(e.otherwise, env))
    if isinstance(e, A.If):
        # If survives only if phase 1 was skipped (direct API use).
        orelse = unroll_expr(e.orelse, env) if e.orelse is not None else A.Skip()
        return A.Case(
            arms=(A.CaseArm(unroll_formula(e.cond, env), unroll_expr(e.then, env), "break"),),
            otherwise=orelse,
        )
    return _rebuild(e, lambda c: unroll_expr(c, env))


class Closed(NamedTuple):
    """A closed junction: what :func:`specialize` returns.  It unpacks
    as the pair ``(body, decls)``."""

    body: A.Expr
    decls: tuple[A.Decl, ...]

    @property
    def guard(self) -> Formula | None:
        """The formula of the (last) ``guard`` declaration, if any."""
        guards = [d.formula for d in self.decls if isinstance(d, A.Guard)]
        return guards[-1] if guards else None


def specialize(
    body: A.Expr,
    decls: tuple[A.Decl, ...],
    env: Mapping[str, Value],
    me: tuple[str, str] | None = None,
) -> Closed:
    """Close a junction: substitute parameter values into ``body`` and
    ``decls``, resolve set declarations, unroll all templates and —
    given ``me``, the ``(instance, junction)`` being closed — resolve
    ``me::`` references.  Returns the closed body and the flattened
    declarations (ForInit expanded to concrete InitProps).

    Set declarations with literals extend the environment so later
    declarations and the body can iterate over them.
    """
    env = dict(env)
    if me is not None:
        env[ME] = A.Ref(me)
    out_decls: list[A.Decl] = []
    # register subset parents first so body unrolling sees them
    for d in decls:
        if isinstance(d, A.SubsetDecl):
            of = subst_arg(d.of_set, env)
            if isinstance(of, A.Ref) and of.is_simple:
                # parent set declared by a (possibly later) SetDecl or env
                for d2 in decls:
                    if isinstance(d2, A.SetDecl) and d2.name == of.name and d2.literal:
                        of = d2.literal
                        break
                else:
                    of = env.get(of.name, of)
            if isinstance(of, A.SetLit):
                env[SUBSET_PARENT_PREFIX + d.name] = of
    for d in decls:
        d = subst_decl(d, env)
        if isinstance(d, A.SetDecl):
            if d.literal is None:
                if d.name not in env:
                    raise ExpansionError(
                        f"set {d.name!r} has no literal and no value supplied at load time"
                    )
            else:
                env[d.name] = d.literal
            out_decls.append(A.SetDecl(d.name, d.literal or env.get(d.name)))
        elif isinstance(d, A.ForInit):
            for elem in resolve_set(d.iterable, env):
                out_decls.append(subst_decl(d.decl, {d.var: elem}))
        elif isinstance(d, A.Guard):
            out_decls.append(A.Guard(unroll_formula(d.formula, env)))
        else:
            out_decls.append(d)

    return Closed(unroll_expr(subst_expr(body, env), env), tuple(out_decls))
