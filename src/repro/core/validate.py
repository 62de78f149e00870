"""Well-formedness checks for C-Saw programs.

The paper states several validity constraints (secs. 4 and 6):

* ``case`` expressions cannot be empty or contain only an ``otherwise``
  branch, and ``next`` cannot be used immediately before ``otherwise``
  (i.e. on the final non-otherwise arm).
* Host blocks (``⌊.⌉``) are not allowed inside transactions ``⟨|.|⟩``
  since rollback is undefined for them.
* Junctions cannot ``write`` data to themselves, and ``assert [j] P``
  is rejected when ``j`` is the containing junction (communication to
  self, sec. 6).
* Neither indices nor sets may be serialized or transmitted between
  junctions (``write`` of a set/subset/idx name is an error).
* Definitions must be given the right number of parameters (checked at
  expansion for functions; here for ``start``).
* Instances must name declared instance types; junction definitions
  must belong to declared types.  An indexed family ``F[n]`` has a
  size ≥ 1, and neither ``F`` nor any of ``F1 … Fn`` is declared twice.
* A junction's state is declared up front (sec. 6, "Junction state"):
  every local proposition a closed junction names is one of its
  :func:`declared_keys`, the set its runtime table is laid out from.

Two entry points:

* :func:`validate_program` — static checks on a parsed program.
* :func:`validate_closed_junction` — checks on a specialized junction
  body (names resolved, templates unrolled) before interpretation.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Mapping, NamedTuple

from . import ast as A
from .errors import CompileError, ValidationError
from .expand import subset_membership_prop
from .formula import At, Formula, Live, Prop


def _duplicates(names) -> list[str]:
    seen: set[str] = set()
    out: list[str] = []
    for n in names:
        if n in seen and n not in out:
            out.append(n)
        seen.add(n)
    return out


def validate_program(program: A.Program) -> None:
    """Static validation of a parsed (unexpanded) program."""
    types = set(program.instance_types)
    if len(program.instance_types) != len(types):
        dupes = _duplicates(program.instance_types)
        raise ValidationError(f"duplicate instance type name(s): {', '.join(dupes)}")

    instances = program.all_instances()
    # a family's own name is taken too: it denotes the set of its members
    inst_names = [n for n, _ in instances] + [f[0] for f in program.families]
    if len(inst_names) != len(set(inst_names)):
        dupes = _duplicates(inst_names)
        raise ValidationError(
            f"duplicate instance name(s): {', '.join(dupes)} — each name in "
            f"`instances {{...}}` must be unique"
        )
    for name, tname in instances:
        if tname not in types:
            raise ValidationError(f"instance {name!r} has undeclared type {tname!r}")

    seen_defs = set()
    for d in program.defs:
        if d.type_name not in types:
            raise ValidationError(f"junction {d.qualified!r} belongs to undeclared type {d.type_name!r}")
        if d.qualified in seen_defs:
            raise ValidationError(f"duplicate junction definition {d.qualified!r}")
        seen_defs.add(d.qualified)
        _validate_decls(d.decls, where=d.qualified)
        _validate_expr(d.body, where=d.qualified, in_transaction=False, own=d)

    fn_names = set()
    for fn in program.functions:
        if fn.name in fn_names:
            raise ValidationError(f"duplicate function {fn.name!r}")
        fn_names.add(fn.name)
        _validate_expr(fn.body, where=fn.name, in_transaction=False, own=None)

    if program.main is not None:
        _validate_expr(program.main.body, where="main", in_transaction=False, own=None)
        if not any(isinstance(e, A.Start) for e in A.walk(program.main.body)):
            raise ValidationError("main must start at least one instance")


def _validate_decls(decls: tuple[A.Decl, ...], where: str) -> None:
    declared: set[str] = set()
    guards = 0
    for d in decls:
        if isinstance(d, (A.InitProp, A.InitData, A.SetDecl, A.SubsetDecl, A.IdxDecl)):
            name = d.name
            if isinstance(d, A.InitProp) and d.index is not None:
                continue  # indexed init: many keys under one family name
            if name in declared:
                raise ValidationError(f"{where}: duplicate declaration of {name!r}")
            declared.add(name)
        elif isinstance(d, A.Guard):
            guards += 1
            if guards > 1:
                raise ValidationError(f"{where}: more than one guard declaration")
        elif isinstance(d, A.ForInit):
            pass  # family declarations may share names across vars
        else:
            raise ValidationError(f"{where}: unknown declaration {d!r}")


def _is_self_ref(target: object, own: A.JunctionDef | None) -> bool:
    if not isinstance(target, A.Ref):
        return False
    if target.parts == ("me", "junction"):
        return True
    if own is not None and target.parts == (own.type_name, own.junction):
        return True
    return False


def _validate_expr(e: A.Expr, where: str, in_transaction: bool, own: A.JunctionDef | None) -> None:
    if isinstance(e, A.HostBlock):
        if in_transaction:
            raise ValidationError(
                f"{where}: host block {e.name!r} inside a transaction (rollback undefined for host code)"
            )
        return
    if isinstance(e, A.Write):
        if _is_self_ref(e.target, own):
            raise ValidationError(f"{where}: write to self is redundant and not allowed")
        return
    if isinstance(e, (A.Assert, A.Retract)):
        if _is_self_ref(e.target, own):
            kind = "assert" if isinstance(e, A.Assert) else "retract"
            raise ValidationError(
                f"{where}: {kind} [{e.target}] names the containing junction; use the local form '[]'"
            )
        return
    if isinstance(e, A.Case):
        real_arms = [a for a in e.arms]
        if not real_arms:
            raise ValidationError(f"{where}: case must contain at least one non-otherwise arm")
        for i, arm in enumerate(real_arms):
            inner = arm.arm if isinstance(arm, A.ForArm) else arm
            if inner.terminator not in ("break", "next", "reconsider"):
                raise ValidationError(f"{where}: invalid case terminator {inner.terminator!r}")
            is_last = i == len(real_arms) - 1
            if is_last and inner.terminator == "next" and not isinstance(arm, A.ForArm):
                raise ValidationError(
                    f"{where}: 'next' cannot be used immediately before 'otherwise'"
                )
            _validate_expr(inner.body, where, in_transaction, own)
        _validate_expr(e.otherwise, where, in_transaction, own)
        return
    if isinstance(e, A.Transaction):
        _validate_expr(e.body, where, True, own)
        return
    if isinstance(e, A.Start):
        names = [j for j, _ in e.junction_args]
        anon = [j for j in names if j is None]
        if anon and len(names) > 1:
            raise ValidationError(
                f"{where}: start {e.instance} mixes anonymous and named argument groups"
            )
        if len([j for j in names if j is not None]) != len(set(j for j in names if j is not None)):
            raise ValidationError(f"{where}: start {e.instance} repeats a junction name")
        return
    for c in A.children(e):
        _validate_expr(c, where, in_transaction, own)


# ---------------------------------------------------------------------------
# Closed-junction validation (post-specialization)
# ---------------------------------------------------------------------------

class DeclaredKeys(NamedTuple):
    """The keys a closed junction's table holds: exactly what its
    declarations give a slot (sec. 6, "Junction state").  The
    validator checks every local key against it and the runtime lays
    tables out from it, so the two cannot disagree."""

    #: key → initial proposition value, ``None`` for data, idx and
    #: subset keys (``undef`` in a table); in slot order
    initial: Mapping[str, bool | None]
    #: proposition keys: flat, family members and the subset-membership
    #: propositions (``__in_<subset>[elem]``)
    props: frozenset[str]
    data: frozenset[str]
    idx: frozenset[str]
    subset: frozenset[str]
    sets: frozenset[str]  # not keys: sets are not junction state
    #: family name → the indices of its declared members, in order
    families: Mapping[str, tuple[str, ...]]
    #: ``x!of`` → the elements idx/subset ``x`` ranges over; a set
    #: name → its literal's elements
    set_values: Mapping[str, tuple]


def set_elements(s: object) -> tuple:
    """Normalize a closed set expression to runtime elements
    (strings/floats)."""
    if isinstance(s, A.SetLit):
        out = []
        for item in s.items:
            if isinstance(item, A.Ref):
                out.append(str(item))
            elif isinstance(item, A.Num):
                out.append(item.value)
            else:
                out.append(item)
        return tuple(out)
    if isinstance(s, tuple):
        return s
    raise CompileError(f"set expression {s!r} was not resolved before runtime")


def declared_keys(decls: tuple[A.Decl, ...]) -> DeclaredKeys:
    """The closed key set of a junction's (specialized) declarations."""
    initial: dict[str, bool | None] = {}  # a re-declared key keeps its slot
    props: set[str] = set()
    data: set[str] = set()
    idx: set[str] = set()
    subset: set[str] = set()
    sets: set[str] = set()
    families: dict[str, list[str]] = {}
    set_values: dict[str, tuple] = {}

    def prop(name: str, index: object, value: bool) -> None:
        key = name if index is None else f"{name}[{index}]"
        initial[key] = value
        if index is not None and key not in props:
            families.setdefault(name, []).append(str(index))
        props.add(key)

    for d in decls:
        if isinstance(d, A.InitProp):
            prop(d.name, d.index, d.value)
        elif isinstance(d, A.InitData):
            initial[d.name] = None
            data.add(d.name)
        elif isinstance(d, A.IdxDecl):
            initial[d.name] = None
            idx.add(d.name)
            set_values[d.name + "!of"] = set_elements(d.of_set)
        elif isinstance(d, A.SubsetDecl):
            initial[d.name] = None
            subset.add(d.name)
            parents = set_values[d.name + "!of"] = set_elements(d.of_set)
            # auto-maintained membership propositions, so the DSL can
            # iterate subsets (unrolled over the parent set)
            for elem in parents:
                prop(subset_membership_prop(d.name), elem, False)
        elif isinstance(d, A.SetDecl):
            sets.add(d.name)
            if d.literal is not None:
                set_values[d.name] = set_elements(d.literal)
    return DeclaredKeys(
        MappingProxyType(initial), frozenset(props), frozenset(data), frozenset(idx),
        frozenset(subset), frozenset(sets),
        MappingProxyType({f: tuple(m) for f, m in families.items()}),
        MappingProxyType(set_values),
    )


def validate_closed_junction(
    qualified: str,
    decls: tuple[A.Decl, ...],
    body: A.Expr,
    params: tuple[str, ...] = (),
) -> None:
    """Validate a specialized junction: every local key its guard and
    statements name is one of its :func:`declared_keys`, sets/indices
    are not transmitted, and host writes target declared writable
    state."""
    keys = declared_keys(decls)
    data = keys.data
    unserializable = keys.sets | keys.subset | keys.idx
    writable_by_host = keys.initial.keys() | keys.families.keys()
    params_set = set(params)

    def formula(site: str, f: Formula) -> None:
        for p in _local_props(f):
            _check_prop(qualified, site, p.name, p.index, keys)

    for d in decls:
        if isinstance(d, A.Guard):
            formula("guard references", d.formula)
    for e in A.walk(body):
        if isinstance(e, A.Write):
            if e.name in unserializable:
                raise ValidationError(
                    f"{qualified}: sets and indices must not be transmitted (write({e.name}, ...))"
                )
            if e.name not in data:
                raise ValidationError(f"{qualified}: write of undeclared data {e.name!r}")
        elif isinstance(e, A.Save):
            if e.name not in data:
                raise ValidationError(f"{qualified}: save into undeclared data {e.name!r}")
        elif isinstance(e, A.Restore):
            if e.name in params_set:
                raise ValidationError(
                    f"{qualified}: parameters are read-only and cannot be restored"
                )
            if e.name not in data:
                raise ValidationError(f"{qualified}: restore of undeclared data {e.name!r}")
        elif isinstance(e, A.Wait):
            for k in e.keys:
                if k not in data:
                    raise ValidationError(f"{qualified}: wait admits undeclared data {k!r}")
            formula("wait formula references", e.formula)
        elif isinstance(e, A.Case):
            for arm in e.arms:
                if isinstance(arm, A.CaseArm):
                    formula("case arm references", arm.formula)
        elif isinstance(e, A.If):
            formula("if condition references", e.cond)
        elif isinstance(e, A.Verify):
            formula("verify references", e.formula)
        elif isinstance(e, (A.Assert, A.Retract)):
            if isinstance(e.target, A.SelfTarget):
                site = "assert of" if isinstance(e, A.Assert) else "retract of"
                _check_prop(qualified, site, e.prop, e.index, keys)
        elif isinstance(e, A.HostBlock):
            for w in e.writes:
                if w not in writable_by_host:
                    raise ValidationError(
                        f"{qualified}: host block {e.name!r} declares write to unknown state {w!r}"
                    )
        elif isinstance(e, A.Keep):
            for k in e.keys:
                if k not in data and k not in keys.props:
                    raise ValidationError(
                        f"{qualified}: keep of undeclared key {k!r}{family_note(k, keys)}"
                    )


def _show(elems) -> str:
    return "{" + ", ".join(map(str, elems)) + "}"


def family_note(key: str, keys: DeclaredKeys) -> str:
    """For a ``key`` that ``keys`` does not hold, the family and set it
    falls outside of (``": z is not in family Up's set {a, b}"``), or
    ``""`` when it names no declared family."""
    name, _, index = key.partition("[")
    members = keys.families.get(name)
    if not index or members is None:
        return ""
    return f": {index[:-1]} is not in family {name}'s set {_show(members)}"


def _check_prop(where: str, site: str, name: str, index: object, keys: DeclaredKeys) -> None:
    """A local proposition must have a slot; ``name[cursor]`` needs one
    for every element the cursor can hold."""
    cursor = A.cursor_name(index, keys.idx)
    if cursor is None:
        key = name if index is None else f"{name}[{index}]"
        if key not in keys.props:
            raise ValidationError(
                f"{where}: {site} undeclared proposition {key!r}{family_note(key, keys)}"
            )
        return
    elems = keys.set_values[cursor + "!of"]
    if any(f"{name}[{e}]" not in keys.props for e in elems):
        raise ValidationError(
            f"{where}: {site} {name}[{cursor}], but idx {cursor}'s set "
            f"{_show(elems)} is not inside family {name}'s set "
            f"{_show(keys.families.get(name, ()))}"
        )


def _local_props(f: Formula):
    """Prop nodes of ``f`` outside any ``@`` scope."""
    from .formula import And, Implies, Not, Or

    if isinstance(f, Prop):
        yield f
    elif isinstance(f, (At, Live)):
        return
    elif isinstance(f, Not):
        yield from _local_props(f.operand)
    elif isinstance(f, (And, Or, Implies)):
        yield from _local_props(f.left)
        yield from _local_props(f.right)
