"""Kleene-formula code generation for the junction compiler.

A *pure* formula — one built from propositions with statically-known
keys, ``false``, and the connectives — evaluates against nothing but the
junction's own value map.  For those we emit a specialized Python
function::

    def _g0(_V, _U=UNKNOWN):
        _v0 = _V.get('Req')
        if _v0 is not True and _v0 is not False:
            _v0 = _U
        return _v0

which returns the same three-valued result
(``True`` / ``False`` / :data:`~repro.core.formula.UNKNOWN`) as
:func:`repro.core.formula.evaluate` over the interpreter's prop
environment, without walking the formula tree per evaluation.

Formulas that need runtime context — ``gamma@F`` (a remote table),
``S(iota)`` (instance liveness), or a proposition indexed by an ``idx``
cursor (``!Work[tgt]``) — are *impure*: the caller leaves them to the
machine's ``truth`` op, which walks them with ``evaluate``.
"""

from __future__ import annotations

from ..core import ast as A
from ..core.formula import And, FalseF, Formula, Implies, Not, Or, Prop


def is_pure(f: Formula, idx_names: frozenset[str] | set[str]) -> bool:
    """True when ``f`` can be compiled to a closed function over the
    junction's value map (no ``@``, no ``S(..)``, no idx-indexed
    propositions that resolve through the table at runtime)."""
    if isinstance(f, Prop):
        return A.cursor_name(f.index, idx_names) is None
    if isinstance(f, FalseF):
        return True
    if isinstance(f, Not):
        return is_pure(f.operand, idx_names)
    if isinstance(f, (And, Or, Implies)):
        return is_pure(f.left, idx_names) and is_pure(f.right, idx_names)
    return False  # At / Live / anything unknown


def guard_keys(f: Formula) -> frozenset[str]:
    """The set of table keys a *pure* formula reads (its footprint).

    Only meaningful for formulas :func:`is_pure` accepts — impure
    formulas read state this walk cannot see (remote tables, liveness,
    idx cursors)."""
    out: set[str] = set()

    def walk(g: Formula) -> None:
        if isinstance(g, Prop):
            out.add(g.key())
        elif isinstance(g, Not):
            walk(g.operand)
        elif isinstance(g, (And, Or, Implies)):
            walk(g.left)
            walk(g.right)

    walk(f)
    return frozenset(out)


class _FormulaEmitter:
    """Emits SSA-style three-valued evaluation statements.

    Two addressing modes: without an index, propositions load by name
    from a mapping (``_V.get('Req')`` — the public, index-free form);
    with a junction table's key → slot ``index``, they load slot-direct
    from the flat value list (``_V[3]``), which is the write-path
    specialization the junction compiler uses — ``_V`` is then the
    table's ``slots`` list.  A validated junction declares every
    proposition it reads, so every one has a slot."""

    def __init__(self, index=None, tmp_prefix: str = "_v") -> None:
        self.lines: list[str] = []
        self._n = 0
        self._index = index
        #: temp-name prefix — the default suits a standalone function;
        #: inline emission into a larger scope (the junction compiler
        #: inlines case-arm conditions into the body) passes a
        #: site-unique prefix to keep temps from colliding
        self._tmp_prefix = tmp_prefix

    def _tmp(self) -> str:
        name = f"{self._tmp_prefix}{self._n}"
        self._n += 1
        return name

    def emit(self, f: Formula):
        """Returns ``('const', bool)`` or ``('var', name)``."""
        if isinstance(f, FalseF):
            return ("const", False)
        if isinstance(f, Prop):
            v = self._tmp()
            key = f.key()
            if self._index is None:
                self.lines.append(f"    {v} = _V.get({key!r})")
            else:
                self.lines.append(f"    {v} = _V[{self._index[key]}]  # {key!r}")
            self.lines.append(f"    if {v} is not True and {v} is not False:")
            self.lines.append(f"        {v} = _U")
            return ("var", v)
        if isinstance(f, Not):
            kind, val = self.emit(f.operand)
            if kind == "const":
                return ("const", not val)
            v = self._tmp()
            self.lines.append(f"    {v} = {val} if {val} is _U else (not {val})")
            return ("var", v)
        if isinstance(f, And):
            lk, lv = self.emit(f.left)
            rk, rv = self.emit(f.right)
            if lk == "const" and rk == "const":
                return ("const", lv and rv)
            if lk == "const":
                if lv is False:
                    return ("const", False)
                return (rk, rv)  # True && r == r
            if rk == "const":
                if rv is False:
                    return ("const", False)
                return (lk, lv)
            v = self._tmp()
            self.lines.append(
                f"    {v} = False if ({lv} is False or {rv} is False) "
                f"else (_U if ({lv} is _U or {rv} is _U) else True)"
            )
            return ("var", v)
        if isinstance(f, Or):
            lk, lv = self.emit(f.left)
            rk, rv = self.emit(f.right)
            if lk == "const" and rk == "const":
                return ("const", lv or rv)
            if lk == "const":
                if lv is True:
                    return ("const", True)
                return (rk, rv)  # False || r == r
            if rk == "const":
                if rv is True:
                    return ("const", True)
                return (lk, lv)
            v = self._tmp()
            self.lines.append(
                f"    {v} = True if ({lv} is True or {rv} is True) "
                f"else (_U if ({lv} is _U or {rv} is _U) else False)"
            )
            return ("var", v)
        if isinstance(f, Implies):
            # Kleene: l -> r  ==  !l || r (exactly how evaluate() rewrites it)
            return self.emit(Or(Not(f.left), f.right))
        raise ValueError(f"cannot compile formula node {type(f).__name__}")


def formula_function(name: str, f: Formula, index=None) -> str:
    """Source of ``def name(_V, _U=UNKNOWN)`` computing ``f``'s
    three-valued truth.  Without ``index``, ``_V`` is a by-name value
    mapping; with a junction table's key → slot ``index``, ``_V`` is
    the table's flat ``slots`` list and propositions compile to
    slot-direct loads."""
    em = _FormulaEmitter(index)
    kind, val = em.emit(f)
    body = em.lines or []
    ret = repr(val) if kind == "const" else val
    lines = [f"def {name}(_V, _U=UNKNOWN):", *body, f"    return {ret}"]
    return "\n".join(lines)
