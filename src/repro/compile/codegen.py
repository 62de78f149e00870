"""Junction body → specialized Python generator source.

At instance-bind time (:meth:`System._start_instance`) each junction's
specialized body is lowered to one flat generator function::

    def _body(ex, C):
        _t = ex.table
        _V = _t.slots
        ...
        _t.set_slot(0, 'Req', False)
        yield ex.send_update(C[0], 'state', ex.data('state'))

It is the second front-end of the junction-body machine
(:class:`~repro.runtime.interpreter.JunctionExecution`; the first is
the tree-walker, :mod:`repro.runtime.treewalk`): every effect is a call
of one of the machine's public ops, so requests, telemetry and failure
messages are the tree-walker's by construction.  What the generated
code does itself is what needs no machine: sequencing, ``case``
matching, the retry/return loop, slot-direct reads and local stores on
the junction's own table, and pure formulas (compiled via
:mod:`.formulas`) — that is what eliminates the per-event dispatch, the
per-statement generator frames, and the formula-tree walks.

The technique is the one proven in :mod:`repro.serde.codegen`:
deterministic source text (equal junctions generate byte-identical
source — hypothesis-tested), loaded through :func:`repro.codeload.load`,
which compiles each distinct text once.  The text does not name its
junction, so the members of a family share one code object (each
closure still gets its own functions and namespace).
Runtime objects that cannot appear in source (resolved target
junctions, formulas, argument expressions) travel in the constant tuple
``C``; AST *statements* never do.

A junction's closure (:class:`~repro.runtime.instance.Closure`) is
emitted and loaded once: its :class:`Emission` keeps the text, the
guard and body functions its one load made, and a recipe for ``C``, so
a later bind of the closure — a rebuild, a restart, a reshard's rebind
— re-resolves only the static targets against its own ``System`` and
runs the same functions.  Generated functions keep no per-junction
state (everything per ``System`` is in ``C``), so sharing them is safe.

Anything the lowering does not cover — unexpanded templates, unknown
terminators — makes the *whole junction* fall back to the tree-walker,
which stays the reference semantics.
"""

from __future__ import annotations

from typing import NamedTuple

from ..codeload import load
from ..core import ast as A
from ..core.errors import CSawError, ReturnSignal, RetrySignal
from ..core.formula import UNKNOWN, Formula
from ..runtime.interpreter import fold_number
from .formulas import _FormulaEmitter, formula_function, is_pure


class Unsupported(Exception):
    """A construct the compiler does not lower; the junction falls back
    to the tree-walker (raised and caught internally)."""


#: names available to generated modules (injected at exec time — the
#: source stays import-free and byte-stable)
_NAMESPACE = {
    "UNKNOWN": UNKNOWN,
    "ReturnSignal": ReturnSignal,
    "RetrySignal": RetrySignal,
}


#: the name generated modules carry in tracebacks (one for every text)
_FILENAME = "<generated-junction>"


class Emission(NamedTuple):
    """What compiling one closure produced, short of its ``System``.

    ``source`` is None when the junction falls back to the tree-walker.
    ``recipe`` rebuilds ``C`` entry by entry as ``(obj, static)``:
    ``static=None`` is ``obj`` itself; ``True`` is the junction the
    target ``obj`` resolved to at bind time, resolved again per bind;
    ``False`` is a target that did not resolve statically and is passed
    as is to ``ex.resolve``.  ``body_fn`` and ``guard_fn`` are the
    functions the one load of ``source`` made; every bind of the
    closure runs them with its own ``C``."""

    source: str | None
    recipe: tuple
    body_fn: object = None
    guard_fn: object = None


#: the tree-walker fallback verdict
FALLBACK = Emission(None, ())


class JunctionCode:
    """Compiled artifact of one bound junction."""

    __slots__ = ("node", "source", "body_fn", "guard_fn", "consts")

    def __init__(self, node, source, body_fn, guard_fn, consts):
        self.node = node
        #: the generated module source (``repro.api.generated_source``)
        self.source = source
        #: generator function ``body_fn(ex, C)`` — one call per attempt
        self.body_fn = body_fn
        #: ``guard_fn(slots) -> True|False|UNKNOWN`` or None (impure
        #: guard); takes the owning table's flat slot list
        self.guard_fn = guard_fn
        self.consts = consts


class BodyCompiler:
    """Lowers one bound junction; see :func:`compile_junction_code`."""

    def __init__(self, system, jr):
        self.system = system
        self.jr = jr
        self.node = jr.node
        self.consts: list[object] = []
        self.recipe: list[tuple[object, bool | None]] = []
        self.module_fns: list[str] = []
        self._tmp_n = 0
        self._fn_n = 0
        self._yields = False

    # -- small helpers ------------------------------------------------------

    def _tmp(self) -> str:
        self._tmp_n += 1
        return f"_x{self._tmp_n}"

    def _const(self, obj, recipe: tuple | None = None) -> str:
        """``obj`` as an entry of ``C``; ``recipe`` is its
        :class:`Emission` entry when that is not ``(obj, None)``."""
        self.consts.append(obj)
        self.recipe.append((obj, None) if recipe is None else recipe)
        return f"C[{len(self.consts) - 1}]"

    def _pred(self, f: Formula) -> str | None:
        """Module-level Kleene function for a pure formula, else None.

        Compiled against the junction's slot index: ``_V`` in the
        generated module is the table's flat ``slots`` list and the
        predicate loads slot-direct (the write-path specialization)."""
        if not is_pure(f, self.jr.declared.idx):
            return None
        name = f"_f{self._fn_n}"
        self._fn_n += 1
        self.module_fns.append(formula_function(name, f, self.jr.table.index))
        return name

    def _formula_cond_inline(self, f: Formula, tag: str):
        """Inline a pure formula at its use site: ``(lines, expr)``
        where ``lines`` (at function base indent) compute the Kleene
        value into a ``tag``-prefixed temp and ``expr`` tests it.

        Case-arm conditions use this instead of a predicate function:
        a scheduling evaluates every arm condition on the miss path
        (the common storm case — no arm matches, fall to otherwise),
        so per-arm predicate-function calls are pure call overhead.
        Returns None for impure formulas, which must stay lazy
        ``ex.truth`` calls — they walk runtime context and would be
        wasted work when an earlier arm matches."""
        if not is_pure(f, self.jr.declared.idx):
            return None
        em = _FormulaEmitter(self.jr.table.index, tmp_prefix=f"_c{tag}_")
        kind, val = em.emit(f)
        if kind == "const":
            return ([], "True" if val else "False")
        return (em.lines, f"{val} is True")

    def _number_expr(self, arg) -> str:
        """An Arg as source: folded against the junction's bind-time
        parameters where it is a number, else left to ``ex.number``
        (which fails the strand at runtime, as the tree-walker does)."""
        try:
            v = fold_number(arg, self.jr.params)
        except ValueError:
            return f"ex.number({self._const(arg)})"
        if v != v or v in (float("inf"), float("-inf")):
            return f"float({str(v)!r})"
        return repr(v)

    def _target_expr(self, target) -> str:
        """A communication target as source: resolved now where it is
        runtime-stable (``System.resolve_target(static=True)``), else
        ``ex.resolve`` per execution."""
        try:
            resolved = self.system.resolve_target(target, self.jr, static=True)
        except CSawError:
            return f"ex.resolve({self._const(target, (target, False))})"
        return self._const(resolved, (target, True))

    # -- statement lowering -------------------------------------------------

    def _block(self, e, out: list[str], ind: int) -> None:
        """Emit ``e``; guarantee at least one statement (``pass``)."""
        mark = len(out)
        self._stmt(e, out, ind)
        if len(out) == mark:
            out.append(f"{'    ' * ind}pass")

    def _stmt(self, e, out: list[str], ind: int) -> None:
        p = "    " * ind
        if isinstance(e, A.Skip):
            return
        if isinstance(e, A.Return):
            out.append(f"{p}raise ReturnSignal()")
            return
        if isinstance(e, A.Retry):
            out.append(f"{p}raise RetrySignal()")
            return
        if isinstance(e, A.Seq):
            for item in e.items:
                self._stmt(item, out, ind)
            return
        if isinstance(e, A.HostBlock):
            out.append(f"{p}yield from ex.host({e.name!r}, {tuple(e.writes)!r})")
            self._yields = True
            return
        if isinstance(e, A.Save):
            out.append(f"{p}ex.save({e.name!r})")
            return
        if isinstance(e, A.Restore):
            out.append(f"{p}ex.restore({e.name!r})")
            return
        if isinstance(e, A.Write):
            val = self._tmp()
            out.append(f"{p}{val} = ex.data({e.name!r})")
            out.append(f"{p}yield ex.send_update({self._target_expr(e.target)}, {e.name!r}, {val})")
            self._yields = True
            return
        if isinstance(e, (A.Assert, A.Retract)):
            self._emit_set_prop(e, isinstance(e, A.Assert), out, ind)
            return
        if isinstance(e, A.Keep):
            out.append(f"{p}_t.keep({tuple(e.keys)!r})")
            return
        if isinstance(e, A.Wait):
            # pure formulas have no cursor to resolve: wake-up checks
            # run the compiled predicate
            pred = self._pred(e.formula)
            out.append(f"{p}yield ex.wait({self._const(e.formula)}, {tuple(e.keys)!r}, {pred})")
            self._yields = True
            return
        if isinstance(e, A.Verify):
            pred = self._pred(e.formula)
            value = f", {pred}(_V)" if pred is not None else ""
            out.append(f"{p}ex.verify({self._const(e.formula)}{value})")
            return
        if isinstance(e, A.FateBlock):
            out.append(f"{p}try:")
            self._block(e.body, out, ind + 1)
            out.append(f"{p}except ReturnSignal:")
            out.append(f"{p}    pass")
            return
        if isinstance(e, A.Transaction):
            out.append(f"{p}with ex.transaction():")
            self._block(e.body, out, ind + 1)
            return
        if isinstance(e, A.Otherwise):
            sc = self._tmp()
            timeout = None if e.timeout is None else self._number_expr(e.timeout)
            out.append(f"{p}with ex.deadline({timeout}) as {sc}:")
            self._block(e.body, out, ind + 1)
            out.append(f"{p}if {sc}.failed:")
            self._block(e.handler, out, ind + 1)
            return
        if isinstance(e, (A.Par, A.RepPar)):
            self._emit_parallel(e.items, out, ind)
            return
        if isinstance(e, A.Case):
            self._emit_case(e, out, ind)
            return
        if isinstance(e, A.Start):
            out.append(
                f"{p}ex.start_instance({self._const(e.instance)}, {self._const(e.junction_args)})"
            )
            return
        if isinstance(e, A.Stop):
            out.append(f"{p}ex.stop_instance({self._const(e.instance)})")
            return
        # Call / For / If / anything unknown: the tree-walker fails these
        # at runtime — keep that behaviour by not compiling the junction
        raise Unsupported(type(e).__name__)

    def _emit_set_prop(self, e, value: bool, out, ind) -> None:
        p = "    " * ind
        cursor = A.cursor_name(e.index, self.jr.declared.idx) is not None
        if cursor:
            key_expr = self._tmp()
            out.append(f"{p}{key_expr} = ex.prop_key({e.prop!r}, {self._const(e.index)})")
        else:
            key_expr = repr(e.key())
        if not isinstance(e.target, A.SelfTarget):
            out.append(
                f"{p}yield from ex.set_remote({self._target_expr(e.target)}, {key_expr}, {value!r})"
            )
            self._yields = True
        elif cursor:
            out.append(f"{p}_t.set_local({key_expr}, {value!r})")
        else:
            # the junction declares every local key, so it has a slot
            slot = self.jr.table.index[e.key()]
            out.append(f"{p}_t.set_slot({slot}, {key_expr}, {value!r})")

    def _emit_parallel(self, items, out, ind) -> None:
        p = "    " * ind
        fnames = []
        for item in items:
            fname = f"_par{self._fn_n}"
            self._fn_n += 1
            self._emit_gen_function(fname, item)
            fnames.append(fname)
        gens = ", ".join(f"{fn}(ex, C)" for fn in fnames)
        out.append(f"{p}yield ex.join([{gens}])")
        self._yields = True

    # -- case ---------------------------------------------------------------

    def _emit_case(self, e: A.Case, out, ind) -> None:
        p = "    " * ind
        if e.otherwise is None:
            raise Unsupported("case without otherwise")
        n = self._tmp_n = self._tmp_n + 1
        low, prev, m, mark = f"_l{n}", f"_pm{n}", f"_m{n}", f"_mk{n}"
        conds = []
        pre_lines: list[str] = []
        for i, arm in enumerate(e.arms):
            if not isinstance(arm, A.CaseArm):
                raise Unsupported(type(arm).__name__)
            if arm.terminator not in ("break", "next", "reconsider"):
                raise Unsupported(f"case terminator {arm.terminator!r}")
            inlined = self._formula_cond_inline(arm.formula, f"{n}a{i}")
            if inlined is None:
                conds.append(f"ex.truth({self._const(arm.formula)}) is True")
            else:
                lines, expr = inlined
                pre_lines.extend(lines)
                conds.append(expr)
        out.append(f"{p}{low} = 0")
        out.append(f"{p}{prev} = None")
        out.append(f"{p}while True:")
        q = p + "    "
        out.append(f"{q}{m} = None")
        # pure arm conditions, inlined and evaluated eagerly once per
        # match round: side-effect free, and the common miss path (no
        # arm matches) reads every one of them anyway
        for line in pre_lines:
            out.append(q + line[4:])
        for i, cond in enumerate(conds):
            kw = "if" if i == 0 else "elif"
            out.append(f"{q}{kw} {low} <= {i} and ({cond}):")
            out.append(f"{q}    {m} = {i}")
        out.append(f"{q}if {m} is None:")
        self._block(e.otherwise, out, ind + 2)
        out.append(f"{q}    break")
        out.append(f"{q}{mark} = ex.case_match({m}, {prev})")
        for i, arm in enumerate(e.arms):
            kw = "if" if i == 0 else "elif"
            out.append(f"{q}{kw} {m} == {i}:")
            self._block(arm.body, out, ind + 2)
            term = arm.terminator
            if term == "break":
                out.append(f"{q}    break")
            elif term == "next":
                out.append(f"{q}    {low} = {i + 1}")
                out.append(f"{q}    {prev} = None")
            else:  # reconsider
                out.append(f"{q}    {low} = 0")
                out.append(f"{q}    {prev} = {mark}")

    # -- function assembly ---------------------------------------------------

    def _emit_gen_function(self, fname: str, body, root: bool = False) -> None:
        """A module-level generator function with the standard preamble
        (used for the root body and each parallel child).

        ``root`` compiles the retry/return loop into the function
        itself (as :func:`repro.runtime.treewalk.body` has it), so the
        generated generator can serve as the execution's root strand
        directly — no wrapper generator frame per scheduling."""
        saved = self._yields
        self._yields = False
        stmts: list[str] = []
        self._block(body, stmts, 3 if root else 1)
        lines = [
            f"def {fname}(ex, C):",
            "    _t = ex.table",
            "    _V = _t.slots",
            "    _U = UNKNOWN",
        ]
        if root:
            lines += [
                "    while True:",
                "        try:",
                *stmts,
                "            return",
                "        except ReturnSignal:",
                "            return",
                "        except RetrySignal:",
                "            ex.retry()",
            ]
        else:
            lines += stmts
        if not self._yields:
            lines.append("    if False:")
            lines.append("        yield None")
        self.module_fns.append("\n".join(lines))
        self._yields = saved

    def compile(self) -> tuple[JunctionCode, Emission]:
        guard = self.jr.guard
        guard_name = None
        if is_pure(guard, self.jr.declared.idx):
            guard_name = "_guard"
            self.module_fns.append(
                formula_function(guard_name, guard, self.jr.table.index)
            )
        self._emit_gen_function("_body", self.jr.body, root=True)
        header = (
            '"""Auto-generated by repro.compile.codegen -- do not edit.\n'
            "\n"
            "Specialized strand body of one bound junction.\n"
            '"""\n'
        )
        source = header + "\n\n\n".join(self.module_fns) + "\n"
        ns = load(source, _FILENAME, _NAMESPACE)
        emitted = Emission(
            source,
            tuple(self.recipe),
            ns["_body"],
            ns[guard_name] if guard_name is not None else None,
        )
        return _load(self.node, emitted, tuple(self.consts)), emitted


def _load(node: str, emitted: Emission, consts: tuple) -> JunctionCode:
    """``node``'s code: the closure's loaded functions and its own ``C``."""
    return JunctionCode(
        node=node,
        source=emitted.source,
        body_fn=emitted.body_fn,
        guard_fn=emitted.guard_fn,
        consts=consts,
    )


def _consts(system, jr, recipe: tuple) -> tuple | None:
    """``C`` for ``jr`` from an earlier emission's recipe, or None when a
    target no longer resolves as it did (the text would differ)."""
    consts = []
    for obj, static in recipe:
        if static is not None:
            try:
                resolved = system.resolve_target(obj, jr, static=True)
            except CSawError:
                if static:
                    return None
            else:
                if not static:
                    return None
                obj = resolved
        consts.append(obj)
    return tuple(consts)


def compile_junction_code(system, jr) -> JunctionCode | None:
    """Compile one bound junction; ``None`` when any construct is
    outside the lowering (the tree-walker remains the reference path).

    The verdict is kept on the junction's closure (``jr.closure``): a
    later bind of the closure rebuilds ``C`` from the recipe and reuses
    the loaded functions, and emits afresh only if a target resolves
    differently in its ``System``."""
    closure = jr.closure
    emitted = closure.emitted
    if emitted is not None:
        if emitted.source is None:
            return None
        consts = _consts(system, jr, emitted.recipe)
        if consts is not None:
            return _load(jr.node, emitted, consts)
    try:
        code, emitted = BodyCompiler(system, jr).compile()
    except Unsupported:
        code, emitted = None, FALLBACK
    closure.emitted = emitted
    return code
