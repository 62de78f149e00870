"""Abstract syntax of the C-Saw DSL (Table 1 of the paper).

Every node is an immutable dataclass.  The tree produced by the parser
is *unexpanded*: it may still contain function calls (templates),
``for`` loops, ``if`` sugar and unresolved parameter names.  The
expander (:mod:`repro.core.expand`) rewrites it into a closed form that
the runtime interprets directly.

Naming follows the paper:

=================  =====================================================
Paper              Here
=================  =====================================================
``⌊H⌉{V}``         :class:`HostBlock`
``⟨E⟩``            :class:`FateBlock`
``⟨|E|⟩``          :class:`Transaction`
``E1; E2``         :class:`Seq` (n-ary)
``E1 + E2``        :class:`Par` (n-ary)
``∥n E``           :class:`RepPar`
``otherwise[t]``   :class:`Otherwise`
``case {..}``      :class:`Case` / :class:`CaseArm`
=================  =====================================================
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from .errors import CompileError
from .formula import Formula


# ---------------------------------------------------------------------------
# References and argument expressions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Ref:
    """A possibly-qualified name: ``g``, ``f::c``, ``me::junction``,
    ``me::instance::serve``.

    ``parts`` holds the ``::``-separated components.  A single-part Ref
    may denote (depending on context, resolved later): a parameter, a
    proposition, a data name, an instance, a set, or an index variable.
    """

    parts: Tuple[str, ...]

    def __post_init__(self):
        if not self.parts:
            raise ValueError("empty reference")

    @property
    def is_simple(self) -> bool:
        return len(self.parts) == 1

    @property
    def name(self) -> str:
        """The sole component of a simple reference."""
        if not self.is_simple:
            raise ValueError(f"{self} is not a simple name")
        return self.parts[0]

    def __str__(self) -> str:
        return "::".join(self.parts)


def ref(text: str) -> Ref:
    """Build a :class:`Ref` from ``'a::b::c'`` notation."""
    return Ref(tuple(text.split("::")))


def cursor_name(index: object, idx_names) -> str | None:
    """The ``idx`` cursor a proposition index names (``Work[tgt]`` with
    ``idx tgt of {...}`` — sec. 7.1's per-back-end propositions), or
    None for a static index."""
    if isinstance(index, Ref) and index.is_simple and index.name in idx_names:
        return index.name
    return None


@dataclass(frozen=True)
class Num:
    """A numeric literal argument (timeout values etc.)."""

    value: float

    def __str__(self) -> str:
        v = self.value
        return str(int(v)) if float(v).is_integer() else str(v)


@dataclass(frozen=True)
class BinArith:
    """Arithmetic on arguments, e.g. the ``3*t`` of Fig. 12."""

    op: str  # '+', '-', '*', '/'
    left: "Arg"
    right: "Arg"

    def __str__(self) -> str:
        return f"({self.left} {self.op} {self.right})"


@dataclass(frozen=True)
class SetLit:
    """A literal set: ``{b1::serve, b2::serve}``.  Elements are Refs or
    Nums; sets may not contain sets (checked by validation)."""

    items: Tuple[object, ...]

    def __str__(self) -> str:
        return "{" + ", ".join(str(i) for i in self.items) + "}"


#: Things that may appear as definition arguments.
Arg = object  # Ref | Num | BinArith | SetLit


# ---------------------------------------------------------------------------
# Targets of assert/retract/write
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SelfTarget:
    """The ``[]`` target: the junction's own table."""

    def __str__(self) -> str:
        return "[]"


#: A communication target: SelfTarget, or a Ref (instance, junction,
#: parameter or index variable — resolved at runtime).
Target = object


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------

class Expr:
    """Base class for expression nodes."""

    __slots__ = ()


@dataclass(frozen=True)
class HostBlock(Expr):
    """``host Name {w1, w2}``: run host-language code ``Name``.

    ``writes`` lists the junction-state symbols the host code may write
    (the ``{V}`` of ``⌊H⌉{V}``); host code may *read* arbitrary junction
    state.  An empty tuple means the block cannot alter the KV table.
    """

    name: str
    writes: Tuple[str, ...] = ()

    def __str__(self) -> str:
        w = "{" + ", ".join(self.writes) + "}" if self.writes else ""
        return f"host {self.name}{w}"


@dataclass(frozen=True)
class FateBlock(Expr):
    """``⟨E⟩``: a common fate scope.  Failure inside propagates out;
    no rollback is performed.  ``return`` inside leaves the block."""

    body: Expr

    def __str__(self) -> str:
        return f"{{ {self.body} }}"


@dataclass(frozen=True)
class Transaction(Expr):
    """``⟨|E|⟩``: like :class:`FateBlock` but a failure rolls the KV
    table back to its state at block entry before re-raising.  Host
    blocks are forbidden inside (rollback is undefined for them)."""

    body: Expr

    def __str__(self) -> str:
        return f"<| {self.body} |>"


@dataclass(frozen=True)
class Skip(Expr):
    """No-op; always succeeds."""

    def __str__(self) -> str:
        return "skip"


@dataclass(frozen=True)
class Return(Expr):
    """Leave the enclosing fate scope (or the junction at top level)."""

    def __str__(self) -> str:
        return "return"


@dataclass(frozen=True)
class Retry(Expr):
    """Branch back to the start of the junction; bounded per scheduling."""

    def __str__(self) -> str:
        return "retry"


@dataclass(frozen=True)
class Write(Expr):
    """``write(n, target)``: push named data ``n`` to another junction's
    table.  ``n`` must have been produced by ``save``."""

    name: str
    target: Target

    def __str__(self) -> str:
        return f"write({self.name}, {self.target})"


@dataclass(frozen=True)
class Save(Expr):
    """``save(n)`` — the paper's ``save(..., n)``: serialize host state
    into named data ``n`` in the local table."""

    name: str

    def __str__(self) -> str:
        return f"save({self.name})"


@dataclass(frozen=True)
class Restore(Expr):
    """``restore(n)`` — the paper's ``restore(n, ...)``: deserialize
    named data ``n`` back into host state.  Fails on ``undef``."""

    name: str

    def __str__(self) -> str:
        return f"restore({self.name})"


@dataclass(frozen=True)
class Wait(Expr):
    """``wait [n1, n2] F``: block until formula ``F`` holds.  While
    blocked, remote updates to ``F``'s propositions and to the listed
    data keys are admitted into the table immediately."""

    keys: Tuple[str, ...]
    formula: Formula

    def __str__(self) -> str:
        return f"wait [{', '.join(self.keys)}] {self.formula}"


@dataclass(frozen=True)
class Assert(Expr):
    """``assert [target] P`` — set proposition ``P`` true at ``target``
    (and locally, once the remote update is acknowledged).  A
    :class:`SelfTarget` asserts locally only."""

    target: Target
    prop: str
    index: object | None = None

    def key(self) -> str:
        return self.prop if self.index is None else f"{self.prop}[{self.index}]"

    def __str__(self) -> str:
        return f"assert [{self.target}] {self.key()}"


@dataclass(frozen=True)
class Retract(Expr):
    """``retract [target] P`` — dual of :class:`Assert`."""

    target: Target
    prop: str
    index: object | None = None

    def key(self) -> str:
        return self.prop if self.index is None else f"{self.prop}[{self.index}]"

    def __str__(self) -> str:
        return f"retract [{self.target}] {self.key()}"


@dataclass(frozen=True)
class Keep(Expr):
    """``keep(k1, k2)``: discard pending remote updates to the listed
    propositions/data.  Idempotent."""

    keys: Tuple[str, ...]

    def __str__(self) -> str:
        return f"keep({', '.join(self.keys)})"


@dataclass(frozen=True)
class Verify(Expr):
    """``verify G``: fail unless the (possibly junction-scoped) formula
    holds; evaluating ``gamma@P`` against a non-running instance is an
    error (ternary logic)."""

    formula: Formula

    def __str__(self) -> str:
        return f"verify {self.formula}"


@dataclass(frozen=True)
class Seq(Expr):
    """``E1; E2; ...`` — n-ary sequential composition."""

    items: Tuple[Expr, ...]

    def __str__(self) -> str:
        return "; ".join(str(i) for i in self.items)


@dataclass(frozen=True)
class Par(Expr):
    """``E1 + E2 + ...`` — parallel composition; all branches must
    complete for the composition to succeed."""

    items: Tuple[Expr, ...]

    def __str__(self) -> str:
        return " + ".join(f"({i})" for i in self.items)


@dataclass(frozen=True)
class RepPar(Expr):
    """``E1 || E2 || ...`` — the paper's ``∥n`` replicated-parallel
    composition.  Operationally like :class:`Par`; its event-structure
    semantics additionally cross-copies continuations (Fig. 20)."""

    items: Tuple[Expr, ...]

    def __str__(self) -> str:
        return " || ".join(f"({i})" for i in self.items)


@dataclass(frozen=True)
class Otherwise(Expr):
    """``E1 otherwise[t] E2``: run ``E1`` under deadline ``t`` (an Arg
    expression in simulated time units; ``None`` = no deadline).  If
    ``E1`` fails — including by exceeding the deadline — run ``E2``."""

    body: Expr
    timeout: Optional[Arg]
    handler: Expr

    def __str__(self) -> str:
        t = f"[{self.timeout}]" if self.timeout is not None else ""
        return f"({self.body}) otherwise{t} ({self.handler})"


@dataclass(frozen=True)
class Start(Expr):
    """``start iota (args)`` or ``start iota j1(args) j2(args) ...``.

    ``junction_args`` maps junction names to their argument tuples; the
    key ``None`` holds a single anonymous argument list distributed to
    the instance's sole junction.  Fails if the instance is running.
    """

    instance: Ref
    junction_args: Tuple[Tuple[Optional[str], Tuple[Arg, ...]], ...] = ()

    def __str__(self) -> str:
        parts = [f"start {self.instance}"]
        for jname, args in self.junction_args:
            argstr = "(" + ", ".join(str(a) for a in args) + ")"
            parts.append(argstr if jname is None else f"{jname}{argstr}")
        return " ".join(parts)


@dataclass(frozen=True)
class Stop(Expr):
    """``stop iota``: fail if already stopped."""

    instance: Ref

    def __str__(self) -> str:
        return f"stop {self.instance}"


@dataclass(frozen=True)
class Call(Expr):
    """``f(args)``: invocation of a DSL function (a compile-time
    template; inlined by the expander)."""

    func: str
    args: Tuple[Arg, ...] = ()

    def __str__(self) -> str:
        return f"{self.func}({', '.join(str(a) for a in self.args)})"


@dataclass(frozen=True)
class CaseArm:
    """One arm of a ``case``: formula, body, and a terminator from
    ``{break, next, reconsider}``."""

    formula: Formula
    body: Expr
    terminator: str  # 'break' | 'next' | 'reconsider'

    def __str__(self) -> str:
        return f"{self.formula} => {self.body}; {self.terminator}"


@dataclass(frozen=True)
class ForArm:
    """A ``for``-generated family of case arms (Fig. 10's
    ``for b in backends !Call && InitBackend[b] => ...``).  Expansion
    produces one :class:`CaseArm` per set element, in set order."""

    var: str
    iterable: object  # Ref | SetLit
    arm: CaseArm

    def __str__(self) -> str:
        return f"for {self.var} in {self.iterable} {self.arm}"


@dataclass(frozen=True)
class Case(Expr):
    """``case { F1 => E1; T1 ... otherwise => En }``.

    ``arms`` may contain :class:`ForArm` entries before expansion.
    """

    arms: Tuple[CaseArm, ...]
    otherwise: Expr

    def __str__(self) -> str:
        inner = " ".join(str(a) for a in self.arms)
        return f"case {{ {inner} otherwise => {self.otherwise} }}"


@dataclass(frozen=True)
class If(Expr):
    """``if F then E1 [else E2]`` — sugar, desugared to a 2-arm case by
    the expander."""

    cond: Formula
    then: Expr
    orelse: Optional[Expr] = None

    def __str__(self) -> str:
        e = f" else {self.orelse}" if self.orelse is not None else ""
        return f"if {self.cond} then {self.then}{e}"


@dataclass(frozen=True)
class For(Expr):
    """``for x in S op E[x]`` — template recursion, unrolled at
    expansion time with the paper's rules:

    * right-associative folding with ``op`` in
      ``{'||' (or), '&&' (and), ';', '+', 'par' (∥), 'otherwise[t]'}``
    * empty set: ``false`` for ∨, ``!false`` for ∧, ``skip`` otherwise
    * singleton: the single instantiation.

    ``op_timeout`` carries the ``[t]`` when ``op`` is ``otherwise``.
    ``iterable`` is a set name (Ref) or a :class:`SetLit`.
    """

    var: str
    iterable: object  # Ref | SetLit
    op: str
    body: Expr
    op_timeout: Optional[Arg] = None

    def __str__(self) -> str:
        t = f"[{self.op_timeout}]" if self.op_timeout is not None else ""
        return f"for {self.var} in {self.iterable} {self.op}{t} {self.body}"


@dataclass(frozen=True)
class ForFormula(Formula):
    """``for x in S op F[x]`` at the formula level, with ``op`` in
    ``{'&&', '||'}`` — unrolled by the expander into a conjunction or
    disjunction (empty set: ``!false`` for &&, ``false`` for ||)."""

    var: str
    iterable: object  # Ref | SetLit
    op: str
    body: Formula

    def __str__(self) -> str:
        return f"for {self.var} in {self.iterable} {self.op} {self.body}"


# ---------------------------------------------------------------------------
# Declarations (junction headers)
# ---------------------------------------------------------------------------

class Decl:
    """Base class for ``|``-prefixed declarations."""

    __slots__ = ()


@dataclass(frozen=True)
class InitProp(Decl):
    """``init prop [!]P`` or indexed ``init prop [!]P[x]``."""

    name: str
    value: bool
    index: object | None = None

    def key(self) -> str:
        return self.name if self.index is None else f"{self.name}[{self.index}]"

    def __str__(self) -> str:
        neg = "" if self.value else "!"
        return f"init prop {neg}{self.key()}"


@dataclass(frozen=True)
class InitData(Decl):
    """``init data n`` — initialized to the special ``undef``."""

    name: str

    def __str__(self) -> str:
        return f"init data {self.name}"


@dataclass(frozen=True)
class Guard(Decl):
    """``guard G``: the junction may only be scheduled while G holds."""

    formula: Formula

    def __str__(self) -> str:
        return f"guard {self.formula}"


@dataclass(frozen=True)
class SetDecl(Decl):
    """``set S`` (value supplied at load time through the expansion
    config) or ``set S = {a, b}`` (literal)."""

    name: str
    literal: Optional[SetLit] = None

    def __str__(self) -> str:
        lit = f" = {self.literal}" if self.literal is not None else ""
        return f"set {self.name}{lit}"


@dataclass(frozen=True)
class SubsetDecl(Decl):
    """``subset x of S``: a runtime-populated subset of ``S`` writable
    only by host blocks that declare ``x``; initialized ``undef``."""

    name: str
    of_set: object  # Ref | SetLit

    def __str__(self) -> str:
        return f"subset {self.name} of {self.of_set}"


@dataclass(frozen=True)
class IdxDecl(Decl):
    """``idx x of S``: a host-writable choice over set ``S`` (also used
    as a cursor: as a target, resolves to the chosen element)."""

    name: str
    of_set: object  # Ref | SetLit

    def __str__(self) -> str:
        return f"idx {self.name} of {self.of_set}"


@dataclass(frozen=True)
class ForInit(Decl):
    """``for x in S init prop [!]P[x]``: one proposition per element."""

    var: str
    iterable: object  # Ref | SetLit
    decl: InitProp

    def __str__(self) -> str:
        return f"for {self.var} in {self.iterable} {self.decl}"


# ---------------------------------------------------------------------------
# Definitions and programs
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class JunctionDef:
    """``def Type::name(params) = | decls... body``.

    ``junction`` may be ``"junction"`` (the default used when the paper
    writes ``def tau :: (t)`` with an anonymous junction).
    """

    type_name: str
    junction: str
    params: Tuple[str, ...]
    decls: Tuple[Decl, ...]
    body: Expr

    @property
    def qualified(self) -> str:
        return f"{self.type_name}::{self.junction}"


@dataclass(frozen=True)
class FunctionDef:
    """``def f(params) = body`` — a compile-time template.  Functions
    may carry declarations (e.g. ``Watch`` in Fig. 16); these merge into
    the junction that inlines them."""

    name: str
    params: Tuple[str, ...]
    decls: Tuple[Decl, ...]
    body: Expr


@dataclass(frozen=True)
class MainDef:
    """``def main(params) = body`` — the start-up expression."""

    params: Tuple[str, ...]
    body: Expr


def family_members(name: str, size: object) -> Tuple[str, ...]:
    """The instances an indexed family ``name[size]`` declares:
    ``name1 … name<size>`` — the one place that naming rule lives, and
    the one place a size is checked."""
    if isinstance(size, bool) or not isinstance(size, int) or size < 1:
        raise CompileError(f"instance family {name!r} needs a size ≥ 1, got {size!r}")
    return tuple(f"{name}{i}" for i in range(1, size + 1))


@dataclass(frozen=True)
class Program:
    """A parsed architecture description.

    ``instances`` maps instance name to instance-type name, one entry
    per ``x: T`` binding; ``families`` holds each indexed family
    ``F[n]: T`` as ``(F, n, T)`` — it declares ``F1 … Fn``, and ``F``
    names their set.  ``defs`` holds junction definitions keyed by
    qualified name; ``functions`` holds templates keyed by name.
    """

    instance_types: Tuple[str, ...]
    instances: Tuple[Tuple[str, str], ...]
    main: Optional[MainDef]
    defs: Tuple[JunctionDef, ...] = ()
    functions: Tuple[FunctionDef, ...] = ()
    families: Tuple[Tuple[str, int, str], ...] = ()

    def all_instances(self) -> Tuple[Tuple[str, str], ...]:
        """Every instance declared: the bindings, then each family's members."""
        return self.instances + tuple(
            (m, t) for name, size, t in self.families for m in family_members(name, size)
        )

    def instance_map(self) -> dict[str, str]:
        return dict(self.all_instances())

    def junctions_of_type(self, type_name: str) -> list[JunctionDef]:
        return [d for d in self.defs if d.type_name == type_name]

    def function_map(self) -> dict[str, FunctionDef]:
        return {f.name: f for f in self.functions}


# ---------------------------------------------------------------------------
# Convenience constructors
# ---------------------------------------------------------------------------

def seq(*items: Expr) -> Expr:
    """Sequential composition, flattening nested Seqs and eliding
    trivial cases."""
    flat: list[Expr] = []
    for it in items:
        if isinstance(it, Seq):
            flat.extend(it.items)
        else:
            flat.append(it)
    if not flat:
        return Skip()
    if len(flat) == 1:
        return flat[0]
    return Seq(tuple(flat))


def par(*items: Expr) -> Expr:
    flat: list[Expr] = []
    for it in items:
        if isinstance(it, Par):
            flat.extend(it.items)
        else:
            flat.append(it)
    if not flat:
        return Skip()
    if len(flat) == 1:
        return flat[0]
    return Par(tuple(flat))


def children(e: Expr):
    """Yield the direct sub-expressions of ``e`` (for generic walks)."""
    if isinstance(e, (FateBlock, Transaction)):
        yield e.body
    elif isinstance(e, (Seq, Par, RepPar)):
        yield from e.items
    elif isinstance(e, Otherwise):
        yield e.body
        yield e.handler
    elif isinstance(e, Case):
        for arm in e.arms:
            # pre-expansion arms may be ForArm templates wrapping the arm
            yield arm.arm.body if isinstance(arm, ForArm) else arm.body
        yield e.otherwise
    elif isinstance(e, If):
        yield e.then
        if e.orelse is not None:
            yield e.orelse
    elif isinstance(e, For):
        yield e.body


def walk(e: Expr):
    """Depth-first pre-order traversal of an expression tree."""
    yield e
    for c in children(e):
        yield from walk(c)
