"""Property-based formatter/parser round trips.

``tests/core/test_emit.py`` checks curated programs; here hypothesis
builds random (valid) programs straight from the AST constructors and
requires

* ``parse_program(emit_program(p)) == p`` — the formatter is a faithful
  inverse of the parser on canonical ASTs, and
* ``validate_program`` is *stable* — it accepts/rejects a program and
  its reparsed emission identically, and repeated calls agree (the
  validator is stateless).

Generated programs use fixed name pools (props P1..P3, data d1/d2) so
every statement references declared state, and composite statements are
built in the parser's canonical shape (Seq/Par flattened n-ary, no
single-item groups).
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ast as A
from repro.core.emit import emit_expr, emit_program
from repro.core.errors import ValidationError
from repro.core.formula import And, FalseF, Implies, Not, Or, Prop
from repro.core.parser import parse_expression, parse_program
from repro.core.validate import validate_program

PROPS = ("P1", "P2", "P3")
DATA = ("d1", "d2")

# targets that are not the containing junction (write/assert to self is
# a validation error): the peer instance or the junction parameter
TARGETS = (A.ref("g"), A.ref("q"))


def props():
    return st.sampled_from(PROPS).map(Prop)


def formulas():
    base = props() | st.just(FalseF())
    return st.recursive(
        base,
        lambda kids: st.one_of(
            kids.map(Not),
            st.tuples(kids, kids).map(lambda t: And(*t)),
            st.tuples(kids, kids).map(lambda t: Or(*t)),
            st.tuples(kids, kids).map(lambda t: Implies(*t)),
        ),
        max_leaves=6,
    )


def _flat(cls, items):
    """Build a canonical n-ary Seq/Par: nested same-class nodes are
    flattened, exactly as the parser produces them."""
    out = []
    for i in items:
        if isinstance(i, cls):
            out.extend(i.items)
        else:
            out.append(i)
    return cls(tuple(out))


def leaf_stmts():
    target = st.sampled_from(TARGETS)
    return st.one_of(
        st.just(A.Skip()),
        st.just(A.Retry()),
        st.sampled_from(DATA).map(A.Save),
        st.sampled_from(DATA).map(A.Restore),
        st.tuples(target, st.sampled_from(PROPS)).map(lambda t: A.Assert(*t)),
        st.tuples(target, st.sampled_from(PROPS)).map(lambda t: A.Retract(*t)),
        st.sampled_from(PROPS).map(lambda p: A.Assert(A.SelfTarget(), p)),
        st.sampled_from(PROPS).map(lambda p: A.Retract(A.SelfTarget(), p)),
        st.tuples(st.sampled_from(DATA), target).map(lambda t: A.Write(*t)),
        formulas().map(A.Verify),
        st.tuples(
            st.lists(st.sampled_from(DATA), max_size=2, unique=True),
            formulas(),
        ).map(lambda t: A.Wait(tuple(t[0]), t[1])),
        st.lists(
            st.sampled_from(PROPS + DATA), min_size=1, max_size=2, unique=True
        ).map(lambda ks: A.Keep(tuple(ks))),
    )


def case_arms(stmt):
    arm = st.tuples(
        formulas(), stmt, st.sampled_from(("break", "next", "reconsider"))
    ).map(lambda t: A.CaseArm(*t))
    last = st.tuples(
        formulas(), stmt, st.sampled_from(("break", "reconsider"))
    ).map(lambda t: A.CaseArm(*t))  # 'next' before otherwise is invalid
    return st.tuples(st.lists(arm, max_size=2), last).map(
        lambda t: tuple(t[0]) + (t[1],)
    )


def stmts():
    return st.recursive(
        leaf_stmts(),
        lambda kids: st.one_of(
            st.lists(kids, min_size=2, max_size=3).map(
                lambda xs: _flat(A.Seq, xs)
            ),
            st.lists(kids, min_size=2, max_size=3).map(
                lambda xs: _flat(A.Par, xs)
            ),
            st.tuples(formulas(), kids, st.none() | kids).map(
                lambda t: A.If(*t)
            ),
            st.tuples(
                kids,
                st.none() | st.sampled_from((1, 2.5)).map(A.Num),
                kids,
            ).map(lambda t: A.Otherwise(*t)),
            st.tuples(case_arms(kids), kids).map(lambda t: A.Case(*t)),
            # host blocks inside transactions are invalid; the leaf
            # strategy contains none, so any subtree is admissible
            kids.map(A.Transaction),
        ),
        max_leaves=8,
    )


def programs():
    decls = tuple(
        [A.InitProp(p, value=False) for p in PROPS]
        + [A.InitData(d) for d in DATA]
    )
    main = A.MainDef(
        params=("t",),
        body=_flat(
            A.Par,
            [
                A.Start(A.ref("x"), ((None, (A.ref("t"),)),)),
                A.Start(A.ref("g"), ((None, (A.ref("t"),)),)),
            ],
        ),
    )
    peer = A.JunctionDef("TG", "j", ("q",), decls, A.Skip())
    families = st.lists(
        st.tuples(st.sampled_from(("Bck", "Wrk")), st.integers(1, 5), st.just("TG")),
        max_size=2,
        unique_by=lambda f: f[0],
    )
    return st.tuples(stmts(), families).map(
        lambda t: A.Program(
            instance_types=("T", "TG"),
            instances=(("x", "T"), ("g", "TG")),
            main=main,
            defs=(A.JunctionDef("T", "j", ("q",), decls, t[0]), peer),
            families=tuple(t[1]),
        )
    )


@given(programs())
@settings(max_examples=120, deadline=None)
def test_program_roundtrip_ast_identical(p):
    emitted = emit_program(p)
    assert parse_program(emitted) == p, emitted


@given(stmts())
@settings(max_examples=150, deadline=None)
def test_expr_roundtrip_ast_identical(e):
    emitted = emit_expr(e)
    assert parse_expression(emitted) == e, emitted


@given(programs())
@settings(max_examples=80, deadline=None)
def test_validate_is_stable(p):
    def outcome(prog):
        try:
            validate_program(prog)
            return None
        except ValidationError as err:
            return str(err)

    first = outcome(p)
    # stateless: repeated validation agrees
    assert outcome(p) == first
    # emission-invariant: the reparsed program validates identically
    assert outcome(parse_program(emit_program(p))) == first
