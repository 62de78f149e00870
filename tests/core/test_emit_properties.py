"""Property-based formatter tests: random ASTs survive emit → parse."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ast as A
from repro.core.emit import emit_expr, emit_formula, emit_program
from repro.core.formula import And, FalseF, Implies, Not, Or, Prop
from repro.core.parser import parse_expression, parse_formula, parse_program

names = st.sampled_from(["Work", "Req", "Done", "Alpha", "beta2"])
data_names = st.sampled_from(["n", "m", "state", "req"])
targets = st.one_of(
    st.just(A.SelfTarget()),
    st.sampled_from([A.ref("g"), A.ref("f::c"), A.ref("b1::serve")]),
)
indices = st.one_of(
    st.none(),
    st.sampled_from([A.ref("tgt"), A.ref("me::junction"), A.Num(3.0)]),
)

formula_ast = st.recursive(
    st.one_of(
        st.builds(Prop, names, indices),
        st.just(FalseF()),
    ),
    lambda inner: st.one_of(
        st.builds(Not, inner),
        st.builds(And, inner, inner),
        st.builds(Or, inner, inner),
        st.builds(Implies, inner, inner),
    ),
    max_leaves=8,
)

leaf_exprs = st.one_of(
    st.just(A.Skip()),
    st.just(A.Return()),
    st.just(A.Retry()),
    st.builds(A.HostBlock, st.sampled_from(["H1", "Exec"]),
              st.sampled_from([(), ("a",), ("a", "b")])),
    st.builds(A.Save, data_names),
    st.builds(A.Restore, data_names),
    st.builds(A.Write, data_names, st.sampled_from([A.ref("g"), A.ref("f::c")])),
    st.builds(A.Assert, targets, names, indices),
    st.builds(A.Retract, targets, names, indices),
    st.builds(A.Wait, st.sampled_from([(), ("m",), ("m", "n")]), formula_ast),
    st.builds(A.Verify, formula_ast),
    st.builds(A.Keep, st.sampled_from([("a",), ("a", "b")])),
    st.builds(A.Stop, st.sampled_from([A.ref("f"), A.ref("b1")])),
)


def compound(inner):
    def seq2(a, b):
        return A.Seq((a, b))

    def par2(a, b):
        return A.Par((a, b))

    return st.one_of(
        st.builds(A.FateBlock, inner),
        st.builds(A.Transaction, inner),
        st.builds(seq2, inner, inner),
        st.builds(par2, inner, inner),
        st.builds(
            A.Otherwise, inner,
            st.one_of(st.none(), st.just(A.Num(2.0)), st.just(A.ref("t"))),
            inner,
        ),
        st.builds(
            lambda f, body, other: A.Case((A.CaseArm(f, body, "break"),), other),
            formula_ast, inner, inner,
        ),
        st.builds(A.If, formula_ast, inner, st.one_of(st.none(), inner)),
        st.builds(
            lambda var, op, body: A.For(var, A.SetLit((A.ref("x"), A.ref("y"))), op, body),
            st.just("b"), st.sampled_from([";", "+", "||"]), inner,
        ),
    )


expr_ast = st.recursive(leaf_exprs, compound, max_leaves=10)


@given(formula_ast)
@settings(max_examples=200)
def test_formula_emit_parse_roundtrip(f):
    assert parse_formula(emit_formula(f)) == f


@given(expr_ast)
@settings(max_examples=300)
def test_expr_emit_parse_roundtrip(e):
    text = emit_expr(e)
    reparsed = parse_expression(text)
    # seq/par constructors flatten; normalize both sides through the
    # smart constructors for comparison
    assert _normalize(reparsed) == _normalize(e), text


def _normalize(e):
    if isinstance(e, A.Seq):
        return A.seq(*(_normalize(i) for i in e.items))
    if isinstance(e, A.Par):
        return A.par(*(_normalize(i) for i in e.items))
    if isinstance(e, A.RepPar):
        return A.RepPar(tuple(_normalize(i) for i in e.items))
    if isinstance(e, A.FateBlock):
        return A.FateBlock(_normalize(e.body))
    if isinstance(e, A.Transaction):
        return A.Transaction(_normalize(e.body))
    if isinstance(e, A.Otherwise):
        return A.Otherwise(_normalize(e.body), e.timeout, _normalize(e.handler))
    if isinstance(e, A.Case):
        return A.Case(
            tuple(A.CaseArm(a.formula, _normalize(a.body), a.terminator) for a in e.arms),
            _normalize(e.otherwise),
        )
    if isinstance(e, A.If):
        return A.If(e.cond, _normalize(e.then),
                    _normalize(e.orelse) if e.orelse is not None else None)
    if isinstance(e, A.For):
        return A.For(e.var, e.iterable, e.op, _normalize(e.body), e.op_timeout)
    return e


@given(
    st.lists(st.tuples(names, st.booleans()), min_size=1, max_size=4, unique_by=lambda t: t[0]),
    st.lists(st.tuples(names, st.integers(1, 9), st.just("T")), max_size=2, unique_by=lambda t: t[0]),
)
@settings(max_examples=50)
def test_program_emit_parse_roundtrip(props, families):
    decls = tuple(A.InitProp(n, v) for n, v in props)
    prog = A.Program(
        instance_types=("T",),
        instances=(("x", "T"),),
        main=A.MainDef((), A.Start(A.ref("x"), ())),
        defs=(A.JunctionDef("T", "j", (), decls, A.Skip()),),
        functions=(),
        families=tuple(families),
    )
    assert parse_program(emit_program(prog)) == prog
