"""Emitting DSL concrete syntax from the AST (a formatter).

``emit_program`` renders a :class:`~repro.core.ast.Program` back into
parseable text; ``parse(emit(p))`` re-produces an equivalent AST
(property-tested).  Useful for normalizing architecture files, for
showing the result of compile-time expansion, and as documentation of
the concrete syntax.
"""

from __future__ import annotations

from . import ast as A
from .formula import And, At, FalseF, Formula, Implies, Live, Not, Or, Prop, TRUE


def emit_formula(f: Formula) -> str:
    return _fml(f, 0)


#: precedence levels: -> (1) < || (2) < && (3) < atom (4)
def _fml(f: Formula, prec: int) -> str:
    if f == TRUE:
        return "true"
    if isinstance(f, FalseF):
        return "false"
    if isinstance(f, Prop):
        return f.key()
    if isinstance(f, Not):
        return "!" + _fml(f.operand, 4)
    if isinstance(f, And):
        # parser folds && left-associatively: parenthesize a right-nested And
        s = f"{_fml(f.left, 3)} && {_fml(f.right, 4)}"
        return f"({s})" if prec > 3 else s
    if isinstance(f, Or):
        s = f"{_fml(f.left, 2)} || {_fml(f.right, 3)}"
        return f"({s})" if prec > 2 else s
    if isinstance(f, Implies):
        s = f"{_fml(f.left, 2)} -> {_fml(f.right, 1)}"
        return f"({s})" if prec > 1 else s
    if isinstance(f, At):
        return f"{_arg(f.junction)}@{_fml(f.body, 4)}"
    if isinstance(f, Live):
        return f"live({_arg(f.instance)})"
    if isinstance(f, A.ForFormula):
        s = f"for {f.var} in {_arg(f.iterable)} {f.op} {_fml(f.body, 4)}"
        return f"({s})" if prec > 1 else s
    raise TypeError(f"cannot emit formula {f!r}")


def _arg(a: object) -> str:
    if isinstance(a, A.Ref):
        return str(a)
    if isinstance(a, A.Num):
        return str(a)
    if isinstance(a, A.SetLit):
        return "{" + ", ".join(_arg(i) for i in a.items) + "}"
    if isinstance(a, A.BinArith):
        return f"({_arg(a.left)} {a.op} {_arg(a.right)})"
    if isinstance(a, A.SelfTarget):
        return ""
    return str(a)


def _target(t: object) -> str:
    if isinstance(t, A.SelfTarget):
        return ""
    return _arg(t)


def _index(i: object) -> str:
    return "" if i is None else f"[{_arg(i)}]"


def emit_expr(e: A.Expr, indent: int = 0) -> str:
    pad = "  " * indent

    if isinstance(e, A.Skip):
        return "skip"
    if isinstance(e, A.Return):
        return "return"
    if isinstance(e, A.Retry):
        return "retry"
    if isinstance(e, A.HostBlock):
        w = " {" + ", ".join(e.writes) + "}" if e.writes else ""
        return f"host {e.name}{w}"
    if isinstance(e, A.Write):
        return f"write({e.name}, {_target(e.target)})"
    if isinstance(e, A.Save):
        return f"save({e.name})"
    if isinstance(e, A.Restore):
        return f"restore({e.name})"
    if isinstance(e, A.Wait):
        return f"wait[{', '.join(e.keys)}] {emit_formula(e.formula)}"
    if isinstance(e, A.Assert):
        return f"assert[{_target(e.target)}] {e.prop}{_index(e.index)}"
    if isinstance(e, A.Retract):
        return f"retract[{_target(e.target)}] {e.prop}{_index(e.index)}"
    if isinstance(e, A.Keep):
        return f"keep({', '.join(e.keys)})"
    if isinstance(e, A.Verify):
        return f"verify {emit_formula(e.formula)}"
    if isinstance(e, A.FateBlock):
        return f"{{ {emit_expr(e.body, indent)} }}"
    if isinstance(e, A.Transaction):
        return f"<| {emit_expr(e.body, indent)} |>"
    if isinstance(e, A.Seq):
        return "; ".join(_wrap_for_seq(i, indent) for i in e.items)
    if isinstance(e, A.Par):
        return " + ".join(_atom(i, indent) for i in e.items)
    if isinstance(e, A.RepPar):
        return " || ".join(_atom(i, indent) for i in e.items)
    if isinstance(e, A.Otherwise):
        t = f"[{_arg(e.timeout)}]" if e.timeout is not None else ""
        return f"({_atom(e.body, indent)} otherwise{t} {_atom(e.handler, indent)})"
    if isinstance(e, A.Start):
        parts = [f"start {e.instance}"]
        for jname, args in e.junction_args:
            argstr = "(" + ", ".join(_arg(a) for a in args) + ")"
            parts.append(argstr if jname is None else f"{jname}{argstr}")
        return " ".join(parts)
    if isinstance(e, A.Stop):
        return f"stop {e.instance}"
    if isinstance(e, A.Call):
        return f"{e.func}({', '.join(_arg(a) for a in e.args)})"
    if isinstance(e, A.If):
        s = f"if {emit_formula(e.cond)} then {_atom(e.then, indent)}"
        if e.orelse is not None:
            s += f" else {_atom(e.orelse, indent)}"
        return f"({s})"
    if isinstance(e, A.For):
        t = f"[{_arg(e.op_timeout)}]" if e.op_timeout is not None else ""
        op = "otherwise" + t if e.op == "otherwise" else e.op
        return f"(for {e.var} in {_arg(e.iterable)} {op} {_atom(e.body, indent)})"
    if isinstance(e, A.Case):
        inner_pad = "  " * (indent + 1)
        lines = ["case {"]
        for arm in e.arms:
            if isinstance(arm, A.ForArm):
                head = f"for {arm.var} in {_arg(arm.iterable)} ({emit_formula(arm.arm.formula)})"
                body, term = arm.arm.body, arm.arm.terminator
            else:
                head = emit_formula(arm.formula)
                body, term = arm.body, arm.terminator
            lines.append(f"{inner_pad}{head} =>")
            lines.append(f"{inner_pad}  {emit_expr(body, indent + 2)};")
            lines.append(f"{inner_pad}  {term}")
        lines.append(f"{inner_pad}otherwise => {emit_expr(e.otherwise, indent + 1)}")
        lines.append(pad + "}")
        return ("\n" + pad).join([lines[0]] + lines[1:-1]) + "\n" + lines[-1]
    raise TypeError(f"cannot emit {type(e).__name__}")


def _wrap_for_seq(e: A.Expr, indent: int) -> str:
    # a Seq item that is itself a Seq would merge; keep flat items
    return emit_expr(e, indent)


def _atom(e: A.Expr, indent: int) -> str:
    s = emit_expr(e, indent)
    if isinstance(e, (A.Seq, A.Par, A.RepPar)):
        return f"({s})"
    return s


def emit_decl(d: A.Decl) -> str:
    if isinstance(d, A.InitProp):
        neg = "" if d.value else "!"
        return f"| init prop {neg}{d.name}{_index(d.index)}"
    if isinstance(d, A.InitData):
        return f"| init data {d.name}"
    if isinstance(d, A.Guard):
        return f"| guard {emit_formula(d.formula)}"
    if isinstance(d, A.SetDecl):
        lit = f" = {_arg(d.literal)}" if d.literal is not None else ""
        return f"| set {d.name}{lit}"
    if isinstance(d, A.SubsetDecl):
        return f"| subset {d.name} of {_arg(d.of_set)}"
    if isinstance(d, A.IdxDecl):
        return f"| idx {d.name} of {_arg(d.of_set)}"
    if isinstance(d, A.ForInit):
        inner = emit_decl(d.decl)[2:]  # strip "| "
        return f"| for {d.var} in {_arg(d.iterable)} {inner}"
    raise TypeError(f"cannot emit declaration {d!r}")


def emit_program(p: A.Program) -> str:
    out: list[str] = []
    if p.instance_types:
        out.append("instance_types { " + ", ".join(p.instance_types) + " }")
    bindings = [f"{n}: {t}" for n, t in p.instances]
    bindings += [f"{n}[{size}]: {t}" for n, size, t in p.families]
    if bindings:
        out.append("instances { " + ", ".join(bindings) + " }")
    if p.main is not None:
        out.append("")
        out.append(f"def main({', '.join(p.main.params)}) =")
        out.append("  " + emit_expr(p.main.body, 1))
    for fn in p.functions:
        out.append("")
        out.append(f"def {fn.name}({', '.join(fn.params)}) =")
        for d in fn.decls:
            out.append("  " + emit_decl(d))
        out.append("  " + emit_expr(fn.body, 1))
    for d in p.defs:
        out.append("")
        out.append(f"def {d.type_name}::{d.junction}({', '.join(d.params)}) =")
        for decl in d.decls:
            out.append("  " + emit_decl(decl))
        out.append("  " + emit_expr(d.body, 1))
    return "\n".join(out) + "\n"
