"""Recursive-descent parser for the C-Saw concrete syntax.

Produces the unexpanded AST of :mod:`repro.core.ast`.  The grammar is
documented in DESIGN.md; operator precedence for expressions, loosest
to tightest::

    ;   (sequence)
    otherwise[t]
    +   (parallel)
    ||  (replicated parallel)
    atoms

and for formulas::

    ->  (implication, right-assoc)
    ||  (disjunction)
    &&  (conjunction)
    !   (negation), atoms

``( ... )`` is pure grouping in both contexts; ``{ ... }`` is a fate
block and ``<| ... |>`` a transaction in expression context.
"""

from __future__ import annotations

from . import ast as A
from .errors import ParseError
from .formula import And, At, FalseF, Formula, Implies, Live, Not, Or, Prop, TRUE
from .lexer import Token, tokenize

_TERMINATORS = ("break", "next", "reconsider")


class Parser:
    """Single-use parser over a token stream."""

    def __init__(self, text: str):
        self.tokens = tokenize(text)
        self.pos = 0

    # -- token plumbing ----------------------------------------------------

    def peek(self, ahead: int = 0) -> Token:
        idx = min(self.pos + ahead, len(self.tokens) - 1)
        return self.tokens[idx]

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def error(self, message: str) -> ParseError:
        tok = self.peek()
        return ParseError(f"{message}; found {tok.kind} {tok.value!r}", tok.line, tok.column)

    def expect_punct(self, value: str) -> Token:
        tok = self.peek()
        if not tok.is_punct(value):
            raise self.error(f"expected {value!r}")
        return self.advance()

    def expect_kw(self, value: str) -> Token:
        tok = self.peek()
        if not tok.is_kw(value):
            raise self.error(f"expected keyword {value!r}")
        return self.advance()

    def expect_ident(self) -> str:
        tok = self.peek()
        if tok.kind != "ident":
            raise self.error("expected identifier")
        self.advance()
        return tok.value

    def accept_punct(self, value: str) -> bool:
        if self.peek().is_punct(value):
            self.advance()
            return True
        return False

    def accept_kw(self, value: str) -> bool:
        if self.peek().is_kw(value):
            self.advance()
            return True
        return False

    # -- program -----------------------------------------------------------

    def parse_program(self) -> A.Program:
        instance_types: list[str] = []
        instances: list[tuple[str, str]] = []
        families: list[tuple[str, int, str]] = []
        main: A.MainDef | None = None
        defs: list[A.JunctionDef] = []
        functions: list[A.FunctionDef] = []

        while self.peek().kind != "eof":
            tok = self.peek()
            if tok.is_kw("instance_types"):
                self.advance()
                instance_types.extend(self._parse_name_block())
            elif tok.is_kw("instances"):
                self.advance()
                self._parse_binding_block(instances, families)
            elif tok.is_kw("def"):
                kind, node = self._parse_def()
                if kind == "main":
                    if main is not None:
                        raise self.error("duplicate main definition")
                    main = node
                elif kind == "junction":
                    defs.append(node)
                else:
                    functions.append(node)
            else:
                raise self.error("expected instance_types, instances, or def")

        return A.Program(
            instance_types=tuple(instance_types),
            instances=tuple(instances),
            main=main,
            defs=tuple(defs),
            functions=tuple(functions),
            families=tuple(families),
        )

    def _parse_name_block(self) -> list[str]:
        self.expect_punct("{")
        names = [self.expect_ident()]
        while self.accept_punct(","):
            names.append(self.expect_ident())
        self.expect_punct("}")
        return names

    def _parse_binding_block(self, instances: list, families: list) -> None:
        """``{ x: T, F[n]: T, ... }``: bindings and indexed families."""
        self.expect_punct("{")
        while True:
            name = self.expect_ident()
            size = None
            if self.accept_punct("["):
                tok = self.peek()
                if tok.kind != "number" or not tok.value.isdigit():
                    raise self.error("expected a whole-number family size")
                size = int(self.advance().value)
                self.expect_punct("]")
            self.expect_punct(":")
            type_name = self.expect_ident()
            if size is None:
                instances.append((name, type_name))
            else:
                families.append((name, size, type_name))
            if not self.accept_punct(","):
                break
        self.expect_punct("}")

    # -- definitions ---------------------------------------------------------

    def _parse_def(self):
        self.expect_kw("def")
        tok = self.peek()
        if tok.is_kw("main"):
            self.advance()
            params = self._parse_params()
            self.expect_punct("=")
            body = self.parse_expr()
            return "main", A.MainDef(params=params, body=body)

        name = self.expect_ident()
        if self.peek().is_punct("::"):
            self.advance()
            if self.peek().kind == "ident":
                junction = self.expect_ident()
            else:
                junction = "junction"  # the paper's anonymous junction
            params = self._parse_params()
            self.expect_punct("=")
            decls = self._parse_decls()
            body = self.parse_expr()
            return "junction", A.JunctionDef(
                type_name=name,
                junction=junction,
                params=params,
                decls=decls,
                body=body,
            )

        params = self._parse_params()
        self.expect_punct("=")
        decls = self._parse_decls()
        body = self.parse_expr()
        return "function", A.FunctionDef(name=name, params=params, decls=decls, body=body)

    def _parse_params(self) -> tuple[str, ...]:
        self.expect_punct("(")
        params: list[str] = []
        if not self.peek().is_punct(")"):
            params.append(self.expect_ident())
            while self.accept_punct(","):
                params.append(self.expect_ident())
        self.expect_punct(")")
        return tuple(params)

    # -- declarations --------------------------------------------------------

    def _parse_decls(self) -> tuple[A.Decl, ...]:
        decls: list[A.Decl] = []
        while self.peek().is_punct("|"):
            self.advance()
            decls.append(self._parse_decl())
        return tuple(decls)

    def _parse_decl(self) -> A.Decl:
        tok = self.peek()
        if tok.is_kw("init"):
            self.advance()
            return self._parse_init_decl()
        if tok.is_kw("guard"):
            self.advance()
            return A.Guard(self.parse_formula())
        if tok.is_kw("set"):
            self.advance()
            name = self.expect_ident()
            literal = None
            if self.accept_punct("="):
                literal = self._parse_set_literal()
            return A.SetDecl(name, literal)
        if tok.is_kw("subset"):
            self.advance()
            name = self.expect_ident()
            self.expect_kw("of")
            return A.SubsetDecl(name, self._parse_set_expr())
        if tok.is_kw("idx"):
            self.advance()
            name = self.expect_ident()
            self.expect_kw("of")
            return A.IdxDecl(name, self._parse_set_expr())
        if tok.is_kw("for"):
            self.advance()
            var = self.expect_ident()
            self.expect_kw("in")
            iterable = self._parse_set_expr()
            self.expect_kw("init")
            inner = self._parse_init_decl()
            if not isinstance(inner, A.InitProp):
                raise self.error("for-declarations may only initialize propositions")
            return A.ForInit(var, iterable, inner)
        raise self.error("expected a declaration")

    def _parse_init_decl(self) -> A.Decl:
        if self.accept_kw("prop"):
            value = not self.accept_punct("!")
            name = self.expect_ident()
            index = None
            if self.accept_punct("["):
                index = self._parse_index()
                self.expect_punct("]")
            return A.InitProp(name, value, index)
        if self.accept_kw("data"):
            return A.InitData(self.expect_ident())
        raise self.error("expected 'prop' or 'data' after init")

    def _parse_index(self):
        tok = self.peek()
        if tok.kind == "number":
            self.advance()
            return A.Num(tok.num)
        return self._parse_ref()

    def _parse_set_expr(self):
        if self.peek().is_punct("{"):
            return self._parse_set_literal()
        return self._parse_ref()

    def _parse_set_literal(self) -> A.SetLit:
        self.expect_punct("{")
        items: list[object] = []
        if not self.peek().is_punct("}"):
            items.append(self._parse_set_item())
            while self.accept_punct(","):
                items.append(self._parse_set_item())
        self.expect_punct("}")
        return A.SetLit(tuple(items))

    def _parse_set_item(self):
        tok = self.peek()
        if tok.kind == "number":
            self.advance()
            return A.Num(tok.num)
        if tok.is_punct("{"):
            raise self.error("sets may not contain sets")
        return self._parse_ref()

    def _parse_ref(self) -> A.Ref:
        parts = [self.expect_ident()]
        while self.peek().is_punct("::"):
            self.advance()
            parts.append(self.expect_ident())
        return A.Ref(tuple(parts))

    # -- expressions -----------------------------------------------------------

    def parse_expr(self) -> A.Expr:
        """Sequence level (``;``)."""
        items = [self._parse_otherwise()]
        while self.peek().is_punct(";"):
            self.advance()
            if self._at_expr_end():
                break  # trailing semicolon
            items.append(self._parse_otherwise())
        return A.seq(*items)

    def _at_expr_end(self) -> bool:
        tok = self.peek()
        if tok.kind == "eof":
            return True
        if tok.is_punct(")", "}", "|>"):
            return True
        if tok.is_kw("def", "instance_types", "instances", "else"):
            return True
        if tok.is_kw(*_TERMINATORS):
            return True
        if tok.is_kw("otherwise") and self.peek(1).is_punct("=>"):
            return True
        return False

    def _parse_otherwise(self) -> A.Expr:
        body = self._parse_par()
        if self.peek().is_kw("otherwise") and not self.peek(1).is_punct("=>"):
            self.advance()
            timeout = None
            if self.accept_punct("["):
                timeout = self._parse_arith()
                self.expect_punct("]")
            handler = self._parse_otherwise()  # right-associative
            return A.Otherwise(body, timeout, handler)
        return body

    def _parse_par(self) -> A.Expr:
        items = [self._parse_reppar()]
        while self.peek().is_punct("+"):
            self.advance()
            items.append(self._parse_reppar())
        return A.par(*items)

    def _parse_reppar(self) -> A.Expr:
        items = [self._parse_atom()]
        while self.peek().is_punct("||"):
            self.advance()
            items.append(self._parse_atom())
        if len(items) == 1:
            return items[0]
        return A.RepPar(tuple(items))

    # -- atoms -------------------------------------------------------------

    def _parse_atom(self) -> A.Expr:
        tok = self.peek()

        if tok.is_punct("("):
            self.advance()
            inner = self.parse_expr()
            self.expect_punct(")")
            return inner
        if tok.is_punct("{"):
            self.advance()
            inner = self.parse_expr()
            self.expect_punct("}")
            return A.FateBlock(inner)
        if tok.is_punct("<|"):
            self.advance()
            inner = self.parse_expr()
            self.expect_punct("|>")
            return A.Transaction(inner)

        if tok.is_kw("skip"):
            self.advance()
            return A.Skip()
        if tok.is_kw("return"):
            self.advance()
            return A.Return()
        if tok.is_kw("retry"):
            self.advance()
            return A.Retry()

        if tok.is_kw("host"):
            self.advance()
            name = self.expect_ident()
            writes: tuple[str, ...] = ()
            if self.peek().is_punct("{"):
                self.advance()
                ws = []
                if not self.peek().is_punct("}"):
                    ws.append(self.expect_ident())
                    while self.accept_punct(","):
                        ws.append(self.expect_ident())
                self.expect_punct("}")
                writes = tuple(ws)
            return A.HostBlock(name, writes)

        if tok.is_kw("write"):
            self.advance()
            self.expect_punct("(")
            name = self.expect_ident()
            self.expect_punct(",")
            target = self._parse_ref()
            self.expect_punct(")")
            return A.Write(name, target)

        if tok.is_kw("save"):
            self.advance()
            self.expect_punct("(")
            # accept the paper's ``save(..., n)`` spelling
            if self.accept_punct("..."):
                self.expect_punct(",")
            name = self.expect_ident()
            self.expect_punct(")")
            return A.Save(name)

        if tok.is_kw("restore"):
            self.advance()
            self.expect_punct("(")
            name = self.expect_ident()
            if self.accept_punct(","):
                self.expect_punct("...")
            self.expect_punct(")")
            return A.Restore(name)

        if tok.is_kw("wait"):
            self.advance()
            self.expect_punct("[")
            keys: list[str] = []
            if not self.peek().is_punct("]"):
                keys.append(self.expect_ident())
                while self.accept_punct(","):
                    keys.append(self.expect_ident())
            self.expect_punct("]")
            formula = self.parse_formula()
            return A.Wait(tuple(keys), formula)

        if tok.is_kw("assert") or tok.is_kw("retract"):
            kw = self.advance().value
            self.expect_punct("[")
            target: object = A.SelfTarget()
            if not self.peek().is_punct("]"):
                target = self._parse_ref()
            self.expect_punct("]")
            prop = self.expect_ident()
            index = None
            if self.accept_punct("["):
                index = self._parse_index()
                self.expect_punct("]")
            cls = A.Assert if kw == "assert" else A.Retract
            return cls(target, prop, index)

        if tok.is_kw("keep"):
            self.advance()
            self.expect_punct("(")
            keys = [self.expect_ident()]
            while self.accept_punct(","):
                keys.append(self.expect_ident())
            self.expect_punct(")")
            return A.Keep(tuple(keys))

        if tok.is_kw("verify"):
            self.advance()
            return A.Verify(self.parse_formula())

        if tok.is_kw("start"):
            self.advance()
            return self._parse_start()

        if tok.is_kw("stop"):
            self.advance()
            return A.Stop(self._parse_ref())

        if tok.is_kw("case"):
            self.advance()
            return self._parse_case()

        if tok.is_kw("if"):
            self.advance()
            cond = self.parse_formula()
            self.expect_kw("then")
            then = self._parse_otherwise()
            orelse = None
            if self.accept_kw("else"):
                orelse = self._parse_otherwise()
            return A.If(cond, then, orelse)

        if tok.is_kw("for"):
            self.advance()
            var = self.expect_ident()
            self.expect_kw("in")
            iterable = self._parse_set_expr()
            op_tok = self.peek()
            op_timeout = None
            if op_tok.is_punct(";", "+", "||"):
                self.advance()
                op = op_tok.value
            elif op_tok.is_kw("otherwise"):
                self.advance()
                op = "otherwise"
                if self.accept_punct("["):
                    op_timeout = self._parse_arith()
                    self.expect_punct("]")
            else:
                raise self.error("expected a for-loop operator (';', '+', '||', 'otherwise')")
            body = self._parse_otherwise()
            return A.For(var, iterable, op, body, op_timeout)

        if tok.kind == "ident":
            # function call: name(args)
            if self.peek(1).is_punct("("):
                name = self.expect_ident()
                self.expect_punct("(")
                args: list[object] = []
                if not self.peek().is_punct(")"):
                    args.append(self._parse_arith())
                    while self.accept_punct(","):
                        args.append(self._parse_arith())
                self.expect_punct(")")
                return A.Call(name, tuple(args))
            raise self.error("bare identifiers are not expressions (did you mean a call 'name()'?)")

        raise self.error("expected an expression")

    def _parse_start(self) -> A.Expr:
        instance = self._parse_ref()
        groups: list[tuple[str | None, tuple[object, ...]]] = []
        if self.peek().is_punct("("):
            groups.append((None, self._parse_arglist()))
        else:
            while self.peek().kind == "ident" and self.peek(1).is_punct("("):
                jname = self.expect_ident()
                groups.append((jname, self._parse_arglist()))
        return A.Start(instance, tuple(groups))

    def _parse_arglist(self) -> tuple[object, ...]:
        self.expect_punct("(")
        args: list[object] = []
        if not self.peek().is_punct(")"):
            args.append(self._parse_arith())
            while self.accept_punct(","):
                args.append(self._parse_arith())
        self.expect_punct(")")
        return tuple(args)

    def _parse_case(self) -> A.Expr:
        self.expect_punct("{")
        arms: list[object] = []
        otherwise: A.Expr | None = None
        while True:
            if self.peek().is_kw("otherwise") and self.peek(1).is_punct("=>"):
                self.advance()
                self.advance()
                otherwise = self._parse_arm_body(stop_at_terminator=False)
                self.accept_punct(";")
                break
            arms.append(self._parse_arm())
            if self.peek().is_punct("}"):
                break
        self.expect_punct("}")
        if otherwise is None:
            raise self.error("case must end with an 'otherwise =>' arm")
        return A.Case(tuple(arms), otherwise)

    def _parse_arm(self):
        if self.peek().is_kw("for"):
            self.advance()
            var = self.expect_ident()
            self.expect_kw("in")
            iterable = self._parse_set_expr()
            inner = self._parse_plain_arm()
            return A.ForArm(var, iterable, inner)
        return self._parse_plain_arm()

    def _parse_plain_arm(self) -> A.CaseArm:
        formula = self.parse_formula()
        self.expect_punct("=>")
        body = self._parse_arm_body(stop_at_terminator=True)
        tok = self.peek()
        if not tok.is_kw(*_TERMINATORS):
            raise self.error("case arm must end with break, next, or reconsider")
        terminator = self.advance().value
        self.accept_punct(";")
        return A.CaseArm(formula, body, terminator)

    def _parse_arm_body(self, stop_at_terminator: bool) -> A.Expr:
        items = [self._parse_otherwise()]
        while self.peek().is_punct(";"):
            self.advance()
            tok = self.peek()
            if stop_at_terminator and tok.is_kw(*_TERMINATORS):
                break
            if tok.is_kw("otherwise") and self.peek(1).is_punct("=>"):
                break
            if tok.is_punct("}"):
                break
            items.append(self._parse_otherwise())
        return A.seq(*items)

    # -- argument arithmetic -------------------------------------------------

    def _parse_arith(self):
        left = self._parse_term()
        while self.peek().is_punct("+", "-"):
            op = self.advance().value
            right = self._parse_term()
            left = A.BinArith(op, left, right)
        return left

    def _parse_term(self):
        left = self._parse_factor()
        while self.peek().is_punct("*", "/"):
            op = self.advance().value
            right = self._parse_factor()
            left = A.BinArith(op, left, right)
        return left

    def _parse_factor(self):
        tok = self.peek()
        if tok.kind == "number":
            self.advance()
            return A.Num(tok.num)
        if tok.is_punct("("):
            self.advance()
            inner = self._parse_arith()
            self.expect_punct(")")
            return inner
        if tok.is_punct("{"):
            return self._parse_set_literal()
        if tok.kind == "ident":
            return self._parse_ref()
        raise self.error("expected an argument")

    # -- formulas --------------------------------------------------------------

    def parse_formula(self) -> Formula:
        return self._parse_implies()

    def _parse_implies(self) -> Formula:
        left = self._parse_for_or()
        if self.peek().is_punct("->"):
            self.advance()
            right = self._parse_implies()
            return Implies(left, right)
        return left

    def _parse_for_or(self) -> Formula:
        left = self._parse_for_and()
        while self.peek().is_punct("||"):
            self.advance()
            right = self._parse_for_and()
            left = Or(left, right)
        return left

    def _parse_for_and(self) -> Formula:
        left = self._parse_fatom()
        while self.peek().is_punct("&&"):
            self.advance()
            right = self._parse_fatom()
            left = And(left, right)
        return left

    def _parse_fatom(self) -> Formula:
        tok = self.peek()
        if tok.is_punct("!"):
            self.advance()
            return Not(self._parse_fatom())
        if tok.is_kw("false"):
            self.advance()
            return FalseF()
        if tok.is_kw("true"):
            self.advance()
            return TRUE
        if tok.is_punct("("):
            self.advance()
            inner = self.parse_formula()
            self.expect_punct(")")
            return inner
        if tok.is_kw("for"):
            self.advance()
            var = self.expect_ident()
            self.expect_kw("in")
            iterable = self._parse_set_expr()
            op_tok = self.peek()
            if not op_tok.is_punct("&&", "||"):
                raise self.error("formula-level for requires '&&' or '||'")
            self.advance()
            body = self._parse_fatom()
            return A.ForFormula(var, iterable, op_tok.value, body)
        if tok.kind == "ident":
            # liveness predicate S(x) / live(x)
            if tok.value in ("S", "live") and self.peek(1).is_punct("("):
                self.advance()
                self.advance()
                inst = self._parse_ref()
                self.expect_punct(")")
                return Live(inst)
            refx = self._parse_ref()
            if self.peek().is_punct("@"):
                self.advance()
                body = self._parse_fatom()
                return At(refx, body)
            if refx.is_simple:
                index = None
                if self.peek().is_punct("["):
                    self.advance()
                    index = self._parse_index()
                    self.expect_punct("]")
                return Prop(refx.name, index)
            raise self.error(f"qualified name {refx} is not a proposition (missing '@'?)")
        raise self.error("expected a formula")


def parse_program(text: str) -> A.Program:
    """Parse a complete architecture description."""
    return Parser(text).parse_program()


def parse_expression(text: str) -> A.Expr:
    """Parse a single expression (testing convenience)."""
    p = Parser(text)
    e = p.parse_expr()
    if p.peek().kind != "eof":
        raise p.error("trailing input after expression")
    return e


def parse_formula(text: str) -> Formula:
    """Parse a single formula (testing convenience)."""
    p = Parser(text)
    f = p.parse_formula()
    if p.peek().kind != "eof":
        raise p.error("trailing input after formula")
    return f
