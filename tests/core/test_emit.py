"""Formatter tests: emit → parse round trips."""

import pytest

from repro.core import ast as A
from repro.core.emit import emit_expr, emit_formula, emit_program
from repro.core.parser import parse_expression, parse_formula, parse_program


def roundtrip_expr(text):
    e = parse_expression(text)
    out = parse_expression(emit_expr(e))
    assert out == e, f"\noriginal: {e}\nemitted:  {emit_expr(e)}\nreparsed: {out}"


def roundtrip_formula(text):
    f = parse_formula(text)
    assert parse_formula(emit_formula(f)) == f


class TestFormulaEmission:
    @pytest.mark.parametrize(
        "text",
        [
            "A", "!A", "false", "true", "A && B", "A || B && C",
            "(A || B) && C", "A -> B -> C", "(A -> B) -> C",
            "Running[me::junction]", "f@!Reply", "live(o)",
            "live(s) -> s@!Reply", "!(A && B)",
            "for b in backs && Up[b]",
        ],
    )
    def test_roundtrip(self, text):
        roundtrip_formula(text)


class TestExprEmission:
    @pytest.mark.parametrize(
        "text",
        [
            "skip", "return", "retry",
            "host H1", "host Choose {tgt, m}",
            "write(n, g)", "save(n)", "restore(n)",
            "wait[m] !Work", "wait[] Work",
            "assert[] P", "assert[g] Work[tgt]", "retract[f::c] Starting",
            "keep(a, b)", "verify !Active",
            "skip; skip; save(n)",
            "skip + save(n)",
            "skip || skip",
            "{ save(n); write(n, g) }",
            "<| assert[] P |>",
            "save(n) otherwise[5] retry",
            "save(n) otherwise retry",
            "start f(g, 3)",
            "start b1 startup(t) serve(3*t)",
            "start f b({b1::serve, b2::serve}, t)",
            "stop f",
            "complain()",
            "RunBackend(n, t, s)",
            "if A then skip else retry",
            "if A then skip",
            "for b in {x, y} ; write(n, b)",
            "for b in backs otherwise[t] skip",
            "case { A => skip; break otherwise => skip }",
            """case {
                 A => save(n); next
                 for b in backs (!Call && Init[b]) => skip; reconsider
                 otherwise => retry
               }""",
        ],
    )
    def test_roundtrip(self, text):
        roundtrip_expr(text)


class TestProgramEmission:
    def test_roundtrip_fig3(self):
        src = """
        instance_types { TF, TG }
        instances { f: TF, g: TG }
        def main(t) = start f(t) + start g(t)
        def complain() = host C; return
        def TF::junction(t) =
          | init prop !Work
          | init data n
          host H1; save(n);
          { write(n, g); assert[g] Work; wait[] !Work } otherwise[t] complain()
        def TG::junction(t) =
          | init prop !Work
          | init data n
          | guard Work
          restore(n); host H2; retract[f] Work
        """
        p = parse_program(src)
        emitted = emit_program(p)
        p2 = parse_program(emitted)
        assert p2 == p

    @pytest.mark.parametrize(
        "name",
        ["remote_snapshot", "caching", "checkpointing", "failover",
         "watched_failover"],
    )
    def test_roundtrip_architecture_files(self, name):
        from repro.arch.loader import load_source

        p = parse_program(load_source(name))
        assert parse_program(emit_program(p)) == p

    def test_family_emits_as_declared_and_is_a_fixed_point(self):
        src = (
            "instance_types { F, B }\n"
            "instances { f: F, g: F, Bck[3]: B }\n"
            "\n"
            "def main() =\n"
            "  start f () + (for b in Bck + start b ())\n"
        )
        assert emit_program(parse_program(src)) == src
        # a family declared first formats to the same program
        moved = src.replace("f: F, g: F, Bck[3]: B", "Bck[3]: B, f: F, g: F")
        assert parse_program(moved) == parse_program(src)
        assert emit_program(parse_program(moved)) == src

    @pytest.mark.parametrize("name", ["sharding", "parallel_sharding"])
    def test_roundtrip_sharding(self, name):
        from repro.arch.loader import load_source

        p = parse_program(load_source(name))
        assert parse_program(emit_program(p)) == p

    def test_emits_all_decl_kinds(self):
        src = """
        instance_types { T }
        instances { x: T }
        def main() = start x()
        def T::j() =
          | init prop Starting
          | init data n
          | set Backs = {a, b}
          | subset tgt of Backs
          | idx cur of {a, b}
          | for b in Backs init prop !Up[b]
          | guard Starting
          skip
        """
        p = parse_program(src)
        assert parse_program(emit_program(p)) == p
