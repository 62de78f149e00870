"""Parser tests across the whole grammar."""

import pytest

from repro.core import ast as A
from repro.core.errors import ParseError
from repro.core.formula import And, At, FalseF, Implies, Live, Not, Or, Prop
from repro.core.parser import parse_expression, parse_formula, parse_program


class TestPrograms:
    def test_minimal_program(self):
        p = parse_program(
            """
            instance_types { T }
            instances { x: T }
            def main() = start x()
            def T::junction() = skip
            """
        )
        assert p.instance_types == ("T",)
        assert p.instances == (("x", "T"),)
        assert p.main is not None
        assert p.defs[0].qualified == "T::junction"

    def test_anonymous_junction_name_defaults(self):
        p = parse_program(
            """
            instance_types { T }
            instances { x: T }
            def main() = start x()
            def T::(t) = skip
            """
        )
        assert p.defs[0].junction == "junction"

    def test_function_definition(self):
        p = parse_program(
            """
            instance_types { T }
            instances { x: T }
            def main() = start x()
            def helper(a, b) = skip
            def T::j() = helper(1, 2)
            """
        )
        assert p.functions[0].name == "helper"
        assert p.functions[0].params == ("a", "b")

    def test_duplicate_main_rejected(self):
        with pytest.raises(ParseError):
            parse_program("def main() = skip def main() = skip")

    def test_multiple_instances(self):
        p = parse_program(
            """
            instance_types { F, B }
            instances { f: F, b1: B, b2: B }
            def main() = start f()
            def F::j() = skip
            """
        )
        assert p.instance_map() == {"f": "F", "b1": "B", "b2": "B"}

    def test_indexed_family_beside_plain_bindings(self):
        p = parse_program(
            """
            instance_types { F, B }
            instances { f: F, Bck[3]: B, g: F }
            def main() = start f() + for b in Bck + start b()
            def F::j() = skip
            """
        )
        assert p.instances == (("f", "F"), ("g", "F"))
        assert p.families == (("Bck", 3, "B"),)
        assert p.instance_map() == {
            "f": "F", "g": "F", "Bck1": "B", "Bck2": "B", "Bck3": "B",
        }

    @pytest.mark.parametrize("size", ("2.5", "n", "", "-1"))
    def test_family_size_is_a_whole_number(self, size):
        with pytest.raises(ParseError, match="whole-number family size|expected"):
            parse_program(f"instance_types {{ B }} instances {{ Bck[{size}]: B }}")


class TestDeclarations:
    def _decls(self, decl_text):
        p = parse_program(
            f"""
            instance_types {{ T }}
            instances {{ x: T }}
            def main() = start x()
            def T::j() =
              {decl_text}
              skip
            """
        )
        return p.defs[0].decls

    def test_init_prop_negative(self):
        (d,) = self._decls("| init prop !Work")
        assert isinstance(d, A.InitProp)
        assert d.name == "Work" and d.value is False

    def test_init_prop_positive(self):
        (d,) = self._decls("| init prop Starting")
        assert d.value is True

    def test_init_prop_indexed(self):
        (d,) = self._decls("| init prop !Running[me::junction]")
        assert d.index == A.ref("me::junction")
        assert d.key() == "Running[me::junction]"

    def test_init_data(self):
        (d,) = self._decls("| init data n")
        assert isinstance(d, A.InitData)

    def test_guard(self):
        (d,) = self._decls("| guard Work && !Done")
        assert isinstance(d, A.Guard)

    def test_set_with_literal(self):
        (d,) = self._decls("| set Backs = {a, b}")
        assert isinstance(d, A.SetDecl)
        assert d.literal == A.SetLit((A.ref("a"), A.ref("b")))

    def test_set_without_literal(self):
        (d,) = self._decls("| set Backs")
        assert d.literal is None

    def test_subset(self):
        (d,) = self._decls("| subset tgt of Backs")
        assert isinstance(d, A.SubsetDecl)

    def test_idx_of_literal_set(self):
        (d,) = self._decls("| idx tgt of {b1, b2}")
        assert isinstance(d, A.IdxDecl)
        assert isinstance(d.of_set, A.SetLit)

    def test_for_init(self):
        (d,) = self._decls("| for b in backs init prop !Ready[b]")
        assert isinstance(d, A.ForInit)
        assert d.var == "b"
        assert d.decl.index == A.ref("b")


class TestStatements:
    def test_sequence(self):
        e = parse_expression("skip; skip; skip")
        assert isinstance(e, A.Seq)
        assert len(e.items) == 3

    def test_trailing_semicolon_allowed(self):
        e = parse_expression("skip; skip;")
        assert isinstance(e, A.Seq) and len(e.items) == 2

    def test_parallel(self):
        e = parse_expression("skip + skip")
        assert isinstance(e, A.Par)

    def test_replicated_parallel(self):
        e = parse_expression("skip || skip")
        assert isinstance(e, A.RepPar)

    def test_precedence_seq_loosest(self):
        e = parse_expression("skip + skip; skip")
        assert isinstance(e, A.Seq)
        assert isinstance(e.items[0], A.Par)

    def test_host_block_with_writes(self):
        e = parse_expression("host Choose {tgt, m}")
        assert e == A.HostBlock("Choose", ("tgt", "m"))

    def test_host_block_no_writes(self):
        e = parse_expression("host H1")
        assert e.writes == ()

    def test_write(self):
        e = parse_expression("write(n, f::c)")
        assert e == A.Write("n", A.ref("f::c"))

    def test_save_plain_and_paper_style(self):
        assert parse_expression("save(n)") == A.Save("n")
        assert parse_expression("save(..., n)") == A.Save("n")

    def test_restore_paper_style(self):
        assert parse_expression("restore(n, ...)") == A.Restore("n")

    def test_wait_with_keys(self):
        e = parse_expression("wait[m, n] !Work")
        assert e.keys == ("m", "n")
        assert e.formula == Not(Prop("Work"))

    def test_wait_no_keys(self):
        e = parse_expression("wait[] Work")
        assert e.keys == ()

    def test_assert_self(self):
        e = parse_expression("assert[] Retried")
        assert isinstance(e.target, A.SelfTarget)

    def test_assert_indexed(self):
        e = parse_expression("assert[tgt] Work[tgt]")
        assert e.prop == "Work"
        assert e.index == A.ref("tgt")

    def test_retract_remote(self):
        e = parse_expression("retract[f::c] Starting")
        assert isinstance(e, A.Retract)
        assert e.target == A.ref("f::c")

    def test_keep(self):
        e = parse_expression("keep(a, b)")
        assert e == A.Keep(("a", "b"))

    def test_verify(self):
        e = parse_expression("verify !Active && Work")
        assert isinstance(e, A.Verify)

    def test_fate_block(self):
        e = parse_expression("{ skip; skip }")
        assert isinstance(e, A.FateBlock)

    def test_transaction(self):
        e = parse_expression("<| skip |>")
        assert isinstance(e, A.Transaction)

    def test_parens_are_grouping_only(self):
        e = parse_expression("(skip)")
        assert isinstance(e, A.Skip)

    def test_otherwise_with_timeout(self):
        e = parse_expression("skip otherwise[5] retry")
        assert isinstance(e, A.Otherwise)
        assert e.timeout == A.Num(5.0)

    def test_otherwise_without_timeout(self):
        e = parse_expression("skip otherwise retry")
        assert e.timeout is None

    def test_otherwise_right_associative(self):
        e = parse_expression("skip otherwise[1] skip otherwise[2] retry")
        assert isinstance(e.handler, A.Otherwise)

    def test_function_call(self):
        e = parse_expression("complain()")
        assert e == A.Call("complain", ())

    def test_function_call_args(self):
        e = parse_expression("RunBackend(n, t, s)")
        assert e.args == (A.ref("n"), A.ref("t"), A.ref("s"))

    def test_bare_identifier_rejected(self):
        with pytest.raises(ParseError):
            parse_expression("complain")


class TestStartStop:
    def test_start_anonymous_args(self):
        e = parse_expression("start f(g, 3)")
        assert e.instance == A.ref("f")
        assert e.junction_args == ((None, (A.ref("g"), A.Num(3.0))),)

    def test_start_named_junction_groups(self):
        e = parse_expression("start b1 startup(t) serve(t) reactivate(3*t)")
        names = [j for j, _ in e.junction_args]
        assert names == ["startup", "serve", "reactivate"]
        _, args = e.junction_args[2]
        assert isinstance(args[0], A.BinArith)

    def test_start_no_args(self):
        e = parse_expression("start w")
        assert e.junction_args == ()

    def test_start_set_argument(self):
        e = parse_expression("start f b({b1::serve, b2::serve}, t)")
        _, args = e.junction_args[0]
        assert isinstance(args[0], A.SetLit)

    def test_stop(self):
        e = parse_expression("stop f")
        assert e == A.Stop(A.ref("f"))

    def test_start_parallel_composition(self):
        e = parse_expression("start a() + start b()")
        assert isinstance(e, A.Par)


class TestCase:
    def test_case_basic(self):
        e = parse_expression(
            "case { Work => skip; break otherwise => skip }"
        )
        assert isinstance(e, A.Case)
        assert len(e.arms) == 1
        assert e.arms[0].terminator == "break"

    def test_case_all_terminators(self):
        e = parse_expression(
            """case {
                A => skip; break
                B => skip; next
                C => skip; reconsider
                otherwise => skip
            }"""
        )
        assert [a.terminator for a in e.arms] == ["break", "next", "reconsider"]

    def test_case_arm_with_otherwise_inside(self):
        e = parse_expression(
            """case {
                Work => retract[Act] Work otherwise[t] complain(); reconsider
                otherwise => skip
            }"""
        )
        arm = e.arms[0]
        assert isinstance(arm.body, A.Otherwise)

    def test_case_missing_otherwise_rejected(self):
        with pytest.raises(ParseError):
            parse_expression("case { Work => skip; break }")

    def test_case_missing_terminator_rejected(self):
        with pytest.raises(ParseError):
            parse_expression("case { Work => skip otherwise => skip }")

    def test_for_arm(self):
        e = parse_expression(
            """case {
                for b in backs (!Call && Init[b]) => skip; break
                otherwise => skip
            }"""
        )
        assert isinstance(e.arms[0], A.ForArm)


class TestIfAndFor:
    def test_if_then(self):
        e = parse_expression("if Work then skip")
        assert isinstance(e, A.If)
        assert e.orelse is None

    def test_if_then_else(self):
        e = parse_expression("if !R then assert[] R else complain()")
        assert isinstance(e.orelse, A.Call)

    def test_for_seq(self):
        e = parse_expression("for b in {x, y} ; skip")
        assert isinstance(e, A.For)
        assert e.op == ";"

    def test_for_par(self):
        e = parse_expression("for b in backs + skip")
        assert e.op == "+"

    def test_for_otherwise_with_timeout(self):
        e = parse_expression("for b in backs otherwise[t] skip")
        assert e.op == "otherwise"
        assert e.op_timeout == A.ref("t")


class TestFormulas:
    def test_precedence(self):
        f = parse_formula("A && B || C -> D")
        # -> loosest, then ||, then &&
        assert isinstance(f, Implies)
        assert isinstance(f.left, Or)
        assert isinstance(f.left.left, And)

    def test_negation(self):
        assert parse_formula("!A") == Not(Prop("A"))

    def test_true_false(self):
        assert parse_formula("false") == FalseF()
        assert parse_formula("true") == Not(FalseF())

    def test_indexed_prop(self):
        f = parse_formula("Running[me::junction]")
        assert f == Prop("Running", A.ref("me::junction"))

    def test_at_formula(self):
        f = parse_formula("b1::serve@Active")
        assert isinstance(f, At)
        assert f.junction == A.ref("b1::serve")

    def test_at_with_negation(self):
        f = parse_formula("f@!Reply")
        assert isinstance(f, At)
        assert f.body == Not(Prop("Reply"))

    def test_liveness(self):
        assert parse_formula("live(o)") == Live(A.ref("o"))
        assert parse_formula("S(o)") == Live(A.ref("o"))

    def test_implication_right_assoc(self):
        f = parse_formula("A -> B -> C")
        assert isinstance(f.right, Implies)

    def test_for_formula(self):
        f = parse_formula("for b in backs && Ready[b]")
        assert isinstance(f, A.ForFormula)
        assert f.op == "&&"

    def test_qualified_name_without_at_rejected(self):
        with pytest.raises(ParseError):
            parse_formula("a::b")


class TestPaperPrograms:
    """The full architecture files from the paper all parse."""

    @pytest.mark.parametrize(
        "name",
        ["remote_snapshot", "caching", "checkpointing", "failover",
         "watched_failover"],
    )
    def test_architecture_parses(self, name):
        from repro.arch.loader import load_source

        p = parse_program(load_source(name))
        assert p.main is not None
        assert p.defs

    def test_sharding_parses_with_backends(self):
        from repro.arch.loader import load_source

        p = parse_program(load_source("sharding"))
        assert p.families == (("Bck", 4, "Back"),)
        assert len(p.all_instances()) == 5
