"""Well-formedness validation tests."""

import pytest

from repro.core import ast as A
from repro.core.errors import ValidationError
from repro.core.parser import parse_expression, parse_program
from repro.core.validate import (
    collect_declared,
    validate_closed_junction,
    validate_program,
)


def prog(text):
    return parse_program(text)


BOILER = """
instance_types { T, U }
instances { x: T, y: U }
def main() = start x()
"""


class TestProgramValidation:
    def test_valid_program(self):
        validate_program(prog(BOILER + "def T::j() = skip"))

    def test_undeclared_type_for_instance(self):
        p = prog(
            """
            instance_types { T }
            instances { x: Nope }
            def main() = start x()
            """
        )
        with pytest.raises(ValidationError):
            validate_program(p)

    def test_duplicate_instance(self):
        p = prog(
            """
            instance_types { T }
            instances { x: T, x: T }
            def main() = start x()
            """
        )
        with pytest.raises(ValidationError):
            validate_program(p)

    @pytest.mark.parametrize(
        "bindings, dupe",
        (("Bck1: T, Bck[2]: T", "Bck1"), ("Bck[2]: T, Bck2: T", "Bck2"),
         ("Bck: T, Bck[2]: T", "Bck"), ("Bck[2]: T, Bck[3]: T", "Bck1, Bck2, Bck")),
        ids=("member-after", "member-before", "family-name", "two-families"),
    )
    def test_family_member_clashes_with_another_declaration(self, bindings, dupe):
        p = prog(
            f"""
            instance_types {{ T }}
            instances {{ {bindings} }}
            def main() = start Bck1()
            """
        )
        with pytest.raises(
            ValidationError, match=rf"duplicate instance name\(s\): {dupe} "
        ):
            validate_program(p)

    def test_family_size_is_checked_once_with_the_family_named(self):
        from repro.core.errors import CompileError

        p = prog(
            """
            instance_types { T }
            instances { Bck[0]: T }
            def main() = start Bck1()
            """
        )
        with pytest.raises(CompileError, match="'Bck' needs a size ≥ 1, got 0"):
            validate_program(p)

    def test_duplicate_instance_names_the_duplicates(self):
        p = prog(
            """
            instance_types { T }
            instances { x: T, y: T, x: T, y: T }
            def main() = start x()
            """
        )
        with pytest.raises(
            ValidationError, match=r"duplicate instance name\(s\): x, y"
        ):
            validate_program(p)

    def test_duplicate_type_names_the_duplicates(self):
        p = prog(
            """
            instance_types { T, U, T }
            instances { x: T }
            def main() = start x()
            """
        )
        with pytest.raises(
            ValidationError, match=r"duplicate instance type name\(s\): T"
        ):
            validate_program(p)

    def test_junction_of_undeclared_type(self):
        p = prog(BOILER + "def Zed::j() = skip")
        with pytest.raises(ValidationError):
            validate_program(p)

    def test_duplicate_junction(self):
        p = prog(BOILER + "def T::j() = skip def T::j() = skip")
        with pytest.raises(ValidationError):
            validate_program(p)

    def test_main_must_start_something(self):
        p = prog(
            """
            instance_types { T }
            instances { x: T }
            def main() = skip
            """
        )
        with pytest.raises(ValidationError):
            validate_program(p)

    def test_duplicate_declaration_name(self):
        p = prog(BOILER + "def T::j() = | init data n | init data n\n skip")
        with pytest.raises(ValidationError):
            validate_program(p)

    def test_two_guards_rejected(self):
        p = prog(BOILER + "def T::j() = | guard A | guard B\n skip")
        with pytest.raises(ValidationError):
            validate_program(p)


class TestSelfCommunication:
    def test_write_to_me_junction_rejected(self):
        p = prog(BOILER + "def T::j() = | init data n\n write(n, me::junction)")
        with pytest.raises(ValidationError):
            validate_program(p)

    def test_assert_to_own_qualified_name_rejected(self):
        p = prog(BOILER + "def T::j() = assert[T::j] Work")
        with pytest.raises(ValidationError):
            validate_program(p)

    def test_local_assert_allowed(self):
        validate_program(prog(BOILER + "def T::j() = | init prop !W\n assert[] W"))


class TestCaseConstraints:
    def test_only_otherwise_rejected(self):
        # built programmatically: the parser can't even produce this
        c = A.Case((), A.Skip())
        with pytest.raises(ValidationError):
            from repro.core.validate import _validate_expr

            _validate_expr(c, "t", False, None)

    def test_next_before_otherwise_rejected(self):
        p = prog(
            BOILER
            + """def T::j() =
              case { A => skip; next otherwise => skip }"""
        )
        with pytest.raises(ValidationError):
            validate_program(p)

    def test_next_in_middle_allowed(self):
        validate_program(
            prog(
                BOILER
                + """def T::j() =
                  case {
                    A => skip; next
                    B => skip; break
                    otherwise => skip }"""
            )
        )


class TestTransactionConstraints:
    def test_host_in_transaction_rejected(self):
        p = prog(BOILER + "def T::j() = <| host H |>")
        with pytest.raises(ValidationError):
            validate_program(p)

    def test_host_in_nested_transaction_rejected(self):
        p = prog(BOILER + "def T::j() = <| { skip; host H } |>")
        with pytest.raises(ValidationError):
            validate_program(p)

    def test_host_outside_transaction_fine(self):
        validate_program(prog(BOILER + "def T::j() = host H; <| skip |>"))


class TestStartValidation:
    def test_mixed_anon_and_named_rejected(self):
        e = A.Start(A.ref("x"), ((None, ()), ("j", ())))
        from repro.core.validate import _validate_expr

        with pytest.raises(ValidationError):
            _validate_expr(e, "main", False, None)

    def test_repeated_junction_group_rejected(self):
        p = prog(
            """
            instance_types { T }
            instances { x: T }
            def main() = start x j() j()
            """
        )
        with pytest.raises(ValidationError):
            validate_program(p)


class TestClosedJunction:
    def _decls(self):
        return (
            A.InitProp("Work", False),
            A.InitData("n"),
            A.IdxDecl("tgt", A.SetLit((A.ref("a"),))),
            A.SetDecl("Backs", A.SetLit((A.ref("a"),))),
        )

    def test_write_of_undeclared_data(self):
        with pytest.raises(ValidationError):
            validate_closed_junction("t", self._decls(), parse_expression("write(z, a)"))

    def test_write_of_set_rejected(self):
        with pytest.raises(ValidationError):
            validate_closed_junction(
                "t", self._decls(), parse_expression("write(Backs, a)")
            )

    def test_write_of_idx_rejected(self):
        with pytest.raises(ValidationError):
            validate_closed_junction("t", self._decls(), parse_expression("write(tgt, a)"))

    def test_restore_of_parameter_rejected(self):
        decls = self._decls() + (A.InitData("t0"),)
        with pytest.raises(ValidationError):
            validate_closed_junction(
                "t", decls, parse_expression("restore(t0)"), params=("t0",)
            )

    def test_wait_undeclared_key(self):
        with pytest.raises(ValidationError):
            validate_closed_junction("t", self._decls(), parse_expression("wait[zzz] Work"))

    def test_wait_undeclared_prop(self):
        with pytest.raises(ValidationError):
            validate_closed_junction("t", self._decls(), parse_expression("wait[] Nope"))

    def test_wait_prop_under_at_not_checked_locally(self):
        validate_closed_junction(
            "t", self._decls(), parse_expression("wait[] f@RemoteProp || Work")
        )

    def test_host_write_unknown_state(self):
        with pytest.raises(ValidationError):
            validate_closed_junction("t", self._decls(), parse_expression("host H {zzz}"))

    def test_host_write_idx_allowed(self):
        validate_closed_junction("t", self._decls(), parse_expression("host H {tgt}"))

    def test_keep_undeclared(self):
        with pytest.raises(ValidationError):
            validate_closed_junction("t", self._decls(), parse_expression("keep(zzz)"))

    def test_ok_junction(self):
        validate_closed_junction(
            "t",
            self._decls(),
            parse_expression("save(n); write(n, a); wait[n] !Work; keep(n, Work)"),
        )


class TestCollectDeclared:
    def test_partitions(self):
        decls = (
            A.InitProp("W", False),
            A.InitProp("R", True, A.ref("b1")),
            A.InitData("n"),
            A.SetDecl("S", None),
            A.SubsetDecl("sub", A.ref("S")),
            A.IdxDecl("i", A.ref("S")),
        )
        out = collect_declared(decls)
        assert "W" in out["prop"]
        assert "R[b1]" in out["prop"]
        assert out["data"] == {"n"}
        assert out["set"] == {"S"}
        assert out["subset"] == {"sub"}
        assert out["idx"] == {"i"}
