"""Well-formedness validation tests."""

import pytest

from repro.core import ast as A
from repro.core.errors import ValidationError
from repro.core.formula import prop_nodes
from repro.core.parser import parse_expression, parse_formula, parse_program
from repro.core.validate import (
    declared_keys,
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


class TestDeclaredKeys:
    def test_partitions(self):
        decls = (
            A.InitProp("W", False),
            A.InitProp("R", True, A.ref("b1")),
            A.InitData("n"),
            A.SetDecl("S", A.SetLit((A.ref("b1"), A.ref("b2")))),
            A.SubsetDecl("sub", ("b1", "b2")),
            A.IdxDecl("i", ("b1",)),
        )
        out = declared_keys(decls)
        assert out.props == {"W", "R[b1]", "__in_sub[b1]", "__in_sub[b2]"}
        assert out.data == {"n"}
        assert out.sets == {"S"}
        assert out.subset == {"sub"}
        assert out.idx == {"i"}
        assert out.families == {"R": ("b1",), "__in_sub": ("b1", "b2")}
        # slot order is declaration order; a set is not a key
        assert list(out.initial) == ["W", "R[b1]", "n", "sub", "__in_sub[b1]", "__in_sub[b2]", "i"]
        assert out.initial["R[b1]"] is True and out.initial["n"] is None


# -- the closed key set, at every site that names a local key ---------------

#: ``Up`` is a family over {a, b}; ``tgt`` ranges inside it, ``wide`` not
KEYED = (
    A.InitProp("Work", False),
    A.InitProp("Up", False, A.ref("a")),
    A.InitProp("Up", False, A.ref("b")),
    A.InitData("n"),
    A.IdxDecl("tgt", A.SetLit((A.ref("a"),))),
    A.IdxDecl("wide", A.SetLit((A.ref("a"), A.ref("z")))),
)

#: a proposition, placed at one site: (extra decls, body)
SITES = {
    "guard": lambda p: ((A.Guard(parse_formula(p)),), A.Skip()),
    "wait": lambda p: ((), parse_expression(f"wait[] {p}")),
    "case arm": lambda p: ((), parse_expression(f"case {{ {p} => skip; break otherwise => skip }}")),
    "if": lambda p: ((), parse_expression(f"if {p} then skip")),
    "verify": lambda p: ((), parse_expression(f"verify {p}")),
    "assert": lambda p: ((), parse_expression(f"assert[] {p}")),
    "retract": lambda p: ((), parse_expression(f"retract[] {p}")),
    "keep": lambda p: ((), A.Keep((p,))),
}

#: the three ways a local key falls outside the set, and what the
#: refusal must name
OUTSIDE = {
    "undeclared name": ("Nope", ["'Nope'"]),
    "out-of-family literal": ("Up[z]", ["'Up[z]'", "family Up", "{a, b}", "z is not in"]),
    "idx set not inside the family": ("Up[wide]", ["Up", "wide", "{a, b}"]),
}


def _close(site, prop):
    extra, body = SITES[site](prop)
    validate_closed_junction("T::j", KEYED + extra, body)


@pytest.mark.parametrize("case", sorted(OUTSIDE))
@pytest.mark.parametrize("site", sorted(SITES))
def test_a_local_key_outside_the_declarations_is_refused(site, case):
    prop, named = OUTSIDE[case]
    with pytest.raises(ValidationError) as err:
        _close(site, prop)
    for text in named:
        assert text in str(err.value), (text, str(err.value))
    if case.startswith("idx") and site != "keep":  # keep names keys, not cursors
        assert "idx wide's set {a, z} is not inside family Up's set {a, b}" in str(err.value)


@pytest.mark.parametrize("site", sorted(set(SITES) - {"keep"}))
@pytest.mark.parametrize("prop", ["Work", "Up[a]", "Up[b]", "!Up[tgt]"])
def test_a_declared_key_or_an_idx_inside_its_family_is_accepted(site, prop):
    if site in ("assert", "retract"):
        prop = prop.lstrip("!")
    _close(site, prop)


class TestShippedKeySets:
    """The two shapes the closed key set must keep accepting, closed
    from the shipped sources as the runtime closes them."""

    def _bound(self, name):
        from repro.arch.loader import load_program
        from repro.core.elaborate import elaborate

        binding = elaborate(load_program(name))
        assert not binding.unbound
        for bj in binding.junctions:
            validate_closed_junction(bj.node, bj.decls, bj.body, bj.params)
        return {bj.node: bj for bj in binding.junctions}

    def test_subset_membership_props(self):
        front = self._bound("parallel_sharding")["Fnt::junction"]
        keys = declared_keys(front.decls)
        members = {k for k in keys.props if k.startswith("__in_tgt[")}
        assert members and keys.families["__in_tgt"] == keys.set_values["tgt!of"]
        # ``for b in tgt`` unrolls into case arms over the membership props
        read = {
            p.key()
            for e in A.walk(front.body) if isinstance(e, A.Case)
            for arm in e.arms for p in prop_nodes(arm.formula)
        }
        assert members <= read

    def test_an_idx_indexed_family_member(self):
        route = self._bound("elastic")["Fnt::route"]
        keys = declared_keys(route.decls)
        waits = [e for e in A.walk(route.body) if isinstance(e, A.Wait)]
        assert [str(w.formula) for w in waits] == ["!Work[tgt]"]
        assert {f"Work[{w}]" for w in keys.set_values["tgt!of"]} <= keys.props
