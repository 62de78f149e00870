"""A junction's table holds exactly its declarations, on both evaluators.

The closed key set is checked once, when a junction is closed
(``validate_closed_junction`` over ``declared_keys``), before either
evaluator sees the junction; so a wait on a family member outside the
family's set is refused at bind with one message, instead of the
tree-walker completing the wait through a table that grew while the
compiled predicate read the member as UNKNOWN forever.

The hypothesis property generates one-junction programs and update
sequences around that boundary and requires the compiled and
tree-walked runs to agree on everything observable: the final table,
which calls were refused and with what error, the failures, and the
exported telemetry, byte for byte.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.compile import compilation
from repro.core import compile_program
from repro.core.errors import CSawError
from repro.runtime import System

#: a wait on ``Up[z]`` where the family ``Up`` is declared over {a, b}
OUT_OF_FAMILY = """
instance_types { T }
instances { x: T }
def main() = start x()
def T::j() =
  | init prop !P
  | for s in {a, b} init prop !Up[s]
  wait[] Up[z]; assert[] P
"""


def _outcome(src, updates, compiled, dt=0.25):
    """Run ``src`` under one evaluator: start, then each ``(key, value)``
    external update ``dt`` apart.  Returns everything observable."""
    with compilation(compiled):
        system = System(compile_program(src), latency=0.01)
        system.start()
        system.run_until(dt)
        calls = []
        for key, value in updates:
            try:
                system.external_update("x::j", key, value)
                calls.append(None)
            except CSawError as exc:
                calls.append(f"{type(exc).__name__}: {exc}")
            system.run_until(system.now + dt)
        jr = system.junction("x::j")
        return {
            "table": jr.table.snapshot(),
            "calls": calls,
            "failures": [(t, node, str(exc)) for t, node, exc in system.failures],
            "telemetry": system.telemetry.export("jsonl"),
        }


def test_a_wait_on_a_member_outside_its_family_is_refused_on_both_evaluators():
    updates = [("Up[z]", True)]
    compiled = _outcome(OUT_OF_FAMILY, updates, compiled=True)
    walked = _outcome(OUT_OF_FAMILY, updates, compiled=False)
    assert compiled == walked
    [(_, node, failure)] = walked["failures"]
    assert node == "__init__::main"
    for text in ("'Up[z]'", "family Up", "{a, b}", "z is not in"):
        assert text in failure, (text, failure)
    # the junction was never bound: its table is empty and refuses the update
    assert walked["table"] == {}
    assert walked["calls"] == ["UndeclaredKeyError: x::j declares no key 'Up[z]'; its table is unchanged"]


# -- generated: one junction, a family, its waits and cases, and updates -----

ELEMENTS = ("a", "b", "c")
#: members a formula may name: any element, or ``z``, which no set holds
MEMBERS = ELEMENTS + ("z",)


def _formulas():
    atom = st.one_of(
        st.sampled_from(MEMBERS).map(lambda m: f"Up[{m}]"),
        st.sampled_from(["P", "Go", "false"]),
    )
    return st.recursive(
        atom,
        lambda inner: st.one_of(
            inner.map(lambda f: f"!({f})"),
            st.tuples(inner, st.sampled_from(["&&", "||"]), inner).map(
                lambda t: f"({t[0]} {t[1]} {t[2]})"
            ),
        ),
        max_leaves=4,
    )


@st.composite
def _programs(draw):
    family = draw(st.lists(st.sampled_from(ELEMENTS), min_size=1, max_size=3, unique=True))
    wait = draw(_formulas())
    arm = draw(_formulas())
    src = f"""
instance_types {{ T }}
instances {{ x: T }}
def main() = start x()
def T::j() =
  | init prop !P
  | init prop !Go
  | for s in {{{", ".join(sorted(family))}}} init prop !Up[s]
  wait[] {wait};
  case {{
    {arm} => assert[] P; break
    otherwise => retract[] P
  }}
"""
    #: declared keys, members outside the family and unknown names
    keys = st.one_of(
        st.sampled_from(MEMBERS).map(lambda m: f"Up[{m}]"),
        st.sampled_from(["P", "Go", "Nope"]),
    )
    updates = draw(st.lists(st.tuples(keys, st.booleans()), max_size=8))
    return src, updates


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(_programs())
def test_generated_junctions_agree_across_evaluators(case):
    src, updates = case
    assert _outcome(src, updates, compiled=True) == _outcome(src, updates, compiled=False)
