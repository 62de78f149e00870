"""One elaborator (docs/RUNTIME.md, "Elaboration"): the run, the
analyzer and ``Topo`` read the two cases the old copies split on by the
same rule."""

import pytest

from repro.analysis.analyzer import analyze_program
from repro.core.compiler import compile_program
from repro.core.elaborate import elaborate
from repro.core.errors import StartStopFailure
from repro.core.topology import topology_edges
from repro.runtime import System

#: (a) an anonymous argument group on an instance with several junctions
ANONYMOUS = """
instance_types { T, U }
instances { x: T, y: U }
def main() = start x(1) + start y()
def T::a(t) = | init prop !P
  assert[y] P
def T::c(t) = skip
def U::junction() = | init prop !P
  skip
"""
ANONYMOUS_REASON = "start x: anonymous arguments but 2 junctions"

#: (b) a bare instance name as a target: ``g`` has a junction named
#: ``junction``, ``h`` does not
BARE = """
instance_types { F, G, H }
instances { f: F, g: G, h: H }
def main() = start f() + start g junction() other() + start h p() q()
def F::junction() =
  | init prop !P
  | init prop !Q
  assert[g] P; assert[h] Q
def G::junction() = | init prop !P
  skip
def G::other() = skip
def H::p() = | init prop !Q
  skip
def H::q() = skip
"""


def run(program):
    """(failures as text, distinct send edges) of a run to quiescence."""
    system = System(program)
    system.start()
    system.run_until(5.0)
    sends = {(e.node, e.attrs["dst"]) for e in system.telemetry.events if e.kind == "send"}
    return [str(exc) for _, _, exc in system.failures], sends


def analyzed(program):
    """(reasons junctions were not analyzed, nodes findings name)."""
    findings = analyze_program(program).findings
    return (
        {f.node: f.message for f in findings if f.kind == "not-analyzed"},
        {f.node for f in findings if f.kind != "not-analyzed"},
    )


@pytest.mark.parametrize(
    "source,failure,not_analyzed,edges",
    [
        (ANONYMOUS, ANONYMOUS_REASON, {"x::a", "x::c"}, set()),
        (BARE, "instance 'h' has 2 junctions; qualify the target", set(),
         {("f::junction", "g::junction")}),
    ],
    ids=["anonymous-group", "bare-name-target"],
)
def test_one_rule_for_run_analyzer_and_topo(source, failure, not_analyzed, edges):
    program = compile_program(source)

    failures, sends = run(program)
    assert len(failures) == 1 and failure in failures[0]
    assert sends == edges

    reasons, nodes = analyzed(program)
    assert set(reasons) == not_analyzed
    assert all(failure in message for message in reasons.values())
    # the analyzer follows exactly the edges the run sent on
    assert nodes == {dst for _, dst in edges}

    assert topology_edges(program) == edges


def test_unbound_carries_the_runtime_reason():
    binding = elaborate(compile_program(ANONYMOUS))
    assert binding.unbound == [("x::a", ANONYMOUS_REASON), ("x::c", ANONYMOUS_REASON)]
    assert [bj.node for bj in binding.junctions] == ["y::junction"]


def test_reconfigure_refuses_what_a_fresh_start_refuses():
    """The executor derives the new ``main``'s start arguments by the
    same rule: it raises before touching the running system instead of
    silently leaving the instance out."""
    ok = ANONYMOUS.replace("start x(1)", "start x a(1) c(1)")
    system = System(compile_program(ok))
    system.start()
    system.run_until(1.0)
    with pytest.raises(StartStopFailure, match=ANONYMOUS_REASON):
        system.reconfigure(compile_program(ANONYMOUS))
    assert system.instances["x"].running and not system._reconfiguring


def test_start_arguments_differ_per_instance():
    """What a flat ``env`` could not say: two instances of one type
    started with different arguments close differently."""
    program = compile_program(
        """
        instance_types { S, R }
        instances { s1: S, s2: S, r1: R, r2: R }
        def main() = start s1(r1) + start s2(r2) + start r1() + start r2()
        def S::junction(to) = | init prop !P
          assert[to] P
        def R::junction() = | init prop !P
          skip
        """
    )
    assert topology_edges(program) == {
        ("s1::junction", "r1::junction"),
        ("s2::junction", "r2::junction"),
    }
