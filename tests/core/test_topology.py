"""Topology extraction (sec. 8.7) tests."""

import pytest

from repro.arch.catalog import CATALOG
from repro.core.compiler import compile_program
from repro.core.topology import topology, topology_edges


def test_fig3_topology():
    prog = compile_program(
        """
        instance_types { TF, TG }
        instances { f: TF, g: TG }
        def main() = start f() + start g()
        def TF::junction() =
          | init prop !Work
          | init data n
          save(n); write(n, g); assert[g] Work; wait[] !Work
        def TG::junction() =
          | init prop !Work
          | init data n
          | guard Work
          retract[f] Work
        """
    )
    assert topology_edges(prog) == {
        ("f::junction", "g::junction"),
        ("g::junction", "f::junction"),
    }


def test_multi_junction_targets():
    prog = compile_program(
        """
        instance_types { F, B }
        instances { f: F, b: B }
        def main() = start f a() c() + start b()
        def F::a() = | init prop !P
          assert[b] P
        def F::c() = skip
        def B::junction() = | init prop !P
          retract[f::a] P
        """
    )
    edges = topology_edges(prog)
    assert ("f::a", "b::junction") in edges
    assert ("b::junction", "f::a") in edges
    assert ("f::c", "b::junction") not in edges


def test_idx_targets_conservative():
    prog = compile_program(
        """
        instance_types { F, B }
        instances { f: F, b1: B, b2: B }
        def main() = start f() + start b1() + start b2()
        def F::junction() =
          | init data n
          | idx tgt of {b1, b2}
          save(n); write(n, tgt)
        def B::junction() = skip
        """
    )
    edges = topology_edges(prog)
    assert ("f::junction", "b1::junction") in edges
    assert ("f::junction", "b2::junction") in edges


def test_nodes_include_unconnected_junctions():
    prog = compile_program(
        """
        instance_types { F, G }
        instances { f: F, g: G, h: G }
        def main() = start f a() c() + start g() + start h()
        def F::a() = | init prop !P
          assert[g] P
        def F::c() = skip
        def G::junction() = | init prop !P
          skip
        """
    )
    nodes, edges = topology(prog)
    assert nodes == {"f::a", "f::c", "g::junction", "h::junction"}
    assert edges == {("f::a", "g::junction")}


def test_self_edges_excluded():
    prog = compile_program(
        """
        instance_types { T }
        instances { x: T }
        def main() = start x()
        def T::j() = | init prop !P
          assert[] P
        """
    )
    assert topology_edges(prog) == set()


def test_failover_topology_shape():
    """The fail-over architecture's topology matches Fig. 8 — from
    ``main``'s own start arguments, and with them restated by hand."""
    from repro.arch.loader import load_program

    prog = load_program("failover")
    edges = topology_edges(prog)
    assert edges == topology_edges(
        prog, env={"backends": ["b1::serve", "b2::serve"], "t": 1.0}
    )
    assert len(edges) == 18
    # startup registers with f::b
    assert ("b1::startup", "f::b") in edges
    # f::b signals f::c
    assert ("f::b", "f::c") in edges
    # f::c dispatches to backends
    assert ("f::c", "b1::serve") in edges
    assert ("f::c", "b2::serve") in edges
    # serve responds to f::c
    assert ("b1::serve", "f::c") in edges


@pytest.mark.parametrize("name", CATALOG)
def test_topology_sound_against_the_runtime(name):
    """Every edge a run sends on is an edge of ``Topo``, computed from
    the program alone: junctions are closed with ``main``'s own start
    arguments, as the runtime closes them."""
    from repro.explore.scenarios import arch_scenario

    scenario = arch_scenario(name)
    system = scenario.run()
    sent = {
        (e.node, e.attrs["dst"]) for e in system.telemetry.events if e.kind == "send"
    }
    sent = {(a, b) for a, b in sent if a != b and a != "__init__::main"}
    assert sent, "the scripted workload sent nothing"
    assert sent <= topology_edges(system.program)
