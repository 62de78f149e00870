"""Topology extraction (sec. 8.7 of the paper).

``Topo`` produces a directed graph whose nodes are junctions (as
``"instance::junction"`` strings) and whose edges indicate
communication from one junction to another, derived by analyzing the
``assert``/``retract``/``write`` targets in each junction's (inlined
and specialized) DSL expression.

Junctions are closed by :func:`repro.core.elaborate.elaborate` — with
the arguments ``main`` starts them with — and targets are read by its
static target rule: a bare instance name is the runtime's
``sole_junction``, and an ``idx x of S`` target contributes an edge to
every member of ``S``.
"""

from __future__ import annotations

import networkx as nx

from . import ast as A
from .compiler import CompiledProgram
from .elaborate import elaborate


def topology(program: CompiledProgram, env: dict[str, object] | None = None) -> nx.DiGraph:
    """Compute the communication topology of ``program``.

    ``env`` supplies values for ``main``'s parameters (and, by name,
    for the parameters of junctions ``main`` does not start).  Junctions
    that do not close and targets that do not resolve contribute no
    edges.
    """
    g: "nx.DiGraph" = nx.DiGraph()
    for inst, tname in program.instance_map().items():
        for cj in program.junctions_of_type(tname):
            g.add_node(f"{inst}::{cj.name}", instance=inst, type=tname, junction=cj.name)

    binding = elaborate(program, env)
    for bj in binding.junctions:
        for e in A.walk(bj.body):
            if isinstance(e, (A.Assert, A.Retract, A.Write)):
                for t in binding.targets(e.target, bj):
                    if t != bj.node and g.has_node(t):
                        g.add_edge(bj.node, t)
    return g


def topology_edges(program: CompiledProgram, env: dict[str, object] | None = None) -> set[tuple[str, str]]:
    """Convenience: the edge set of :func:`topology`."""
    return set(topology(program, env).edges())
