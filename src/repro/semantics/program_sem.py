"""Program-level semantics: the start-up portion and whole programs.

Sec. 8.4: mapping a program into event structures adds a start-up
portion — an externally-occurring ``main`` event enables
``Start_init(ι)`` events (the distinguished ``init`` junction starts
the instances), each of which enables the ``Wr`` events initializing
the started instance's junction state (Fig. in sec. 8.4).

:func:`denote_program` returns the start-up structure plus one
structure per (instance, junction) pair, denoted with
:class:`~repro.semantics.denote.Denoter`.  The structures are disjoint
components, as in the paper's figures; cross-junction enablements are
implicit in the matching ``Wr``/``Rd`` labels (the dotted arrows of
Fig. 18 are rendered, not composed).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core import ast as A
from ..core.compiler import CompiledProgram
from ..core.elaborate import Binding, elaborate
from .denote import Denoter
from .events import AdHoc, StartL, Wr, fresh_event, TT, FF
from .structure import EventStructure as ES


@dataclass
class ProgramSemantics:
    """The event structures of a whole program."""

    startup: ES
    junctions: dict[str, ES]  # "instance::junction" -> structure

    def all_structures(self) -> list[ES]:
        return [self.startup, *self.junctions.values()]

    def total_events(self) -> int:
        return sum(s.size() for s in self.all_structures())


def denote_startup(program: CompiledProgram, env: dict | None = None) -> ES:
    """The start-up portion: ``main`` → ``Start_init(ι)`` → per-instance
    init writes."""
    return _startup(elaborate(program, env))


def _startup(binding: Binding) -> ES:
    main_ev = fresh_event(AdHoc("main"))
    events, le = [main_ev], []
    for node in A.walk(binding.main):
        if not isinstance(node, A.Start):
            continue
        iname = str(node.instance)
        start_ev = fresh_event(StartL("init", iname))
        events.append(start_ev)
        le.append((main_ev.id, start_ev.id))
        for bj in binding.junctions:
            if bj.instance != iname:
                continue
            for d in bj.decls:
                if isinstance(d, A.InitProp):
                    wr = fresh_event(Wr(frozenset([bj.node]), d.key(), TT if d.value else FF))
                    events.append(wr)
                    le.append((start_ev.id, wr.id))
    return ES(frozenset(events), frozenset(le), frozenset())


def denote_program(
    program: CompiledProgram,
    env: dict | None = None,
    *,
    max_unfold: int = 1,
) -> ProgramSemantics:
    """Denote start-up plus every instance's junctions, each closed as
    :func:`repro.core.elaborate.elaborate` closes it: ``env`` supplies
    ``main``'s parameters, and parameters by name for a junction
    ``main`` does not start.  A junction that does not close (an
    argument with no value) is an ``AdHoc`` ``unbound(node)`` stub."""
    binding = elaborate(program, env)
    closed = {bj.node: bj for bj in binding.junctions}
    startup = _startup(binding)
    junctions: dict[str, ES] = {}
    for iname, tname in program.instance_map().items():
        for cj in program.junctions_of_type(tname):
            node = f"{iname}::{cj.name}"
            bj = closed.get(node)
            if bj is None:
                junctions[node] = ES.of_events([fresh_event(AdHoc(f"unbound({node})", node))])
            else:
                den = Denoter(node, max_unfold=max_unfold)
                junctions[node] = den.denote_junction(bj.body, bj.guard)
    return ProgramSemantics(startup=startup, junctions=junctions)


def denote_junction(
    program: CompiledProgram,
    node: str,
    env: dict | None = None,
    *,
    expand: bool = True,
    max_unfold: int = 1,
) -> ES:
    """Denote a single junction ``"instance::junction"`` of ``program``
    into its event structure (paper sec. 8.5).

    This is the stable entry point for analysis and compile consumers —
    it wraps the same elaboration + :class:`Denoter` pipeline
    :func:`denote_program` uses, without requiring a deep import of
    :mod:`repro.semantics.denote`.

    ``expand=False`` leaves ``Wait_J`` placeholders in place: the
    unexpanded structure is *linear* in the body size (expansion
    duplicates the downstream structure once per DNF alternative of
    each wait formula, which is exponential in the number of waits) and
    preserves the enablement order of the body's own events — what the
    static analyzer's concurrency pass and the junction compiler's
    footprint derivation need.

    ``env`` is :func:`denote_program`'s.  Raises ``KeyError`` for an
    unknown node and ``ValueError`` when the junction does not close
    under the given environment.
    """
    binding = elaborate(program, env)
    closed = {bj.node: bj for bj in binding.junctions}
    if node not in closed:
        reason = dict(binding.unbound)[node]  # KeyError: no such junction
        raise ValueError(f"cannot specialize {node}: {reason}")
    den = Denoter(node, max_unfold=max_unfold)
    return den.denote_junction(closed[node].body, closed[node].guard, expand=expand)
