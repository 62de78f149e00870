"""Rendering event structures (the graphical notation of sec. 8.2.1).

* :func:`to_dot` — Graphviz DOT: solid arrows for immediate causality,
  dashed zig-zag-style edges for minimal conflict, boxed scheduling
  events (as in Fig. 18).
* :func:`to_text` — a deterministic topological text listing used in
  tests and docs.

Both render *immediate* causality (``e1 ⪇ e2`` with nothing strictly
between) and *minimal* conflict (conflicts not inherited from smaller
ones), per the paper's definitions.
"""

from __future__ import annotations

from .events import Sched, Unsched
from .structure import EventStructure


def immediate_causality(es: EventStructure) -> set[tuple[int, int]]:
    """``a ⪇ b`` with nothing strictly between: the direct enablements
    no other direct successor of ``a`` leads to."""
    out = set()
    for a, direct in es.successors.items():
        via = set().union(*(es.descendants[c] for c in direct))
        out.update((a, b) for b in direct if b not in via and b != a)
    return out


def minimal_conflicts(es: EventStructure) -> set[frozenset]:
    """Conflicts ``e1 # e2`` minimal in the sense of sec. 8.2.1: an
    inherited conflict never is, and a declared one is unless another
    declared conflict lies below it."""
    return {
        pair
        for pair in es.conflict
        if len(pair) == 2 and all(p == pair for p in es.straddling(*pair))
    }


def to_dot(es: EventStructure, name: str = "events") -> str:
    lines = [f"digraph {_dot_id(name)} {{", "  rankdir=TB;", "  node [fontsize=10];"]
    for e in sorted(es.events, key=lambda x: x.id):
        shape = "box" if isinstance(e.label, (Sched, Unsched)) else "ellipse"
        style = ' style="dashed"' if not e.outward else ""
        lines.append(f'  e{e.id} [label="{e}" shape={shape}{style}];')
    for a, b in sorted(immediate_causality(es)):
        lines.append(f"  e{a} -> e{b};")
    for pair in sorted(minimal_conflicts(es), key=sorted):
        a, b = sorted(pair)
        lines.append(f'  e{a} -> e{b} [dir=none style=dotted color=red constraint=false];')
    lines.append("}")
    return "\n".join(lines)


def to_text(es: EventStructure) -> str:
    """Deterministic listing: events in a topological order with their
    immediate enablers, followed by minimal conflicts."""
    enablers: dict[int, list[int]] = {}
    for a, b in sorted(immediate_causality(es)):
        enablers.setdefault(b, []).append(a)
    id2e = {e.id: e for e in es.events}
    lines = []
    for eid in _topo_order(es):
        preds = enablers.get(eid, ())
        pred_s = ", ".join(str(id2e[p]) for p in preds)
        arrow = f"  <- [{pred_s}]" if preds else ""
        lines.append(f"{id2e[eid]}{arrow}")
    for pair in sorted(minimal_conflicts(es), key=sorted):
        a, b = sorted(pair)
        lines.append(f"CONFLICT {id2e[a]} ~ {id2e[b]}")
    return "\n".join(lines)


def _topo_order(es: EventStructure) -> list[int]:
    remaining = {e.id for e in es.events}
    # direct enablers suffice: theirs were emitted before them
    preds: dict[int, set] = {i: set() for i in remaining}
    for a, b in es.le:
        if b in preds:
            preds[b].add(a)
    order = []
    while remaining:
        ready = sorted(i for i in remaining if not (preds[i] & remaining))
        if not ready:  # cycle (invalid structure); dump rest
            order.extend(sorted(remaining))
            break
        for i in ready:
            order.append(i)
            remaining.discard(i)
    return order


def _dot_id(name: str) -> str:
    return '"' + name.replace('"', "'") + '"'
