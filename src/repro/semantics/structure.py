"""Event structures (Winskel) and the composition algebra of sec. 8.

An event structure is ``(S, ≤, #)`` with:

* ``≤`` the enablement relation — reflexive and transitive (we store
  the *strict* pairs and treat reflexivity implicitly);
* ``#`` the conflict relation — irreflexive and symmetric;
* **conflict inheritance**: ``e1 # e2 ∧ e2 ≤ e3 → e1 # e3``;
* **finite causes**: every event has a finite history ``[e]``.

The module also implements the supporting definitions of sec. 8.3:
peripheries ``⇒[[E]]`` (rightmost) and ``⇐[[E]]`` (leftmost),
``isolate``, and fresh copies ``♮(idx, [[E]])``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable

from .events import Event, fresh_event, isolate_event


@dataclass(frozen=True)
class EventStructure:
    """An immutable event structure.

    ``events`` is a frozenset of :class:`Event`; ``le`` holds *strict*
    enablement pairs ``(a.id, b.id)`` meaning ``a < b``; ``conflict``
    holds unordered conflict pairs as frozensets of two ids.
    """

    events: frozenset
    le: frozenset
    conflict: frozenset

    # -- constructors -------------------------------------------------------

    @staticmethod
    def empty() -> "EventStructure":
        return EventStructure(frozenset(), frozenset(), frozenset())

    @staticmethod
    def of_events(events: Iterable[Event]) -> "EventStructure":
        return EventStructure(frozenset(events), frozenset(), frozenset())

    # -- lookups -----------------------------------------------------------

    def in_order(self) -> list[Event]:
        """The events in identifier (creation) order.  Whatever allocates
        fresh identifiers per event iterates this, never the set, so the
        numbering does not depend on the hash seed."""
        return sorted(self.events, key=lambda e: e.id)

    @property
    def ids(self) -> frozenset:
        return frozenset(e.id for e in self.events)

    def closure_le(self) -> frozenset:
        """Transitive closure of the strict enablement pairs."""
        pairs = set(self.le)
        changed = True
        succ: dict[int, set[int]] = {}
        for a, b in pairs:
            succ.setdefault(a, set()).add(b)
        while changed:
            changed = False
            for a in list(succ):
                ext = set()
                for b in succ[a]:
                    ext |= succ.get(b, set())
                if not ext <= succ[a]:
                    succ[a] |= ext
                    changed = True
        return frozenset((a, b) for a, bs in succ.items() for b in bs)

    def leq(self, a: int, b: int) -> bool:
        """Reflexive-transitive ``a ≤ b``."""
        return a == b or (a, b) in self.closure_le()

    def history(self, eid: int) -> frozenset:
        """``[e] = {e' | e' ≤ e}`` (ids)."""
        clo = self.closure_le()
        return frozenset({eid} | {a for (a, b) in clo if b == eid})

    def conflicts(self, a: int, b: int) -> bool:
        """Conflict including inheritance."""
        return frozenset((a, b)) in self.inherited_conflicts()

    def inherited_conflicts(self) -> frozenset:
        """Close the conflict relation under inheritance:
        ``e1#e2 ∧ e2 ≤ e3 → e1#e3``."""
        clo = self.closure_le()
        desc: dict[int, set[int]] = {}
        for a, b in clo:
            desc.setdefault(a, set()).add(b)
        out = set(self.conflict)
        frontier = list(self.conflict)
        while frontier:
            pair = frontier.pop()
            ab = tuple(pair)
            if len(ab) != 2:
                continue
            a, b = ab
            for b2 in desc.get(b, ()):
                p = frozenset((a, b2))
                if len(p) == 2 and p not in out:
                    out.add(p)
                    frontier.append(p)
            for a2 in desc.get(a, ()):
                p = frozenset((a2, b))
                if len(p) == 2 and p not in out:
                    out.add(p)
                    frontier.append(p)
        return frozenset(out)

    # -- validity ------------------------------------------------------------

    def validate(self) -> None:
        """Assert the event-structure axioms."""
        ids = self.ids
        for a, b in self.le:
            if a not in ids or b not in ids:
                raise ValueError(f"dangling enablement ({a},{b})")
            if a == b:
                raise ValueError("strict enablement must be irreflexive")
        for pair in self.conflict:
            if len(pair) != 2:
                raise ValueError("conflict must relate two distinct events")
            if not pair <= ids:
                raise ValueError(f"dangling conflict {set(pair)}")
        clo = self.closure_le()
        for a, b in clo:
            if (b, a) in clo:
                raise ValueError(f"enablement cycle through {a},{b}")
        # finite causes is automatic for finite structures

    def validate_prime(self) -> None:
        """Additionally require *consistent causes*: no event's history
        contains conflicting events.  This holds for prime event
        structures; the paper's general, infinitary semantics
        deliberately produces disjunctive-cause fan-ins (e.g. the
        ``otherwise`` rule merges alternative futures, sec. 8.5's
        remark on redundancy), so :meth:`validate` does not demand it.
        The wait-expansion post-processing restores it locally by
        duplicating downstream structure."""
        self.validate()
        inh = self.inherited_conflicts()
        for e in self.events:
            hist = self.history(e.id)
            for pair in inh:
                if pair <= hist:
                    raise ValueError(
                        f"event {e} has conflicting causes {set(pair)}"
                    )

    def concurrent(self, a: int, b: int) -> bool:
        """Two events are concurrent iff incomparable by enablement and
        their histories are conflict-free (sec. 8.1)."""
        if a == b:
            return False
        if self.leq(a, b) or self.leq(b, a):
            return False
        inh = self.inherited_conflicts()
        for ea in self.history(a):
            for eb in self.history(b):
                if frozenset((ea, eb)) in inh and ea != eb:
                    return False
        return True

    # -- peripheries -----------------------------------------------------------

    def rightmost(self) -> frozenset:
        """``⇒[[E]]``: events enabling nothing further (maximal)."""
        if not self.le:
            return self.events
        sources = {a for a, _ in self.le}
        return frozenset(e for e in self.events if e.id not in sources)

    def leftmost(self) -> frozenset:
        """``⇐[[E]]``: events with no strict predecessor (minimal)."""
        if not self.le:
            return self.events
        targets = {b for _, b in self.le}
        return frozenset(e for e in self.events if e.id not in targets)

    def outward_rightmost(self) -> frozenset:
        """Rightmost events that still have the outward flag (isolated
        events do not enable through composition)."""
        return frozenset(e for e in self.rightmost() if e.outward)

    # -- transforms --------------------------------------------------------------

    def isolate(self) -> "EventStructure":
        """``isolate``: clear every event's outward flag."""
        mapping = {e.id: isolate_event(e) for e in self.events}
        return EventStructure(frozenset(mapping.values()), self.le, self.conflict)

    def copy_fresh(self) -> tuple["EventStructure", dict[int, int]]:
        """``♮``: a fresh-identifier copy; returns the structure and the
        id bijection old→new."""
        mapping: dict[int, int] = {}
        new_events = []
        for e in self.in_order():
            ne = fresh_event(e.label, e.outward)
            mapping[e.id] = ne.id
            new_events.append(ne)
        new_le = frozenset((mapping[a], mapping[b]) for a, b in self.le)
        new_conf = frozenset(frozenset(mapping[x] for x in pair) for pair in self.conflict)
        return EventStructure(frozenset(new_events), new_le, new_conf), mapping

    # -- algebra ---------------------------------------------------------------

    def union(self, other: "EventStructure") -> "EventStructure":
        """Plain union — the semantics of ``E1 + E2`` (Fig. 19)."""
        return EventStructure(
            self.events | other.events,
            self.le | other.le,
            self.conflict | other.conflict,
        )

    def then(self, other: "EventStructure") -> "EventStructure":
        """Sequential composition: rightmost(self) enable leftmost(other)."""
        extra = frozenset(
            (a.id, b.id) for a in self.outward_rightmost() for b in other.leftmost()
        )
        return EventStructure(
            self.events | other.events,
            self.le | other.le | extra,
            self.conflict | other.conflict,
        )

    def guarded_by(self, guards: Iterable[Event]) -> "EventStructure":
        """Prefix: the given events enable every leftmost event."""
        guards = list(guards)
        g_ids = frozenset(e.id for e in guards)
        extra = frozenset((g, b.id) for g in g_ids for b in self.leftmost())
        return EventStructure(
            self.events | frozenset(guards), self.le | extra, self.conflict
        )

    def size(self) -> int:
        return len(self.events)

    def find(self, predicate: Callable[[Event], bool]) -> list[Event]:
        return [e for e in self.events if predicate(e)]

    def find_label(self, text: str) -> list[Event]:
        return [e for e in self.events if str(e.label) == text]
