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
from functools import cached_property
from typing import Callable, Iterable, Iterator

from .events import Event, fresh_event, isolate_event


def _adjacency(pairs: Iterable[tuple[int, int]]) -> dict[int, list[int]]:
    out: dict[int, list[int]] = {}
    for a, b in pairs:
        out.setdefault(a, []).append(b)
    return out


def reachable(adj: dict, start: int, done: dict | None = None) -> set[int]:
    """Everything a walk over ``adj`` reaches from ``start`` (``start``
    itself only on a cycle).  ``done`` maps events to sets already
    complete, which the walk takes whole instead of re-entering."""
    seen: set[int] = set()
    stack = [start]
    while stack:
        for b in adj.get(stack.pop(), ()):
            if b not in seen:
                seen.add(b)
                if done and b in done:
                    seen |= done[b]
                else:
                    stack.append(b)
    return seen


def _closure(adj: dict, order: list[int]) -> dict[int, frozenset]:
    out: dict[int, frozenset] = {}
    for a in order:
        out[a] = frozenset(reachable(adj, a, out))
    return out


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

    # -- derived relations: computed once per structure, from adjacency --------

    @cached_property
    def successors(self) -> dict[int, list[int]]:
        """``a`` → the events ``a`` directly enables."""
        return _adjacency(self.le)

    @cached_property
    def descendants(self) -> dict[int, frozenset]:
        """``a`` → every ``b`` with ``a < b``, for each event."""
        # later events first: an event's successors were mostly created
        # after it, so most walks stop at once on finished sets
        return _closure(self.successors, sorted(self.ids, reverse=True))

    @cached_property
    def ancestors(self) -> dict[int, frozenset]:
        """``b`` → every ``a`` with ``a < b``, for each event."""
        return _closure(_adjacency((b, a) for a, b in self.le), sorted(self.ids))

    @cached_property
    def _partners(self) -> dict[int, list[int]]:
        """``a`` → the events in *declared* conflict with ``a``."""
        pairs = [tuple(p) for p in self.conflict if len(p) == 2]
        return _adjacency(pairs + [(b, a) for a, b in pairs])

    def closure_le(self) -> frozenset:
        """Transitive closure of the strict enablement pairs."""
        return frozenset((a, b) for a, ds in self.descendants.items() for b in ds)

    def leq(self, a: int, b: int) -> bool:
        """Reflexive-transitive ``a ≤ b``."""
        return a == b or b in self.descendants.get(a, ())

    def history(self, eid: int) -> frozenset:
        """``[e] = {e' | e' ≤ e}`` (ids)."""
        return self.ancestors.get(eid, frozenset()) | {eid}

    def straddling(self, a: int, b: int) -> Iterator[frozenset]:
        """The *declared* conflicts with one side in ``[a]`` and the
        other in ``[b]``.  Histories are downward closed, so ``a # b``
        under inheritance (``e1#e2 ∧ e2 ≤ e3 → e1#e3``) exactly when
        there is one."""
        hb = self.history(b)
        for c in self.history(a):
            for d in self._partners.get(c, ()):
                if d in hb:
                    yield frozenset((c, d))

    def conflicts(self, a: int, b: int) -> bool:
        """Conflict including inheritance."""
        return a != b and any(True for _ in self.straddling(a, b))

    def inherited_conflicts(self) -> frozenset:
        """The conflict relation closed under inheritance, as pairs."""
        up = {e: self.descendants[e] | {e} for e in self._partners}
        return frozenset(
            frozenset((x, y))
            for a, bs in self._partners.items()
            for b in bs
            for x in up[a]
            for y in up[b]
            if x != y
        )

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
        for a, after in self.descendants.items():
            if a in after:
                raise ValueError(f"enablement cycle through {a}")
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
        for e in self.events:
            hist = self.history(e.id)
            for pair in self.conflict:  # an inherited pair sits above one
                if pair <= hist:
                    raise ValueError(
                        f"event {e} has conflicting causes {set(pair)}"
                    )

    def concurrent(self, a: int, b: int) -> bool:
        """Two events are concurrent iff incomparable by enablement and
        their histories are conflict-free (sec. 8.1)."""
        return a != b and not (self.leq(a, b) or self.leq(b, a) or self.conflicts(a, b))

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
