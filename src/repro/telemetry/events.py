"""Structured trace events with causal parent links.

A :class:`TraceEvent` records one observable runtime activity at a
simulated timestamp.  Events form a *forest*: each event may name a
causal parent (by sequence number), so a trace is a concrete event
structure in the sense of the paper's sec. 8 semantics
(:mod:`repro.semantics.events`) — the causality relation ``<`` of the
abstract semantics becomes the transitive closure of ``parent`` links
over the events the runtime actually emitted.

The emitted causal chain mirrors one remote update end to end::

    attempt ──> sched ──> send ──┬──> retransmit*
                                 ├──> apply | dedup   (receiver side)
                                 ├──> drop*           (transport)
                                 └──> ack             (sender side)

Event kinds and their attributes are documented in
``docs/OBSERVABILITY.md``.  Everything in an event is deterministic
under a fixed seed: sequence numbers are per-:class:`~repro.telemetry.facade.Telemetry`
counters and timestamps are simulated time, so exporting the same run
twice yields byte-identical output.
"""

from __future__ import annotations


class TraceEvent:
    """One structured trace event — a view: the ring buffer stores flat
    tuples (:class:`~repro.telemetry.sinks.RingBufferSink`) and builds
    one of these per event when it is iterated.

    ``seq`` is unique within its emitting :class:`Telemetry`;
    ``parent`` is the ``seq`` of the causal parent event or ``None``;
    ``attrs`` carries kind-specific payload (kept as the keyword
    arguments given to ``emit``).
    """

    __slots__ = ("seq", "time", "kind", "node", "parent", "attrs")

    def __init__(
        self,
        seq: int,
        time: float,
        kind: str,
        node: str,
        parent: int | None = None,
        attrs: dict | None = None,
    ):
        self.seq = seq
        self.time = time
        self.kind = kind
        self.node = node
        self.parent = parent
        self.attrs = attrs or {}

    def record(self) -> dict:
        """Full structured view (what the JSONL exporter serializes)."""
        rec = {
            "seq": self.seq,
            "time": self.time,
            "kind": self.kind,
            "node": self.node,
            "parent": self.parent,
        }
        rec.update(self.attrs)
        return rec

    def __repr__(self) -> str:  # pragma: no cover
        p = f" parent={self.parent}" if self.parent is not None else ""
        return f"<TraceEvent #{self.seq} t={self.time:.6f} {self.kind} {self.node}{p}>"
