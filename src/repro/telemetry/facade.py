"""The :class:`Telemetry` facade — the one observability surface.

A :class:`~repro.runtime.system.System` owns exactly one ``Telemetry``;
everything the pre-telemetry ad-hoc API scattered (the removed
``System.trace`` / ``on_trace`` / ``trace_net_stats`` / ``trace_log``)
goes through it:

* ``emit(kind, node, parent=..., **attrs)`` — structured trace events
  with causal parent links, into a bounded ring buffer;
* ``span(kind, node)`` — a context manager measuring a simulated-time
  duration (rendered as a complete slice by the Chrome exporter);
* ``counter`` / ``gauge`` / ``histogram`` — the metrics registry;
* ``export(fmt)`` — JSONL or Chrome trace-event output.

A disabled facade (``Telemetry(enabled=False)`` or
``System(..., telemetry=False)``) keeps the metrics registry (plain
integer counters, as cheap as the pre-telemetry ``Network.stats``) but
turns every ``emit`` into an immediate return — the near-zero-overhead
path benchmarks use for clean timing runs.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Callable

from .metrics import DEFAULT_TIME_BUCKETS, Counter, Gauge, Histogram, MetricsRegistry
from .sinks import RingBufferSink, chrome_json, to_jsonl

#: upper bound on remembered msg_id -> send-event links; FIFO-evicted
#: (message ids are monotonic, old ids stop being referenced once their
#: retransmission budget is exhausted)
_MSG_LINK_WINDOW = 65536


class _Span:
    __slots__ = ("_tel", "kind", "node", "parent", "attrs", "t0", "event")

    def __init__(self, tel: "Telemetry", kind: str, node: str, parent, attrs: dict):
        self._tel = tel
        self.kind = kind
        self.node = node
        self.parent = parent
        self.attrs = attrs
        self.t0 = 0.0
        self.event: int | None = None

    def __enter__(self) -> "_Span":
        self.t0 = self._tel.now
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        attrs = dict(self.attrs)
        attrs["dur"] = self._tel.now - self.t0
        if exc is not None:
            attrs["error"] = repr(exc)
        self.event = self._tel.emit(
            self.kind, self.node, parent=self.parent, t=self.t0, **attrs
        )


class Telemetry:
    """Structured tracing + metrics for one running system."""

    def __init__(
        self,
        clock=None,
        *,
        enabled: bool = True,
        capacity: int = 65536,
        registry: MetricsRegistry | None = None,
    ):
        #: anything with a ``now`` attribute (a Simulator); settable
        #: after construction so a Telemetry can be built first
        self.clock = clock
        self.enabled = enabled
        #: name of the execution engine driving the owning system
        #: (``"sim"`` / ``"realtime"``); stamped by ``System.__init__``
        #: and carried into every exported trace line
        self.engine: str | None = None
        self.events = RingBufferSink(capacity)
        self.metrics = registry if registry is not None else MetricsRegistry()
        self._hooks: list[Callable[[dict], None]] = []
        self._msg_events: dict[int, int] = {}

    # -- time ---------------------------------------------------------------

    @property
    def now(self) -> float:
        return self.clock.now if self.clock is not None else 0.0

    # -- events -------------------------------------------------------------

    def emit(
        self,
        kind: str,
        node: str,
        parent: int | None = None,
        t: float | None = None,
        **attrs,
    ) -> int | None:
        """Record an event; returns its sequence number (the handle
        child events pass as ``parent``), or ``None`` when disabled."""
        if not self.enabled:
            return None
        time = self.now if t is None else t
        seq = self.events.append_row(
            (time, kind, node, parent, *attrs.keys(), *attrs.values()))
        if self._hooks:
            rec = {"time": time, "kind": kind, "node": node, **attrs}
            for hook in self._hooks:
                hook(rec)
        return seq

    def span(self, kind: str, node: str, parent: int | None = None, **attrs) -> _Span:
        """Measure a simulated-time duration::

            with telemetry.span("checkpoint", "b1::j"):
                ...
        """
        return _Span(self, kind, node, parent, attrs)

    def on_emit(self, hook: Callable[[dict], None]) -> None:
        """Register a live subscriber; called with each event's legacy
        dict view as it is emitted."""
        self._hooks.append(hook)

    # -- causal message links ----------------------------------------------

    def bind_message(self, msg_id: int, event: int | None) -> None:
        """Link an outbound message id to its ``send`` event, so the
        transport/delivery/receiver sides can parent their events to
        it."""
        if not self.enabled or event is None or msg_id == 0:
            return
        self._msg_events[msg_id] = event
        if len(self._msg_events) > _MSG_LINK_WINDOW:
            # FIFO eviction: dict preserves insertion order
            self._msg_events.pop(next(iter(self._msg_events)))

    def message_event(self, msg_id: int) -> int | None:
        return self._msg_events.get(msg_id)

    # -- metrics ------------------------------------------------------------

    def counter(self, name: str, **labels) -> Counter:
        return self.metrics.counter(name, **labels)

    def gauge(self, name: str, **labels) -> Gauge:
        return self.metrics.gauge(name, **labels)

    def histogram(
        self, name: str, buckets: tuple[float, ...] = DEFAULT_TIME_BUCKETS, **labels
    ) -> Histogram:
        return self.metrics.histogram(name, buckets, **labels)

    # -- export -------------------------------------------------------------

    def export(self, fmt: str = "jsonl", path=None, label: str = "system") -> str:
        """Serialize retained events (``fmt``: ``jsonl`` | ``chrome``);
        writes to ``path`` when given, always returns the text."""
        if fmt == "jsonl":
            out = to_jsonl(self.events, engine=self.engine)
        elif fmt == "chrome":
            out = chrome_json([(label, self.events)], engine=self.engine)
        else:
            raise ValueError(f"unknown export format {fmt!r} (expected jsonl|chrome)")
        if path is not None:
            with open(path, "w") as f:
                f.write(out)
        return out


# ---------------------------------------------------------------------------
# Capture: collect the telemetry of systems created inside a scope
# (used by the ``repro trace`` CLI to trace unmodified example scripts)
# ---------------------------------------------------------------------------

_capture_stack: list[list[Telemetry]] = []


def note_system(telemetry: Telemetry) -> None:
    """Called by ``System.__init__``; registers the system's telemetry
    with the innermost active capture scope (no-op otherwise)."""
    if _capture_stack:
        telemetry.enabled = True
        _capture_stack[-1].append(telemetry)


@contextmanager
def capture_systems():
    """Collect the :class:`Telemetry` of every ``System`` constructed
    inside the ``with`` block (forcing them enabled)::

        with capture_systems() as captured:
            runpy.run_path("examples/redis_sharding.py", ...)
        for tel in captured: ...
    """
    captured: list[Telemetry] = []
    _capture_stack.append(captured)
    try:
        yield captured
    finally:
        _capture_stack.pop()


__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Telemetry",
    "capture_systems",
    "note_system",
]
