"""Bounded event sinks and trace exporters.

The runtime emits into a :class:`RingBufferSink` — a bounded deque of
flat tuples, so an unbounded soak cannot grow memory without limit (the
pre-telemetry ``System._trace`` list grew forever) and a full ring
costs about a hundred bytes per event.  Exporters turn the retained
events into:

* **JSONL** — one sorted-keys JSON object per line; deterministic
  under a fixed seed, byte-identical across runs (the chaos-soak
  determinism test asserts exactly this).
* **Chrome trace-event format** — a ``{"traceEvents": [...]}`` JSON
  document loadable in ``chrome://tracing`` / Perfetto.  Junction
  executions (``sched``/``unsched``) become duration slices on a
  per-junction track; spans become complete ``X`` slices; everything
  else becomes an instant event.  Causal parents are preserved in
  ``args.parent``.
"""

from __future__ import annotations

import json
from collections import deque
from typing import Iterable, Iterator

from .events import TraceEvent


class RingBufferSink:
    """Bounded in-memory event sink (drops the oldest on overflow).

    One retained event is one flat tuple ``(time, kind, node, parent,
    k1, ..., kn, v1, ..., vn)`` — the attributes inline, keys then
    values, no per-event object or dict.  The sequence number is not
    stored: events are numbered in arrival order from 1, so the event
    at ring index ``i`` has ``seq == total - len + i + 1``.  Iteration
    materialises a fresh :class:`TraceEvent` per row; those are views,
    and changing one does not change the ring."""

    def __init__(self, capacity: int = 65536):
        self.capacity = capacity
        self._buf: deque[tuple] = deque(maxlen=capacity)
        self.total = 0  # events ever appended (dropped = total - len)

    def append_row(self, row: tuple) -> int:
        """Retain one event given in storage layout; returns its seq."""
        self._buf.append(row)
        self.total += 1
        return self.total

    def append(self, event: TraceEvent) -> None:
        """Retain ``event``, renumbered in arrival order (its own
        ``seq`` is not kept)."""
        self.append_row((event.time, event.kind, event.node, event.parent,
                         *event.attrs.keys(), *event.attrs.values()))

    @property
    def dropped(self) -> int:
        return self.total - len(self._buf)

    def clear(self) -> None:
        self._buf.clear()

    def __len__(self) -> int:
        return len(self._buf)

    def __iter__(self) -> Iterator[TraceEvent]:
        seq = self.total - len(self._buf)
        for row in self._buf:
            seq += 1
            mid = (len(row) + 4) // 2  # keys before, values after
            yield TraceEvent(seq, row[0], row[1], row[2], row[3],
                             dict(zip(row[4:mid], row[mid:])))


# ---------------------------------------------------------------------------
# JSONL
# ---------------------------------------------------------------------------


def to_jsonl(
    events: Iterable[TraceEvent],
    *,
    system: str | None = None,
    engine: str | None = None,
) -> str:
    """One JSON object per event, keys sorted, non-JSON values via
    ``str`` — deterministic for seeded runs.  ``system`` labels every
    line when several systems are merged into one export; ``engine``
    tags each line with the execution engine that produced it."""
    lines = []
    for e in events:
        rec = e.record()
        if system is not None:
            rec["system"] = system
        if engine is not None:
            rec["engine"] = engine
        lines.append(json.dumps(rec, sort_keys=True, default=str))
    return "\n".join(lines) + ("\n" if lines else "")


# ---------------------------------------------------------------------------
# Chrome trace-event format
# ---------------------------------------------------------------------------

#: kinds rendered as duration begin/end pairs on the junction's track
_BEGIN, _END = "sched", "unsched"


def to_chrome(
    groups: Iterable[tuple[str, Iterable[TraceEvent]]],
    *,
    engine: str | None = None,
) -> dict:
    """Build a Chrome trace-event document from ``(label, events)``
    groups — one traced process per system.  ``engine`` is recorded in
    each process's metadata args."""
    trace: list[dict] = []
    for pid, (label, events) in enumerate(groups):
        proc_args = {"name": label}
        if engine is not None:
            proc_args["engine"] = engine
        trace.append(
            {"name": "process_name", "ph": "M", "pid": pid, "tid": 0,
             "args": proc_args}
        )
        tids: dict[str, int] = {}
        for e in events:
            tid = tids.get(e.node)
            if tid is None:
                tid = tids[e.node] = len(tids) + 1
                trace.append(
                    {"name": "thread_name", "ph": "M", "pid": pid, "tid": tid,
                     "args": {"name": e.node}}
                )
            args = {"seq": e.seq}
            if e.parent is not None:
                args["parent"] = e.parent
            for k, v in e.attrs.items():
                args[k] = v if isinstance(v, (int, float, str, bool, type(None))) else str(v)
            ts = e.time * 1e6  # Chrome wants microseconds
            if e.kind == _BEGIN:
                trace.append({"name": "execution", "ph": "B", "ts": ts,
                              "pid": pid, "tid": tid, "args": args})
            elif e.kind == _END:
                trace.append({"name": "execution", "ph": "E", "ts": ts,
                              "pid": pid, "tid": tid, "args": args})
            elif "dur" in e.attrs:
                args = dict(args)
                dur = args.pop("dur")
                trace.append({"name": e.kind, "ph": "X", "ts": ts,
                              "dur": float(dur) * 1e6, "pid": pid, "tid": tid,
                              "args": args})
            else:
                trace.append({"name": e.kind, "ph": "i", "ts": ts, "s": "t",
                              "pid": pid, "tid": tid, "args": args})
    return {"traceEvents": trace, "displayTimeUnit": "ms"}


def chrome_json(
    groups: Iterable[tuple[str, Iterable[TraceEvent]]],
    *,
    engine: str | None = None,
) -> str:
    return json.dumps(to_chrome(groups, engine=engine), sort_keys=True)
