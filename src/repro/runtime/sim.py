"""Deterministic discrete-event simulation core.

The C-Saw runtime in this reproduction executes on simulated time: all
latencies (network hops, host service times, timeouts) are scheduled on
a single event queue.  Determinism comes from (time, priority, seq)
ordering with a monotonically increasing sequence number breaking ties
in insertion order.

This replaces the paper's libcompart + real OS IPC: experiments become
reproducible and laptop-scale while preserving the asynchronous
message-passing semantics the DSL is defined against.

Cancellation is *lazy*: :meth:`EventHandle.cancel` only marks the heap
entry, which is discarded when it surfaces.  A workload that arms and
cancels many timers (the reliable-delivery layer cancels a
retransmission timer per acknowledged send) would otherwise grow the
heap with dead entries faster than they drain — far-future timeouts sit
near the bottom of the heap for their whole nominal duration.  The
simulator therefore counts live cancelled entries and *compacts* the
heap (filters + re-heapifies, O(n)) once they outnumber the real ones,
bounding memory at ~2x the live event count while keeping ``cancel``
O(1).

Controlled-scheduler mode
-------------------------

Insertion order is only *one* linearization of the architecture's
concurrency: events scheduled for the same ``(time, priority)`` are
logically co-enabled (junction attempts after a start, message
deliveries over equal-latency links, zero-delay wake-ups).  Setting
:attr:`Simulator.controller` exposes each such co-enabled set as a
*choice point*: the controller picks which event fires first, and the
rest stay queued.  The schedule-exploration harness
(:mod:`repro.explore`) drives this to enumerate interleavings; with no
controller the fast path is untouched and ``(priority, seq)`` order
applies, so normal runs stay byte-identical to previous releases.

Scheduling sites may attach a ``label`` (a stable human-readable
identity used by schedule recording/replay) and a ``footprint``
(a :class:`repro.semantics.commute.Footprint` declaring the state the
callback touches, used by partial-order reduction).  Only a controller
reads them, so the per-message sites (deliveries, retransmission
timers) build them only while one is attached.
"""

from __future__ import annotations

import contextlib
import heapq
import itertools
from collections import deque
from typing import Callable

#: below this queue size compaction is pointless (the dead entries are
#: about to surface anyway); keeps tiny simulations on the fast path
_COMPACT_MIN = 64


class _Event:
    """A scheduled callback (``__slots__``: millions are allocated per
    run).  The heap holds it as ``(time, priority, seq, event)`` so a
    sift compares tuples in C; ``seq`` is unique, so the comparison
    never reaches the event.  The zero-delay lane holds events bare."""

    __slots__ = (
        "time", "priority", "seq", "callback",
        "cancelled", "in_heap", "in_due", "label", "footprint",
    )

    def __init__(
        self,
        time: float,
        priority: int,
        seq: int,
        callback: Callable[[], None],
        label: str | None = None,
        footprint: object = None,
    ):
        self.time = time
        self.priority = priority
        self.seq = seq
        self.callback = callback
        self.cancelled = False
        self.in_heap = True
        #: parked in the zero-delay FIFO lane instead of the heap
        self.in_due = False
        #: stable identity for schedule recording/replay (None = anonymous)
        self.label = label
        #: state touched by the callback (repro.semantics.commute.Footprint);
        #: None = unknown, treated as interfering with everything
        self.footprint = footprint


class ScheduleController:
    """Decides which of a co-enabled event set fires first.

    ``choose`` receives the simulated time and the co-enabled events in
    their default ``(priority, seq)`` order and returns the index of
    the event to run; the others stay queued and re-surface at the next
    step.  The base class always picks index 0, which reproduces the
    uncontrolled order exactly.
    """

    def choose(self, time: float, events: list[_Event]) -> int:
        return 0


#: factory consulted by ``Simulator.__init__`` — lets the exploration
#: harness attach a controller to simulators it cannot reach directly
#: (architecture wrappers build and *start* their System inside
#: ``__init__``, before a caller could set ``sim.controller``)
_controller_factory: Callable[[], ScheduleController] | None = None


@contextlib.contextmanager
def use_controller(factory: Callable[[], ScheduleController]):
    """Attach ``factory()``'s controller to every :class:`Simulator`
    constructed inside the ``with`` block."""
    global _controller_factory
    prev = _controller_factory
    _controller_factory = factory
    try:
        yield
    finally:
        _controller_factory = prev


class EventHandle:
    """Handle returned by :meth:`Simulator.call_at` for cancellation."""

    __slots__ = ("_event", "_sim")

    def __init__(self, event: _Event, sim: "Simulator"):
        self._event = event
        self._sim = sim

    def cancel(self) -> None:
        ev = self._event
        if not ev.cancelled:
            ev.cancelled = True
            # an already-executed event (cancel raced the firing) is no
            # longer in the heap and must not skew the dead-entry count
            if ev.in_heap:
                self._sim._note_cancelled()
            elif ev.in_due:
                self._sim._due_cancelled += 1

    @property
    def cancelled(self) -> bool:
        return self._event.cancelled

    @property
    def time(self) -> float:
        return self._event.time


class Simulator:
    """A minimal, deterministic discrete-event simulator.

    Callbacks scheduled at the same instant run in (priority, insertion)
    order.  Lower priority numbers run first; the default priority is 0.
    """

    def __init__(self):
        self._queue: list[tuple[float, int, int, _Event]] = []
        #: zero-delay FIFO lane: events scheduled at the *current* time
        #: with default priority skip the heap entirely.  Strand pumps,
        #: junction attempts and same-instant wake-ups dominate event
        #: traffic, and a deque append/popleft is far cheaper than a
        #: heap sift; total (time, priority, seq) order is preserved by
        #: merging the lane head with the heap head when draining.
        self._due: deque[_Event] = deque()
        self._seq = itertools.count()
        self._now = 0.0
        self._running = False
        #: cancelled events still sitting in the heap
        self._cancelled = 0
        #: cancelled events still sitting in the FIFO lane
        self._due_cancelled = 0
        #: optional ScheduleController; when set, co-enabled events
        #: (same time and priority) become explicit choice points
        self.controller: ScheduleController | None = (
            _controller_factory() if _controller_factory is not None else None
        )

    @property
    def now(self) -> float:
        """Current simulated time."""
        return self._now

    def call_at(
        self,
        time: float,
        callback: Callable[[], None],
        priority: int = 0,
        *,
        label: str | None = None,
        footprint: object = None,
    ) -> EventHandle:
        """Schedule ``callback`` at absolute simulated ``time``."""
        if time < self._now:
            raise ValueError(f"cannot schedule in the past ({time} < {self._now})")
        seq = next(self._seq)
        ev = _Event(time, priority, seq, callback, label, footprint)
        if time == self._now and priority == 0 and self.controller is None:
            # zero-delay fast lane: same total order (the lane is sorted
            # by construction — appends carry nondecreasing time and
            # increasing seq at the default priority), no heap sift
            ev.in_heap = False
            ev.in_due = True
            self._due.append(ev)
        else:
            heapq.heappush(self._queue, (time, priority, seq, ev))
        return EventHandle(ev, self)

    def call_after(
        self,
        delay: float,
        callback: Callable[[], None],
        priority: int = 0,
        *,
        label: str | None = None,
        footprint: object = None,
    ) -> EventHandle:
        """Schedule ``callback`` after ``delay`` simulated time units."""
        if delay < 0:
            raise ValueError("negative delay")
        if delay == 0.0 and priority == 0 and self.controller is None:
            # inline the zero-delay lane (call_after(0, ...) is the
            # hottest scheduling call: pumps, attempts, wake-ups)
            ev = _Event(self._now, 0, next(self._seq), callback, label, footprint)
            ev.in_heap = False
            ev.in_due = True
            self._due.append(ev)
            return EventHandle(ev, self)
        return self.call_at(self._now + delay, callback, priority, label=label, footprint=footprint)

    def post(
        self,
        callback: Callable[[], None],
        *,
        label: str | None = None,
        footprint: object = None,
    ) -> None:
        """Fire-and-forget ``call_after(0, ...)`` — no EventHandle."""
        if self.controller is None:
            ev = _Event(self._now, 0, next(self._seq), callback, label, footprint)
            ev.in_heap = False
            ev.in_due = True
            self._due.append(ev)
        else:
            seq = next(self._seq)
            ev = _Event(self._now, 0, seq, callback, label, footprint)
            heapq.heappush(self._queue, (self._now, 0, seq, ev))

    # -- lazy-cancellation bookkeeping --------------------------------------

    def _note_cancelled(self) -> None:
        self._cancelled += 1
        if self._cancelled * 2 > len(self._queue) and len(self._queue) > _COMPACT_MIN:
            self._compact()

    def _compact(self) -> None:
        """Drop cancelled entries and re-heapify — O(live events)."""
        live = []
        for entry in self._queue:
            if entry[3].cancelled:
                entry[3].in_heap = False
            else:
                live.append(entry)
        self._queue = live
        heapq.heapify(self._queue)
        self._cancelled = 0

    def _flush_due(self) -> None:
        """Migrate the FIFO lane into the heap (seq order is preserved,
        so the total order is unchanged).  Only needed when a controller
        is attached after zero-delay events were parked in the lane."""
        while self._due:
            ev = self._due.popleft()
            ev.in_due = False
            if ev.cancelled:
                self._due_cancelled -= 1
                continue
            ev.in_heap = True
            heapq.heappush(self._queue, (ev.time, ev.priority, ev.seq, ev))

    def _next_event(self) -> _Event | None:
        """Pop the globally-next live event from the lane/heap merge."""
        due, queue = self._due, self._queue
        while due and due[0].cancelled:
            due.popleft().in_due = False
            self._due_cancelled -= 1
        while queue and queue[0][3].cancelled:
            heapq.heappop(queue)[3].in_heap = False
            self._cancelled -= 1
        if due:
            ev = due[0]
            if queue and queue[0] < (ev.time, 0, ev.seq):
                ev = heapq.heappop(queue)[3]
                ev.in_heap = False
            else:
                due.popleft()
                ev.in_due = False
            return ev
        if queue:
            ev = heapq.heappop(queue)[3]
            ev.in_heap = False
            return ev
        return None

    def peek_time(self) -> float | None:
        """Time of the next pending (non-cancelled) event, or None."""
        due, queue = self._due, self._queue
        while due and due[0].cancelled:
            due.popleft().in_due = False
            self._due_cancelled -= 1
        while queue and queue[0][3].cancelled:
            heapq.heappop(queue)[3].in_heap = False
            self._cancelled -= 1
        if due and queue:
            return min(due[0].time, queue[0][0])
        if due:
            return due[0].time
        return queue[0][0] if queue else None

    def step(self) -> bool:
        """Run the next event.  Returns False if the queue is empty."""
        if self.controller is not None:
            return self._step_controlled()
        ev = self._next_event()
        if ev is None:
            return False
        self._now = ev.time
        ev.callback()
        return True

    def _step_controlled(self) -> bool:
        """One step in controlled mode: gather the co-enabled set (all
        live events sharing the minimal ``(time, priority)``), let the
        controller pick one, and re-queue the rest untouched.  Priority
        bounds the set because priorities encode runtime-*internal*
        ordering constraints (strand pumps run before deliveries), not
        logical concurrency."""
        self._flush_due()  # controller attached mid-run: merge the lane
        if self.peek_time() is None:  # also drains cancelled heads
            return False
        queue = self._queue
        t0, p0 = queue[0][:2]
        group = []  # heap entries, in (priority, seq) order
        while queue:
            head = queue[0]
            if head[3].cancelled:
                heapq.heappop(queue)[3].in_heap = False
                self._cancelled -= 1
                continue
            if head[0] != t0 or head[1] != p0:
                break
            group.append(heapq.heappop(queue))
        idx = self.controller.choose(t0, [e[3] for e in group]) if len(group) > 1 else 0
        ev = group.pop(idx)[3]
        ev.in_heap = False
        for entry in group:  # unchosen events keep their seq → stable order
            heapq.heappush(queue, entry)
        self._now = t0
        ev.callback()
        return True

    def run_until(self, time: float) -> None:
        """Run events up to and including simulated ``time``.

        The uncontrolled path batch-drains the heap inline rather than
        going through :meth:`step` per event — at millions of events the
        per-event call and re-peek overhead dominates the loop.
        """
        if self.controller is not None:
            while True:
                nxt = self.peek_time()
                if nxt is None or nxt > time:
                    break
                self._step_controlled()
            self._now = max(self._now, time)
            return
        pop = heapq.heappop
        due = self._due
        while True:
            # re-read the attribute: a callback (or cancellation burst)
            # may have run _compact(), which replaces the list object
            queue = self._queue
            if due:
                ev = due[0]
                if ev.cancelled:
                    due.popleft().in_due = False
                    self._due_cancelled -= 1
                    continue
                # a heap event may still order first at the same instant
                # (e.g. a higher-priority pump)
                if queue:
                    entry = queue[0]
                    head = entry[3]
                    if head.cancelled:
                        pop(queue)
                        head.in_heap = False
                        self._cancelled -= 1
                        continue
                    # the heap head orders first iff its key is below the
                    # lane head's (lane events have priority 0); the head
                    # is usually a far-future timeout, so the time test
                    # settles it
                    ht = entry[0]
                    et = ev.time
                    if ht < et or (ht == et and entry[1:3] < (0, ev.seq)):
                        if ht > time:
                            break
                        pop(queue)
                        head.in_heap = False
                        self._now = ht
                        head.callback()
                        continue
                if ev.time > time:
                    break
                due.popleft()
                ev.in_due = False
                self._now = ev.time
                ev.callback()
                continue
            if not queue:
                break
            entry = queue[0]
            ev = entry[3]
            if ev.cancelled:
                pop(queue)
                ev.in_heap = False
                self._cancelled -= 1
                continue
            if entry[0] > time:
                break
            pop(queue)
            ev.in_heap = False
            self._now = entry[0]
            ev.callback()
        self._now = max(self._now, time)

    def run(self, max_events: int = 10_000_000) -> None:
        """Run until the event queue drains (or ``max_events``).

        Batch-drained like :meth:`run_until`; only executed (non-
        cancelled) events count against ``max_events``.
        """
        count = 0
        if self.controller is not None:
            while self._step_controlled():
                count += 1
                if count >= max_events:
                    raise RuntimeError(
                        f"simulation exceeded {max_events} events (livelock?)"
                    )
            return
        while True:
            ev = self._next_event()
            if ev is None:
                return
            self._now = ev.time
            ev.callback()
            count += 1
            if count >= max_events:
                raise RuntimeError(
                    f"simulation exceeded {max_events} events (livelock?)"
                )

    def pending_events(self) -> int:
        """Number of not-yet-cancelled queued events (O(1))."""
        return (
            len(self._queue) - self._cancelled
            + len(self._due) - self._due_cancelled
        )

    def queue_size(self) -> int:
        """Raw queue size (heap + zero-delay lane) including
        not-yet-reclaimed cancelled entries (observability for the
        compaction behaviour)."""
        return len(self._queue) + len(self._due)
