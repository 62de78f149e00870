"""Deterministic discrete-event simulation core, and the one event queue.

The C-Saw runtime in this reproduction executes on simulated time: all
latencies (network hops, host service times, timeouts) are scheduled on
a single event queue.  Determinism comes from (time, priority, seq)
ordering with a monotonically increasing sequence number breaking ties
in insertion order.

This replaces the paper's libcompart + real OS IPC: experiments become
reproducible and laptop-scale while preserving the asynchronous
message-passing semantics the DSL is defined against.

:class:`EventQueue` is that queue, and both clocks drain it:
:class:`Simulator` in simulated time, and
:class:`~repro.runtime.realtime.RealtimeClock` against the wall clock,
so the two order same-instant events alike, priority included.
Cancellation is *lazy*: :meth:`Event.cancel` drops the callback and
leaves the entry queued until it surfaces.  A workload that arms and
cancels many timers (the reliable-delivery layer cancels a
retransmission timer per acknowledged send) would otherwise grow the
heap with dead entries faster than they drain — far-future timeouts sit
near the bottom of the heap for their whole nominal duration.  The
queue therefore counts the dead entries of its heap and *compacts* it
(filters + re-heapifies, O(n)) once they outnumber the live ones,
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
_INF = float("inf")


class Event:
    """A scheduled callback, and the handle that cancels it
    (``__slots__``: millions are allocated per run).  ``callback`` is
    dropped when the event fires or is cancelled, so whatever the
    closure pins is released then and not when the entry surfaces; a
    queued event without a callback is dead."""

    __slots__ = (
        "time", "priority", "seq", "callback", "label", "footprint",
        "cancelled", "lane", "_queue",
    )

    def __init__(self, queue, time, priority, seq, callback, label, footprint, lane):
        self._queue = queue
        self.time = time
        self.priority = priority
        self.seq = seq
        self.callback = callback
        #: stable identity for schedule recording/replay (None = anonymous)
        self.label = label
        #: state touched by the callback (repro.semantics.commute.Footprint);
        #: None = unknown, treated as interfering with everything
        self.footprint = footprint
        self.cancelled = False
        #: queued outside the heap (the zero-delay lane, or the realtime
        #: clock's inbox), where a dead entry never triggers a compaction
        self.lane = lane

    def cancel(self) -> None:
        if self.callback is None:  # fired, or cancelled before
            return
        self.callback = None
        self.cancelled = True
        q = self._queue
        if self.lane:
            q._lane_dead += 1
        else:
            q._heap_dead += 1
            if q._heap_dead * 2 > len(q._heap) > _COMPACT_MIN:
                q._compact()


class ScheduleController:
    """Decides which of a co-enabled event set fires first.

    ``choose`` receives the simulated time and the co-enabled events in
    their default ``(priority, seq)`` order and returns the index of
    the event to run; the others stay queued and re-surface at the next
    step.  The base class always picks index 0, which reproduces the
    uncontrolled order exactly.
    """

    def choose(self, time: float, events: list[Event]) -> int:
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


class EventQueue:
    """Events in ``(time, priority, seq)`` order, in logical time.

    The heap holds ``(time, priority, seq, event)`` tuples, so a sift
    compares tuples in C (``seq`` is unique: it never reaches the
    event).  Beside it a FIFO **zero-delay lane** holds events of
    priority 0 scheduled at or before the current instant — junction
    attempts and same-instant wake-ups dominate event traffic, and an
    append is far cheaper than a sift.  The lane is sorted by
    construction (nondecreasing time, increasing seq), so
    :meth:`_drain`, the one merge of its head with the heap's, keeps
    the total order.  The clock that extends this class decides what
    "the current instant" is and fires what :meth:`_drain` hands it.
    """

    def __init__(self):
        self._heap: list[tuple[float, int, int, Event]] = []
        self._lane: deque[Event] = deque()
        self._seq = itertools.count()
        #: cancelled events still sitting in the heap
        self._heap_dead = 0
        #: cancelled events still sitting outside it (see Event.lane)
        self._lane_dead = 0
        #: time of the first live event a finished drain left queued
        self._next_at: float | None = None

    def _drain(self, limit: float):
        """Yield every live event due at or before ``limit``, dequeued,
        in ``(time, priority, seq)`` order, dropping dead heads on the
        way.  Events scheduled meanwhile are merged as they come due.
        Run to its end, it leaves the time of the next live event (None:
        the queue is empty) in ``_next_at``."""
        pop = heapq.heappop
        heap, lane = self._heap, self._lane
        while True:
            if heap and heap[0][3].callback is None:
                pop(heap)
                self._heap_dead -= 1
            elif lane and lane[0].callback is None:
                lane.popleft()
                self._lane_dead -= 1
            elif lane:
                ev = lane[0]
                # a heap event may still order first at the same instant
                # (e.g. a higher-priority pump): it does iff its key is
                # below the lane head's (lane events have priority 0); the
                # heap head is usually a far-future timeout, so the time
                # test settles it
                if heap:
                    entry = heap[0]
                    ht, et = entry[0], ev.time
                    if ht < et or (ht == et and entry[1:3] < (0, ev.seq)):
                        if ht > limit:
                            self._next_at = ht
                            return
                        yield pop(heap)[3]
                        continue
                if ev.time > limit:
                    self._next_at = ev.time
                    return
                lane.popleft()
                yield ev
            elif heap:
                ht = heap[0][0]
                if ht > limit:
                    self._next_at = ht
                    return
                yield pop(heap)[3]
            else:
                self._next_at = None
                return

    def _push(self, ev: Event) -> None:
        """Queue ``ev`` on the heap."""
        ev.lane = False
        heapq.heappush(self._heap, (ev.time, ev.priority, ev.seq, ev))

    def _compact(self) -> None:
        """Drop cancelled heap entries and re-heapify — O(live events).
        In place: a drain in progress holds an alias of the list."""
        heap = self._heap
        before = len(heap)
        heap[:] = [entry for entry in heap if entry[3].callback is not None]
        heapq.heapify(heap)
        self._heap_dead -= before - len(heap)

    def peek_time(self) -> float | None:
        """Time of the next pending (non-cancelled) event, or None."""
        next(self._drain(-_INF), None)  # fires nothing, drops dead heads
        return self._next_at

    def pending_events(self) -> int:
        """Number of not-yet-cancelled queued events (O(1))."""
        return len(self._heap) - self._heap_dead + len(self._lane) - self._lane_dead

    def queue_size(self) -> int:
        """Raw queue size (heap + zero-delay lane) including
        not-yet-reclaimed cancelled entries (observability for the
        compaction behaviour)."""
        return len(self._heap) + len(self._lane)


class Simulator(EventQueue):
    """A minimal, deterministic discrete-event simulator.

    Callbacks scheduled at the same instant run in (priority, insertion)
    order.  Lower priority numbers run first; the default priority is 0.
    """

    def __init__(self):
        super().__init__()
        self._now = 0.0
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
    ) -> Event:
        """Schedule ``callback`` at absolute simulated ``time``."""
        if time < self._now:
            raise ValueError(f"cannot schedule in the past ({time} < {self._now})")
        ev = Event(self, time, priority, next(self._seq), callback, label, footprint, True)
        if time == self._now and priority == 0:
            self._lane.append(ev)
        else:
            self._push(ev)
        return ev

    def call_after(
        self,
        delay: float,
        callback: Callable[[], None],
        priority: int = 0,
        *,
        label: str | None = None,
        footprint: object = None,
    ) -> Event:
        """Schedule ``callback`` after ``delay`` simulated time units."""
        if delay < 0:
            raise ValueError("negative delay")
        return self.call_at(self._now + delay, callback, priority, label=label, footprint=footprint)

    def post(
        self,
        callback: Callable[[], None],
        *,
        label: str | None = None,
        footprint: object = None,
    ) -> None:
        """Fire-and-forget ``call_after(0, ...)``."""
        self._lane.append(Event(self, self._now, 0, next(self._seq), callback, label, footprint, True))

    def step(self) -> bool:
        """Run the next event.  Returns False if the queue is empty."""
        return self._step(_INF)

    def _step(self, limit: float) -> bool:
        """Run the next event due at or before ``limit``; False if there
        is none.  Under a controller it is chosen from the co-enabled set
        (all live events sharing the minimal ``(time, priority)``), and
        the rest are re-queued untouched.  Priority bounds the set
        because priorities encode runtime-*internal* ordering constraints
        (strand pumps run before deliveries), not logical concurrency.
        The set is gathered through the lane/heap merge, so controlled
        runs use the lane too."""
        group: list[Event] = []  # in (priority, seq) order
        for ev in self._drain(limit):
            if group and (ev.time != group[0].time or ev.priority != group[0].priority):
                self._push(ev)  # the next set: back where it was
                break
            group.append(ev)
            if self.controller is None:
                break
        if not group:
            return False
        idx = self.controller.choose(group[0].time, group) if len(group) > 1 else 0
        ev = group.pop(idx)
        for other in group:  # unchosen events keep their seq → stable order
            self._push(other)
        self._now = ev.time
        callback = ev.callback
        ev.callback = None
        callback()
        return True

    def run_until(self, time: float) -> None:
        """Run events up to and including simulated ``time``.

        The uncontrolled path drains the queue in one loop rather than
        going through :meth:`step` per event — at millions of events the
        per-event call and re-peek overhead dominates the loop.
        """
        if self.controller is not None:
            while self._step(time):
                pass
        else:
            for ev in self._drain(time):
                self._now = ev.time
                callback = ev.callback
                ev.callback = None
                callback()
        self._now = max(self._now, time)

    def run(self, max_events: int = 10_000_000) -> None:
        """Run until the event queue drains (or ``max_events``); only
        executed (non-cancelled) events count against ``max_events``."""
        count = 0
        while self._step(_INF):
            count += 1
            if count >= max_events:
                raise RuntimeError(
                    f"simulation exceeded {max_events} events (livelock?)"
                )
