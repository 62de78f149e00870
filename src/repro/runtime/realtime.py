"""The realtime execution engine: asyncio timers and real transports.

Where :class:`~repro.runtime.engine.SimEngine` advances a logical clock
event-by-event, :class:`RealtimeEngine` maps logical seconds onto the
wall clock of a private asyncio event loop:

* :class:`RealtimeClock` — ``wall = t0 + logical * time_scale``.  A
  ``time_scale`` below 1.0 compresses time (``0.05`` runs a 20-logical-
  second workload in about one wall second), which is how the parity
  suite keeps realtime runs cheap.  The clock keeps its own timer
  queue and shows the loop one wake-up, on a wait with microsecond
  resolution, so at ``time_scale=1.0`` a modelled 100 us link hop costs
  about that on the wall and not epoll's millisecond; schedule
  labels/footprints are accepted and ignored (there is no controlled
  scheduling on a wall clock).
* transports — ``inproc`` reuses the shared
  :class:`~repro.runtime.engine.ClockTransport` (delivery is a scaled
  wall-clock timer); :class:`TcpTransport` pushes every message over a
  loopback TCP socket using libcompart-style length-prefixed frames
  (see :mod:`repro.runtime.wire`), exercising real serialization and
  kernel scheduling.  On the socket the modelled latency is a floor
  under the time the bytes take to cross, not a delay added before
  they are sent.

Host blocks (``⌊H⌉{V}``) run inside the strand on the loop thread, as
on the sim engine, and model their service time with ``ctx.take``; they
must not block.  Everything that touches a KV table or the telemetry —
strands, deliveries, and a client's completion callback with the next
request it submits — therefore runs on the thread that drives
``run_until``.

Determinism: the realtime engine makes **no** ordering guarantees
between timers that race within the scheduling jitter of the host OS.
Fault policy (loss, partitions, duplication) still lives in
:class:`~repro.runtime.channels.Network` and therefore still applies —
but the *sequence* of RNG draws can differ from the sim engine, so
seeded fault runs are only reproducible under ``engine="sim"``.
"""

from __future__ import annotations

import asyncio
import heapq
import itertools
import select as _select
import selectors
import threading
from collections import deque
from typing import Callable

from ..core.errors import SerdeError
from .engine import Clock, ClockTransport, ExecutionEngine, Transport
from .wire import decode_message, encode_message, frame, read_frame

__all__ = [
    "RealtimeClock",
    "RealtimeEngine",
    "TcpTransport",
]


#: timers one wake-up fires before it yields to the asyncio loop, so
#: socket readiness and other threads' completions are polled between
#: the batches of a long zero-delay cascade
_BATCH = 512
#: events ``run_until`` lets a cascade fire past its deadline before it
#: gives the cascade up as a livelock
_SETTLE_LIMIT = 100_000
#: below this queue size compaction is pointless (as in ``sim.py``)
_COMPACT_MIN = 64
_NEVER = float("inf")


if hasattr(selectors, "EpollSelector"):

    class _Selector(selectors.EpollSelector):
        """epoll readiness behind a wait with microsecond resolution.

        ``epoll_wait`` (and ``poll``) take their timeout in whole
        milliseconds and round it up, so a timer 100 us ahead fires
        1-2 ms late.  ``select`` takes microseconds but rejects
        descriptors at or above ``FD_SETSIZE`` (1024).  An epoll
        descriptor is itself readable exactly when it has events to
        report, so the timed wait is a ``select`` on that one descriptor
        and readiness is then collected with a zero-timeout
        ``epoll_wait``: the registered descriptors have no ceiling.
        Only when the epoll descriptor *itself* is numbered past the
        ceiling (the process held over a thousand descriptors when the
        clock was built) the wait falls back to ``epoll_wait`` and its
        millisecond rounding."""

        fine = True

        def select(self, timeout=None):
            if self.fine and timeout is not None and timeout > 0:
                try:
                    if not _select.select((self.fileno(),), (), (), timeout)[0]:
                        return []
                except InterruptedError:
                    return []
                except ValueError:  # the epoll descriptor is >= FD_SETSIZE
                    self.fine = False
                    return super().select(timeout)
                timeout = 0
            return super().select(timeout)

else:  # kqueue waits in nanoseconds; poll/select keep their own rounding
    _Selector = selectors.DefaultSelector


class _Timer:
    """Timer handle with the :class:`~repro.runtime.sim.EventHandle`
    surface (``cancel`` / ``cancelled`` / ``time``).  ``callback`` is
    dropped when the timer fires or is cancelled, so whatever the
    closure pins is released then and not when the entry surfaces."""

    __slots__ = ("_clock", "time", "callback", "cancelled")

    def __init__(self, clock: "RealtimeClock", time: float, callback: Callable[[], None]):
        self._clock = clock
        self.time = time
        self.callback = callback
        self.cancelled = False

    def cancel(self) -> None:
        if self.callback is None:  # fired, or cancelled before
            return
        self.callback = None
        self.cancelled = True
        self._clock._note_cancelled()


class RealtimeClock(Clock):
    """Logical time riding on a private asyncio loop's wall clock.

    The clock owns its timers.  A timer due in the future is a
    ``(wall_due, seq, handle)`` entry in one heap; work that is already
    due when it is scheduled (``post``, ``call_after(0)``, a past
    deadline) goes to a FIFO lane stamped with the scheduling instant —
    the lane is sorted by construction, so merging its head with the
    heap's keeps one ``(wall_due, seq)`` order.  The asyncio loop sees a
    *single* wake-up: :meth:`_on_wake` fires everything that is due in
    one pass and re-arms itself for the earliest live entry.  Entries
    are plain tuples so that every queue operation is one C call: an
    embedding application's thread may schedule while the loop thread
    drains.
    Cancellation is lazy, as in :class:`~repro.runtime.sim.Simulator`:
    a cancelled entry stays queued until it surfaces or until dead
    entries outnumber live ones and the heap is compacted.  ``cancel``
    and the run loop are for the runtime thread only.
    """

    def __init__(self, *, time_scale: float = 1.0):
        if time_scale <= 0:
            raise ValueError(f"time_scale must be positive, got {time_scale}")
        self.time_scale = time_scale
        self.loop = asyncio.SelectorEventLoop(_Selector())
        self._time = self.loop.time
        self._t0 = self._time()
        self._floor = 0.0  # run_until(T) guarantees now >= T afterwards
        self._heap: list[tuple[float, int, _Timer]] = []
        self._due: deque[tuple[float, int, _Timer]] = deque()
        self._seq = itertools.count()
        self._dead = 0  # cancelled entries still in the heap or the lane
        #: a push, a pop and a lane append are single C calls and need
        #: no lock; rebuilding the heap is not, so a push from another
        #: thread waits for it
        self._compacting = threading.Lock()
        #: an immediate wake-up is queued on the loop, or one is running
        self._soon = False
        #: the armed timed wake-up and its wall instant
        self._wake: asyncio.TimerHandle | None = None
        self._wake_at = _NEVER
        #: wall instant at which the current run_until stops the loop
        self._stop_at: float | None = None
        #: callbacks that run fired past its deadline without settling
        self._overrun = 0
        self._closed = False
        #: engine hook: extra pending work (in-flight messages)
        #: consulted by the quiescence-driven :meth:`run`
        self.extra_pending: Callable[[], int] | None = None

    # -- time ---------------------------------------------------------------

    @property
    def now(self) -> float:
        return max((self._time() - self._t0) / self.time_scale, self._floor)

    def _wall(self, logical: float) -> float:
        return self._t0 + logical * self.time_scale

    def rebase(self) -> None:
        """Re-anchor logical zero to the current wall instant, so wall
        time already spent (e.g. the cluster engine's worker spawn +
        handshake burst) stops counting against the logical horizon.
        Only valid while no timers are live — moving ``t0`` would shift
        their wall deadlines — so this is a no-op otherwise."""
        if self.pending_events():
            return
        self._t0 = self._time() - self._floor * self.time_scale

    # -- timers -------------------------------------------------------------

    def call_at(self, time, callback, priority=0, *, label=None, footprint=None):
        # priority / label / footprint are sim-engine schedule metadata;
        # on a wall clock co-enabled ordering is the OS scheduler's call
        h = _Timer(self, time, callback)
        if self._closed:
            h.callback = None
            h.cancelled = True
            return h
        wall = self._t0 + time * self.time_scale
        now = self._time()
        if wall <= now:
            # already due: fires on the next pass, after everything
            # that was due before this instant
            self._due.append((now, next(self._seq), h))
            if not self._soon:
                self._wake_soon()
        else:
            entry = (wall, next(self._seq), h)
            earlier = wall < self._wake_at and not self._soon
            if asyncio._get_running_loop() is self.loop:
                heapq.heappush(self._heap, entry)
                if earlier:
                    self._arm(wall)
            else:
                with self._compacting:  # may be another thread
                    heapq.heappush(self._heap, entry)
                if earlier:
                    self._wake_soon()  # the loop thread arms after its pass
        return h

    def call_after(self, delay, callback, priority=0, *, label=None, footprint=None):
        return self.call_at(self.now + max(delay, 0.0), callback, priority,
                            label=label, footprint=footprint)

    def pending_events(self) -> int:
        """Number of not-yet-cancelled queued timers (O(1))."""
        return len(self._heap) + len(self._due) - self._dead

    def queue_size(self) -> int:
        """Raw queue size including not-yet-reclaimed cancelled entries
        (observability for the compaction behaviour)."""
        return len(self._heap) + len(self._due)

    def _note_cancelled(self) -> None:
        self._dead += 1
        heap = self._heap
        if self._dead * 2 > len(heap) and len(heap) > _COMPACT_MIN:
            # in place: the drain loop holds an alias
            with self._compacting:
                before = len(heap)
                heap[:] = [e for e in heap if e[2].callback is not None]
                heapq.heapify(heap)
            self._dead -= before - len(heap)

    # -- the single wake-up -------------------------------------------------

    def _wake_soon(self) -> None:
        self._soon = True
        if asyncio._get_running_loop() is self.loop:
            self.loop.call_soon(self._on_wake)
        else:
            # between runs, or from another thread while the loop sleeps
            self.loop.call_soon_threadsafe(self._on_wake)

    def _arm(self, wall: float) -> None:
        """Move the timed wake-up to ``wall`` (loop thread only)."""
        if self._wake is not None:
            self._wake.cancel()
        self._wake_at = wall
        self._wake = self.loop.call_at(wall, self._on_timer)

    def _on_timer(self) -> None:
        self._wake = None
        self._wake_at = _NEVER
        if not self._soon:
            self._soon = True
            self._on_wake()

    def _on_wake(self) -> None:
        """Fire what is due — at most ``_BATCH`` callbacks, so a long
        cascade yields to socket readiness and other threads' posts —
        then stop the loop for ``run_until`` or re-arm for the earliest
        live entry."""
        if self._closed:
            return
        heap, due, time = self._heap, self._due, self._time
        pop = heapq.heappop
        now = time()
        fired = 0
        try:
            while fired < _BATCH:
                if due and not (heap and heap[0] < due[0]):
                    h = due.popleft()[2]
                elif heap and heap[0][0] <= now:
                    h = pop(heap)[2]
                elif heap and heap[0][0] <= (now := time()):
                    continue  # the callbacks took time: it is due by now
                else:
                    break
                callback = h.callback
                if callback is None:
                    self._dead -= 1
                    continue
                h.callback = None
                fired += 1
                callback()
        finally:
            # from here on a scheduler arms for itself; whatever was
            # queued before this line is seen below
            self._soon = False
            stop_at = self._stop_at
            stopping = stop_at is not None and now >= stop_at
            if due or (heap and heap[0][0] <= now):
                # batch limit: let the loop poll, then carry on
                if stopping:
                    self._overrun += fired
                if self._overrun > _SETTLE_LIMIT:
                    self.loop.stop()  # run_until reports the livelock
                else:
                    self._wake_soon()
            elif stopping:
                self.loop.stop()
            else:
                wall = heap[0][0] if heap else _NEVER
                if stop_at is not None and stop_at < wall:
                    wall = stop_at
                if wall < self._wake_at:
                    self._arm(wall)

    # -- run loop -----------------------------------------------------------

    def _spin(self, deadline: float) -> None:
        """Run the asyncio loop until the wall instant ``deadline`` has
        passed *and* nothing is due any more."""
        if self.loop.is_running():
            raise RuntimeError("realtime clock: run_until called from inside a callback")
        self._stop_at = deadline
        self._overrun = 0
        if not self._soon:
            self._wake_soon()  # the first pass arms for the deadline
        try:
            self.loop.run_forever()
        finally:
            self._stop_at = None
        if self._overrun > _SETTLE_LIMIT:
            raise RuntimeError("realtime clock: zero-delay event cascade did not settle")

    def run_until(self, time: float) -> None:
        self._spin(self._wall(time))
        self._floor = max(self._floor, time)

    def run(self, max_events: int = 10_000_000) -> None:
        """Run until quiescent: no live timers, no in-flight messages.
        Architectures with self-re-arming poll loops (e.g. failover
        reactivation probes) never quiesce — drive those with
        :meth:`run_until`."""
        idle = 0
        step = 0.0
        while True:
            self._spin(self._time() + step)
            pending = self.pending_events()
            if self.extra_pending is not None:
                pending += self.extra_pending()
            if pending == 0:
                # one extra settle round catches work posted from other
                # threads between the check and the sleep
                idle += 1
                if idle >= 2:
                    return
            else:
                idle = 0
            step = 0.002

    def close(self) -> None:
        if self.loop.is_closed():
            return
        # queued events are discarded, not fired: the engine has shut
        # its transport down before it closes the clock
        self._closed = True
        self._heap.clear()
        self._due.clear()
        self._dead = 0
        if self._wake is not None:
            self._wake.cancel()
        # cancel in-flight transport tasks and let everything settle
        # before the loop closes (destroying pending tasks warns)
        tasks = asyncio.all_tasks(self.loop)
        for t in tasks:
            t.cancel()
        if tasks:
            self.loop.run_until_complete(
                asyncio.gather(*tasks, return_exceptions=True)
            )
        self.loop.run_until_complete(asyncio.sleep(0))
        self.loop.close()


class ThreadPoolHostExecutor:
    """A name without a use.  Host blocks run inside the strand on every
    engine, so nothing builds this class or calls :meth:`invoke`.  The
    benchmark tracer (``bench/tracer.py``) still wraps
    ``ThreadPoolHostExecutor.invoke`` by name at install time, and the
    class stays until that boundary is dropped there (docs/RUNTIME.md,
    "Frozen names")."""

    def invoke(self, fn, ctx, done) -> None:
        raise NotImplementedError("host blocks run inside the strand")


class TcpTransport(Transport):
    """Loopback TCP delivery with length-prefixed frames.

    ``bind`` opens a listening socket on an ephemeral port; the first
    delivery connects a single client stream to it.  ``deliver`` encodes
    the message and writes its frame at once.  The modelled (scaled)
    latency is a floor, not an addend: the message is dispatched at
    ``max(send + latency, the frame's arrival)`` — from the reader when
    the frame arrives late, else from one timer armed at the due
    instant.  The stream is FIFO, so it keeps one ``(due, dispatch)``
    entry per frame written and the reader pops one per frame read.
    ``in_flight`` covers the whole span, so quiescence accounting still
    holds while bytes sit in socket buffers.
    """

    inproc = False

    def __init__(self):
        super().__init__()
        self.port: int | None = None
        self._server: asyncio.base_events.Server | None = None
        self._writer: asyncio.StreamWriter | None = None
        #: frames written while the client stream connects (None: idle)
        self._backlog: list[bytes] | None = None
        #: the loop holds tasks weakly; this keeps the connect alive
        self._connecting: asyncio.Task | None = None
        #: ``(due, dispatch)`` per frame on the stream not yet read
        self._outstanding: deque[tuple[float, Callable]] = deque()

    def bind(self, network, clock) -> None:
        super().bind(network, clock)
        loop = clock.loop
        self._server = loop.run_until_complete(
            asyncio.start_server(self._serve, "127.0.0.1", 0)
        )
        self.port = self._server.sockets[0].getsockname()[1]

    def deliver(self, msg, latency, dispatch, *, label=None, footprint=None):
        # the reader re-enters through dispatch (network.dispatch), which
        # re-resolves liveness/partition state at arrival exactly as the
        # in-process path does
        self.in_flight += 1
        data = frame(encode_message(msg))
        self._outstanding.append((self.clock.now + latency, dispatch))
        if self._writer is not None:
            self._writer.write(data)
        elif self._backlog is not None:
            self._backlog.append(data)
        else:
            self._backlog = [data]
            self._connecting = self.clock.loop.create_task(self._connect(self._backlog))

    async def _connect(self, backlog: list[bytes]) -> None:
        try:
            _, writer = await asyncio.open_connection("127.0.0.1", self.port)
        except (ConnectionError, OSError):
            if self._backlog is backlog:
                self._drop_stream()  # transport torn down mid-connect
            return
        if self._backlog is not backlog:  # the stream was given up meanwhile
            writer.close()
            return
        writer.writelines(backlog)
        self._backlog = None
        self._writer = writer

    def _drop_stream(self) -> None:
        """Give the client stream up: nothing queued on it will be read.
        The next delivery connects a fresh one."""
        if self._writer is not None:
            self._writer.close()
            self._writer = None
        self._backlog = None
        self.in_flight -= len(self._outstanding)
        self._outstanding.clear()

    def _arrive(self, msg, dispatch) -> None:
        self.in_flight -= 1
        dispatch(msg)

    async def _serve(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter):
        outstanding = self._outstanding
        try:
            while True:
                body = await read_frame(reader)
                due, dispatch = outstanding.popleft()
                try:
                    msg = decode_message(body)
                except SerdeError:
                    # the length prefix held, so the stream is still in
                    # step: reject this body alone
                    self.in_flight -= 1
                    self.network.count("wire_rejected")
                    continue
                if self.clock.now >= due:
                    self._arrive(msg, dispatch)
                else:
                    self.clock.call_at(due, lambda m=msg, d=dispatch: self._arrive(m, d))
        except (asyncio.IncompleteReadError, ConnectionResetError):
            pass  # peer went away: connection drained or reset
        except SerdeError:
            # a corrupt length prefix poisons everything after it on the
            # connection: drop the stream, and let sender-side
            # retransmission re-establish traffic over a new one
            self.network.count("wire_rejected")
            self._drop_stream()
        except asyncio.CancelledError:
            pass  # engine close() cancels the reader mid-await
        finally:
            writer.close()

    def close(self) -> None:
        if self._writer is not None:
            self._writer.close()
            self._writer = None
        if self._server is not None:
            self._server.close()
            self._server = None


class RealtimeEngine(ExecutionEngine):
    """asyncio wall-clock backend with real transports.

    ``transport`` selects ``"inproc"`` (scaled timers, no wire format)
    or ``"tcp"`` (loopback sockets + serde frames).  ``time_scale``
    compresses logical time onto the wall clock.
    """

    supports_controlled_scheduling = False

    def __init__(self, *, time_scale: float = 1.0, transport: str = "inproc"):
        if transport not in ("inproc", "tcp"):
            raise ValueError(f"transport must be 'inproc' or 'tcp', got {transport!r}")
        clock = RealtimeClock(time_scale=time_scale)
        tr: Transport = TcpTransport() if transport == "tcp" else ClockTransport()
        super().__init__(clock, tr)
        self.name = "realtime-tcp" if transport == "tcp" else "realtime"
        clock.extra_pending = lambda: tr.in_flight
        self._closed = False

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        self.transport.close()
        self.clock.close()
