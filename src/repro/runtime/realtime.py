"""The realtime execution engine: asyncio timers and real transports.

Where :class:`~repro.runtime.engine.SimEngine` advances a logical clock
event-by-event, :class:`RealtimeEngine` maps logical seconds onto the
wall clock of a private asyncio event loop:

* :class:`RealtimeClock` — ``wall = t0 + logical * time_scale``.  A
  ``time_scale`` below 1.0 compresses time (``0.05`` runs a 20-logical-
  second workload in about one wall second), which is how the parity
  suite keeps realtime runs cheap.  The clock drains the simulator's
  event queue (:class:`~repro.runtime.sim.EventQueue`), priority and
  all, and shows the loop one wake-up, on a wait with microsecond
  resolution, so at ``time_scale=1.0`` a modelled 100 us link hop costs
  about that on the wall and not epoll's millisecond.  While the loop
  runs, the driving thread's Linux timer slack is 1 ns instead of the
  kernel's default 50 us, which would otherwise stretch every wait;
  the previous slack is restored when ``run_until``/``run`` returns,
  and elsewhere this is a no-op.  Schedule labels/footprints are
  accepted and ignored (there is no controlled scheduling on a wall
  clock).
* transports — ``inproc`` reuses the shared
  :class:`~repro.runtime.engine.ClockTransport` (delivery is a scaled
  wall-clock timer); :class:`TcpTransport` pushes every message over a
  loopback TCP socket using libcompart-style length-prefixed frames
  (see :mod:`repro.runtime.wire`), exercising real serialization and
  kernel scheduling.  Its connection is the cluster engine's framed
  stream (``repro.runtime.cluster._Stream``): the modelled latency is a
  floor under the time the bytes take to cross, and a bad frame is
  rejected alone, by one implementation on both socket engines.

Host blocks (``⌊H⌉{V}``) run inside the strand on the loop thread, as
on the sim engine, and model their service time with ``ctx.take``; they
must not block.  Everything that touches a KV table or the telemetry —
strands, deliveries, and a client's completion callback with the next
request it submits — therefore runs on the thread that drives
``run_until``.

Determinism: events due at the same logical instant fire in the
simulator's ``(priority, seq)`` order, but the realtime engine makes
**no** ordering guarantees between timers that race within the
scheduling jitter of the host OS.
Fault policy (loss, partitions, duplication) still lives in
:class:`~repro.runtime.channels.Network` and therefore still applies —
but the *sequence* of RNG draws can differ from the sim engine, so
seeded fault runs are only reproducible under ``engine="sim"``.
"""

from __future__ import annotations

import asyncio
import functools
import select as _select
import selectors
import sys
from collections import deque
from threading import get_ident
from typing import Callable

from ..core.errors import SerdeError
from .engine import Clock, ClockTransport, ExecutionEngine, Transport
from .sim import Event, EventQueue
from .wire import encode_message, frame, read_frame

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
_NEVER = float("inf")
#: ``prctl`` options (linux/prctl.h)
_PR_SET_TIMERSLACK = 29
_PR_GET_TIMERSLACK = 30


@functools.cache
def _resolve_prctl():
    """libc's ``prctl`` on Linux, else None.  Resolved on first use:
    importing ``ctypes`` costs milliseconds ``import repro`` must not pay."""
    if not sys.platform.startswith("linux"):
        return None
    try:
        import ctypes

        prctl = ctypes.CDLL(None).prctl
    except (ImportError, OSError, AttributeError):
        return None
    prctl.argtypes = (ctypes.c_int,) + (ctypes.c_ulong,) * 4
    return prctl


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


class RealtimeClock(EventQueue, Clock):
    """Logical time riding on a private asyncio loop's wall clock.

    The clock drains :class:`~repro.runtime.sim.EventQueue` against the
    wall.  A deadline that has passed when it is scheduled is stamped
    with the current logical instant, so it fires after everything that
    was due before it.  The asyncio loop sees a *single* wake-up:
    :meth:`_on_wake` fires what is due and re-arms at the wall instant
    of the earliest live event.  The queue belongs to the thread that
    runs the loop (until it first does, the thread that built the
    clock), which alone may ``cancel``; other threads' schedules wait
    in an inbox that the next pass merges.
    """

    def __init__(self, *, time_scale: float = 1.0):
        if time_scale <= 0:
            raise ValueError(f"time_scale must be positive, got {time_scale}")
        super().__init__()
        self.time_scale = time_scale
        self.loop = asyncio.SelectorEventLoop(_Selector())
        self._time = self.loop.time
        self._prctl = _resolve_prctl()
        self._t0 = self._time()
        self._floor = 0.0  # run_until(T) guarantees now >= T afterwards
        #: the thread that queues directly; others append to the inbox
        self._owner = get_ident()
        self._inbox: deque[Event] = deque()
        #: the logical instant the running pass fires up to (None: no
        #: pass runs)
        self._instant: float | None = None
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
        # label / footprint are sim-engine schedule metadata: there is
        # no controlled scheduling on a wall clock
        ev = Event(self, time, priority, 0, callback, None, None, True)
        if self._closed or self.loop.is_closed():
            # closed by close(), or its loop closed directly (at
            # interpreter exit, a pending task's finally schedules)
            ev.callback = None
            ev.cancelled = True
        elif get_ident() == self._owner:
            self._enqueue(ev)
        else:
            self._inbox.append(ev)
            if not self._soon:
                self._wake_soon()
        return ev

    def call_after(self, delay, callback, priority=0, *, label=None, footprint=None):
        return self.call_at(self.now + max(delay, 0.0), callback, priority)

    def _enqueue(self, ev: Event) -> None:
        """Queue ``ev`` (owning thread only).  A deadline that has passed
        is stamped with the current logical instant: the instant of the
        pass in progress, which fires it as the simulator would, or else
        the wall clock's."""
        ev.seq = next(self._seq)
        wall = self._t0 + ev.time * self.time_scale
        if wall > self._time():
            self._push(ev)
            if wall < self._wake_at and not self._soon:
                self._arm(wall)
            return
        ev.time = self.now if self._instant is None else self._instant
        if ev.priority == 0:
            self._lane.append(ev)
        else:
            self._push(ev)
        if not self._soon:
            self._wake_soon()

    def pending_events(self) -> int:
        return super().pending_events() + len(self._inbox)

    # -- the single wake-up -------------------------------------------------

    def _wake_soon(self) -> None:
        self._soon = True
        if asyncio._get_running_loop() is self.loop:
            self.loop.call_soon(self._on_wake)
        else:
            # between runs, or from another thread while the loop sleeps
            self.loop.call_soon_threadsafe(self._on_wake)

    def _arm(self, wall: float) -> None:
        """Move the timed wake-up to ``wall``."""
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
        """Merge the inbox and fire what is due — at most ``_BATCH``
        callbacks, so a long cascade yields to socket readiness and
        other threads' schedules — then stop the loop for ``run_until``
        or re-arm for the earliest live event."""
        if self._closed:
            return
        inbox = self._inbox
        while inbox:
            ev = inbox.popleft()
            if ev.callback is None:  # cancelled before it got in
                self._lane_dead -= 1
            else:
                self._enqueue(ev)
        fired = 0
        settled = False
        try:
            while fired < _BATCH:
                self._instant = self.now
                for ev in self._drain(self._instant):
                    callback = ev.callback
                    ev.callback = None
                    fired += 1
                    callback()
                    if fired == _BATCH:
                        break
                else:  # the callbacks took time: more may be due by now
                    nxt = self._next_at
                    settled = nxt is None or nxt > self.now
                    if settled:
                        break
        finally:
            # from here on a scheduler arms for itself; whatever was
            # queued before this line is seen below
            self._instant = None
            self._soon = False
            stop_at = self._stop_at
            stopping = stop_at is not None and self._time() >= stop_at
            if not settled or inbox:
                # batch limit, a raise or another thread's schedule: let
                # the loop poll, then carry on
                if stopping:
                    self._overrun += fired
                if self._overrun > _SETTLE_LIMIT:
                    self.loop.stop()  # run_until reports the livelock
                else:
                    self._wake_soon()
            elif stopping:
                self.loop.stop()
            else:  # settled: nxt is the next live event's time
                wake = _NEVER if nxt is None else self._wall(nxt)
                if stop_at is not None and stop_at < wake:
                    wake = stop_at
                if wake < self._wake_at:
                    self._arm(wake)

    # -- run loop -----------------------------------------------------------

    def _spin(self, deadline: float) -> None:
        """Run the asyncio loop until the wall instant ``deadline`` has
        passed *and* nothing is due any more."""
        if self.loop.is_running():
            raise RuntimeError("realtime clock: run_until called from inside a callback")
        self._owner = get_ident()
        self._stop_at = deadline
        self._overrun = 0
        if not self._soon:
            self._wake_soon()  # the first pass arms for the deadline
        # the kernel stretches this thread's timed waits by its timer
        # slack (50 us by default) to batch wake-ups; the loop's waits
        # are the modelled delays, so it is 1 ns while the loop runs
        prctl = self._prctl
        slack = prctl(_PR_GET_TIMERSLACK, 0, 0, 0, 0) if prctl is not None else -1
        if slack > 1:
            prctl(_PR_SET_TIMERSLACK, 1, 0, 0, 0)
        try:
            self.loop.run_forever()
        finally:
            self._stop_at = None
            if slack > 1:
                prctl(_PR_SET_TIMERSLACK, slack, 0, 0, 0)
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
        self._lane.clear()
        self._inbox.clear()
        self._heap_dead = self._lane_dead = 0
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


class _StreamServer(Transport):
    """The listening side of both socket transports (this module's
    :class:`TcpTransport` and ``ClusterTransport``): ``bind`` hands each
    accepted connection to ``_on_connect``, and their streams
    (``repro.runtime.cluster._Stream``) dispatch through ``_arrive``."""

    inproc = False

    def __init__(self):
        super().__init__()
        self.port: int | None = None
        self._server: asyncio.base_events.Server | None = None

    def bind(self, network, clock) -> None:
        super().bind(network, clock)
        self._server = clock.loop.run_until_complete(
            asyncio.start_server(self._on_connect, "127.0.0.1", 0)
        )
        self.port = self._server.sockets[0].getsockname()[1]

    def _arrive(self, msg, dispatch) -> None:
        self.in_flight -= 1
        dispatch(msg)

    def close(self) -> None:
        if self._server is not None:
            self._server.close()
            self._server = None


class _Backlog(list):
    """Stands in for a client stream's writer while it connects."""

    write = list.append
    close = list.clear


class TcpTransport(_StreamServer):
    """Loopback TCP delivery with length-prefixed frames.

    ``bind`` opens a listening socket on an ephemeral port; the first
    delivery opens a single client stream to it, whose frames wait in a
    backlog until the connection is up.  ``deliver`` encodes the
    message and writes its frame at once.  The modelled (scaled)
    latency is a floor, not an addend: the stream dispatches the
    message at ``max(send + latency, the frame's arrival)`` — at once
    when the frame arrives late, else from one timer armed at the due
    instant.  ``in_flight`` covers the whole span, so quiescence
    accounting still holds while bytes sit in socket buffers.
    """

    def __init__(self):
        super().__init__()
        #: the client stream (None: not opened yet, or given up)
        self._stream = None
        #: the loop holds tasks weakly; this keeps the connect alive
        self._connecting: asyncio.Task | None = None

    def deliver(self, msg, latency, dispatch, *, label=None, footprint=None):
        # the reader re-enters through dispatch (network.dispatch), which
        # re-resolves liveness/partition state at arrival exactly as the
        # in-process path does
        self.in_flight += 1
        stream = self._stream or self._open()
        stream.send(frame(encode_message(msg)), self.clock.now + latency, dispatch)

    def bind(self, network, clock) -> None:
        super().bind(network, clock)
        # imported here, before any run: cluster.py imports this module,
        # and an import on the first delivery (a compile, with no
        # bytecode cache) held that run's loop up for milliseconds
        from .cluster import _Stream

        self._stream_type = _Stream

    def _open(self):
        stream = self._stream = self._stream_type(self, _Backlog())
        self._connecting = self.clock.loop.create_task(self._connect(stream))
        return stream

    async def _connect(self, stream) -> None:
        try:
            _, writer = await asyncio.open_connection("127.0.0.1", self.port)
        except OSError:
            if self._stream is stream:
                self._drop_stream()  # transport torn down mid-connect
            return
        if self._stream is not stream:  # the stream was given up meanwhile
            writer.close()
            return
        writer.writelines(stream.writer)
        stream.writer = writer

    def _drop_stream(self) -> None:
        """Give the client stream up: nothing queued on it will be read.
        The next delivery connects a fresh one."""
        stream, self._stream = self._stream, None
        if stream is not None:
            stream.writer.close()
            stream.release()

    async def _on_connect(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter):
        try:
            while True:
                self._stream.returned(await read_frame(reader))
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
        self._drop_stream()
        super().close()


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

    def close(self) -> None:  # both steps are idempotent
        self.transport.close()
        self.clock.close()
