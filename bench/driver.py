"""Submit/complete loops over the public surface (``submit`` callbacks +
``system.run_until``).

Unlike ``repro.workload.driver.drive`` these loops stop at the last
completion and keep one record per op, so throughput comes from
completion records — not from ops over the whole logical duration —
and there is no 30-logical-second drain grace.

A *submit* function is ``submit(op, done)`` with ``done(ok: bool)``
called exactly once; the workload's adapter owns reply checking.  A
record is ``(index, ok, start, end)``; on the wall-clock loops both
instants are ``time.perf_counter`` seconds and ``start`` is the submit
instant (closed loop) or the instant the op was *due* (open loop).

Every loop also cuts its section into **slices** of a fixed amount of
work and stamps wall and CPU time at each boundary; the end-to-end
metrics are taken from the slices (see :func:`robust`).  Between
slices it samples the host's speed with :func:`calibrate`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from .tracer import BACKGROUND

#: wall seconds a loop waits for stragglers before calling them dropped
DROP_GRACE = 10.0
#: completions per slice on the wall-clock loops
SLICE_OPS = 32
#: the quantile that stands for a run: its fast decile.  The host only
#: ever slows a slice down (another tenant on the core, a frequency
#: dip), for tens of milliseconds to seconds at a time, so the fast
#: tail of many short slices is the program's own speed; means and
#: medians over a whole run move by 10 % and more between identical runs.
FAST = 0.10
#: seconds :func:`calibrate` takes on the sizing host at full speed;
#: CPU-bound times are reported as if the host ran at this speed
CALIBRATION_REFERENCE = 300e-6


class _Cell:
    __slots__ = ("total", "items")

    def __init__(self):
        self.total = 0
        self.items = []

    def step(self, i: int) -> int:
        self.total += i & 3
        return self.total


def _kernel(n: int = 1500) -> float:
    d: dict = {}
    cell = _Cell()
    acc = 0
    t0 = time.perf_counter()
    for i in range(n):
        d[i & 63] = acc
        acc += d.get((i * 7) & 63, 0) ^ cell.step(i)
        if not i & 255:
            cell.items = []
        cell.items.append(i)
    return time.perf_counter() - t0


def calibrate() -> float:
    """Wall seconds of a fixed pure-Python loop (dict, attribute, method
    call and list traffic — the mix the runtime is made of).  Sampled
    between slices, it tells how fast the host is *right now*: between
    identical runs the fast decile of the workloads moves by up to
    20 %, and that of this loop moves with it.  The loop runs twice and
    the second pass is timed, so that the caches the workload has just
    filled with its own data do not count against the host."""
    _kernel()
    return _kernel()


def host_speed(samples: list) -> float:
    """How much slower than the sizing host this run's host was
    (1.0 = as fast; the fast decile of the run's calibration samples
    over the reference)."""
    return percentile(samples, FAST) / CALIBRATION_REFERENCE if samples else 1.0


@dataclass
class Slice:
    """A fixed amount of work and what it cost."""

    ops: int
    wall: float  # seconds
    cpu: float  # process CPU seconds
    latencies_ms: list
    kind: str = ""  # slices are only compared with their own kind


@dataclass
class Section:
    """What one driven section observed."""

    records: list = field(default_factory=list)  # (index, ok, start, end)
    slices: list = field(default_factory=list)
    issued: int = 0
    started: float = 0.0  # wall instant the section began
    ended: float = 0.0  # wall instant of the last completion
    lateness: list = field(default_factory=list)  # open loop: submit - due
    pauses: list = field(default_factory=list)  # (start, end) of `between` calls
    calibration: list = field(default_factory=list)  # calibrate() samples

    @property
    def wall(self) -> float:
        return self.ended - self.started

    @property
    def dropped(self) -> int:
        return self.issued - len(self.records)

    @property
    def failed(self) -> int:
        return sum(1 for r in self.records if not r[1]) + self.dropped


def percentile(values, q: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def robust(slices: list) -> dict:
    """Per-op wall and CPU seconds, p50 and p90 latency of a run: for
    each, the ``FAST`` quantile across slices of the slice's own value.
    Slices of different kinds (the architectures of build-matrix) are
    summarized per kind and combined by their share of the ops; the
    latency percentiles are then taken across the kinds."""
    kinds: dict[str, list] = {}
    for s in slices:
        kinds.setdefault(s.kind, []).append(s)
    total_ops = sum(s.ops for s in slices)
    wall = cpu = 0.0
    p50s, p90s = [], []
    for group in kinds.values():
        share = sum(s.ops for s in group) / total_ops
        wall += share * percentile([s.wall / s.ops for s in group], FAST)
        cpu += share * percentile([s.cpu / s.ops for s in group], FAST)
        p50s.append(percentile([percentile(s.latencies_ms, 0.5) for s in group], FAST))
        p90s.append(percentile([percentile(s.latencies_ms, 0.9) for s in group], FAST))
    return {"wall_per_op": wall, "cpu_per_op": cpu,
            "p50_ms": percentile(p50s, 0.5), "p90_ms": percentile(p90s, 0.9)}


class _Slicer:
    """Cuts a section into slices of ``SLICE_OPS`` completions."""

    def __init__(self, sec: Section):
        self.sec = sec
        self.mark = (sec.started, time.process_time())
        self.latencies: list = []

    def completed(self, start: float, end: float) -> None:
        self.latencies.append((end - start) * 1e3)
        if len(self.latencies) == SLICE_OPS:
            wall0, cpu0 = self.mark
            self.mark = (end, time.process_time())
            self.sec.slices.append(Slice(SLICE_OPS, end - wall0, self.mark[1] - cpu0,
                                         self.latencies))
            self.latencies = []


def closed_loop(system, submit, ops, clients: int, *, seconds: float | None = None,
                count: int | None = None, tracer=None, step: float = 0.05) -> Section:
    """``clients`` callers, each submitting its next op when the
    previous one completes, until ``seconds`` of wall time or ``count``
    ops; then the outstanding ops drain.  With a tracer (one client)
    the outstanding op's index is the tracer's current op."""
    sec = Section(started=time.perf_counter())
    slicer = _Slicer(sec)
    deadline = sec.started + seconds if seconds is not None else None
    outstanding = 0

    def more() -> bool:
        if count is not None and sec.issued >= count:
            return False
        return deadline is None or time.perf_counter() < deadline

    def issue() -> None:
        nonlocal outstanding
        op = next(ops)
        index = sec.issued
        sec.issued += 1
        outstanding += 1
        if tracer is not None:
            tracer.op = index
        start = time.perf_counter()

        def done(ok: bool) -> None:
            nonlocal outstanding
            sec.ended = time.perf_counter()
            sec.records.append((index, ok, start, sec.ended))
            if ok:
                slicer.completed(start, sec.ended)
            outstanding -= 1
            if tracer is not None:
                tracer.op = BACKGROUND
            if more():
                issue()

        submit(op, done)

    for _ in range(clients):
        if more():
            issue()
    give_up = sec.started + (seconds if seconds is not None else 60.0) + DROP_GRACE
    while outstanding and time.perf_counter() < give_up:
        system.run_until(system.now + step)
        sec.calibration.append(calibrate())
    return sec


def open_loop(system, submit, ops, arrivals, seconds: float, *,
              every: float | None = None, between=None, lead: float = 1.0,
              tracer=None) -> Section:
    """Ops arrive on a schedule regardless of completions.  ``arrivals``
    yields offsets (seconds from the section start, increasing); each
    op is timed from the instant it was *due*, and how late the
    generator actually submitted it is kept in ``lateness``.

    Every ``every`` seconds the loop calls ``between()`` from outside
    any engine callback (a live reconfiguration).  It is called with
    no op outstanding, and ops that come due while it runs are held
    and submitted when it returns — still timed from their due
    instant, so the pause shows as latency, not as lost ops."""
    clock = system.clock
    sec = Section(started=time.perf_counter())
    slicer = _Slicer(sec)
    logical0 = clock.now
    outstanding = 0
    held: list | None = None
    next_offset = next(arrivals)

    def fire(op, index, due) -> None:
        nonlocal outstanding
        if held is not None:
            held.append((op, index, due))
            return
        sec.lateness.append(time.perf_counter() - due)
        outstanding += 1
        if tracer is not None:
            tracer.op = index

        def done(ok: bool) -> None:
            nonlocal outstanding
            sec.ended = time.perf_counter()
            sec.records.append((index, ok, due, sec.ended))
            if ok:
                slicer.completed(due, sec.ended)
            outstanding -= 1
            if tracer is not None and not outstanding:
                tracer.op = BACKGROUND

        submit(op, done)

    def schedule_until(horizon: float) -> None:
        nonlocal next_offset
        while next_offset < min(horizon, seconds):
            op = next(ops)
            index = sec.issued
            sec.issued += 1
            clock.call_at(logical0 + next_offset,
                          lambda op=op, index=index, due=sec.started + next_offset:
                          fire(op, index, due))
            next_offset = next(arrivals)

    def settle(limit: float, everything: bool) -> None:
        give_up = time.perf_counter() + limit
        while time.perf_counter() < give_up and (
                outstanding or (everything and len(sec.lateness) < sec.issued)):
            system.run_until(system.now + 0.001)

    tick = every if every is not None else seconds
    at = tick
    while at < seconds + tick:
        schedule_until(at + lead)
        system.run_until(logical0 + min(at, seconds))
        sec.calibration.append(calibrate())
        if between is not None and at < seconds:
            settle(1.0, everything=False)
            schedule_until(at + lead)
            held = []
            t0 = time.perf_counter()
            between()
            sec.pauses.append((t0, time.perf_counter()))
            late, held = held, None
            for item in late:
                fire(*item)
        at += tick
    settle(DROP_GRACE, everything=True)
    return sec


def sim_open_loop(system, submit, events, tick: float = 1.0) -> Section:
    """An open-loop epoch on the sim engine: events are scheduled at
    their simulated arrival times, one simulated ``tick`` at a time, the
    host runs flat out, and the epoch ends when the last op completes.
    Records carry *simulated* start/end; each tick is one slice (its
    completions, wall and CPU).  A slice's latencies are *wall* ms from
    an op's submit to its reply — what the host needed to carry the op
    through, other ops' events that fell in between included."""
    clock = system.clock
    sec = Section(started=time.perf_counter(), issued=len(events))
    base = clock.now
    outstanding = 0
    latencies: list = []

    def fire(ev) -> None:
        nonlocal outstanding
        outstanding += 1
        start = clock.now
        wall0 = time.perf_counter()

        def done(ok: bool) -> None:
            nonlocal outstanding
            latencies.append((time.perf_counter() - wall0) * 1e3)
            sec.records.append((ev.index, ok, start, clock.now))
            outstanding -= 1

        submit(ev, done)

    def cut(mark: tuple) -> tuple:
        """Close the slice begun at ``mark`` (wall, cpu) if anything
        completed in it, sample the host, and begin the next one."""
        nonlocal latencies
        sec.ended = time.perf_counter()
        cpu = time.process_time()
        if not latencies:
            return mark
        sec.slices.append(Slice(len(latencies), sec.ended - mark[0], cpu - mark[1], latencies))
        latencies = []
        sec.calibration.append(calibrate())
        return time.perf_counter(), time.process_time()

    mark = (sec.started, time.process_time())
    i = 0
    edge = tick
    while i < len(events):
        while i < len(events) and events[i].t < edge:
            clock.call_at(base + events[i].t, lambda ev=events[i]: fire(ev))
            i += 1
        system.run_until(base + edge)
        mark = cut(mark)
        edge += tick
    stop_at = clock.now + 60.0  # simulated seconds; far beyond any op timeout
    while outstanding and clock.now < stop_at:
        system.run_until(clock.now + 0.01)
    cut(mark)
    return sec
