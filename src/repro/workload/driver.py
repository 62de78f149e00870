"""Driving a materialized workload through a shipped architecture.

An *adapter* wraps one architecture behind a uniform submit surface
(`submit(event, on_done(ok))`), so the same schedule drives the broker,
the sharded store, or the fail-over store interchangeably.  Adapters
are not written per architecture: every
:data:`~repro.arch.catalog.CATALOG` row that speaks a request protocol
is one (the row builds the service, the protocol turns an event into a
request).  The driver
builds the service under ``default_engine`` — the spec decides sim,
realtime or cluster — and runs the schedule either open-loop (arrivals
land at their generated times via ``clock.call_after``) or closed-loop
(a fixed window of outstanding ops, each completion admitting the
next).

The resulting :class:`WorkloadReport` carries the throughput and
latency shape (ops/sec, p50/p99) plus three digests:

* ``schedule_digest`` — the generated schedule (engine-independent);
* ``completion_digest`` — per-op outcomes and simulated latencies;
* ``telemetry_digest`` — the system's exported JSONL trace.

On the sim engine all three are deterministic functions of
(spec, arch): two runs of ``repro workload`` print identical digests.
"""

from __future__ import annotations

import functools
import hashlib
import time
from collections import deque
from dataclasses import dataclass, field, fields
from typing import Callable

from ..arch.catalog import CATALOG
from ..brokerlite import BrokerRequest, partition_for
from ..redislite import Command
from .generators import Event, materialize, schedule_digest
from .spec import WorkloadSpec

#: grace period (logical seconds) for in-flight ops after the last arrival
DRAIN_GRACE = 30.0


@dataclass
class Adapter:
    """One architecture behind the uniform submit surface."""

    name: str
    service: object
    system: object
    submit: Callable[[Event, Callable[[bool], None]], None]


def _value_for(event: Event, size: int) -> bytes:
    raw = event.key.encode()
    return (raw * (size // len(raw) + 1))[:size]


def _redis_request(svc, event: Event, size: int):
    if event.op == "write":
        return Command("SET", event.key, _value_for(event, size))
    return Command("GET", event.key)


def _broker_request(svc, event: Event, size: int):
    if event.op == "write":
        return BrokerRequest(
            op="PUB", partition=0, key=event.key, value=_value_for(event, size)
        )
    return BrokerRequest(
        op="FETCH", partition=partition_for(event.key, svc.n_partitions),
        offset=0, max_records=8,
    )


#: protocol → (service, event, value size) → the request to submit
_REQUESTS = {"redis": _redis_request, "broker": _broker_request}


def _adapter(name: str, spec: WorkloadSpec) -> Adapter:
    """Build the catalog row's workload deployment and put it behind
    the submit surface of the protocol it speaks."""
    row = CATALOG[name]
    svc = row.build(seed=spec.seed, **row.workload)
    request = _REQUESTS[row.protocol]

    def submit(event: Event, on_done: Callable[[bool], None]) -> None:
        svc.submit(
            request(svc, event, spec.value_size), lambda reply: on_done(bool(reply.ok))
        )

    return Adapter(name, svc, svc.system, submit)


#: name → adapter builder, one per catalog row that speaks a protocol
ADAPTERS: dict[str, Callable[[WorkloadSpec], Adapter]] = {
    name: functools.partial(_adapter, name)
    for name, row in CATALOG.items()
    if row.protocol is not None
}


@dataclass
class WorkloadReport:
    arch: str
    engine: str
    spec: WorkloadSpec
    ops_submitted: int
    ops_completed: int
    ops_failed: int
    ops_dropped: int
    logical_seconds: float
    wall_seconds: float
    ops_per_sec: float
    p50_ms: float
    p99_ms: float
    schedule_digest: str
    completion_digest: str
    telemetry_digest: str
    latencies: list = field(default_factory=list, repr=False)

    @property
    def digest(self) -> str:
        """One combined digest for run-to-run comparisons."""
        h = hashlib.sha256()
        for d in (self.schedule_digest, self.completion_digest, self.telemetry_digest):
            h.update(d.encode())
        return h.hexdigest()

    def as_dict(self) -> dict:
        out = {f.name: getattr(self, f.name) for f in fields(self) if f.repr}
        out["spec"] = self.spec.as_dict()
        out["digest"] = self.digest
        return out


def _percentile(sorted_vals: list[float], q: float) -> float:
    if not sorted_vals:
        return 0.0
    idx = min(len(sorted_vals) - 1, int(q * len(sorted_vals)))
    return sorted_vals[idx]


def drive(adapter: Adapter, spec: WorkloadSpec, events: list[Event]) -> list[tuple]:
    """Run the schedule against a built adapter; returns the completion
    records ``(index, ok, start, end)`` in completion order.  Ops still
    in flight at the extended horizon are dropped (absent from the
    result)."""
    system = adapter.system
    base = system.now
    completions: list[tuple] = []
    pending: dict[int, float] = {}
    queue = deque(events)

    def submit_one(event: Event) -> None:
        pending[event.index] = system.now

        def done(ok: bool, idx=event.index) -> None:
            start = pending.pop(idx)
            completions.append((idx, bool(ok), start - base, system.now - base))
            if spec.mode == "closed" and queue:
                submit_one(queue.popleft())

        adapter.submit(event, done)

    if spec.mode == "open":
        while queue:
            ev = queue.popleft()
            system.clock.call_after(ev.t, lambda ev=ev: submit_one(ev))
    else:
        for _ in range(min(spec.concurrency, len(queue))):
            submit_one(queue.popleft())

    horizon = base + spec.duration + DRAIN_GRACE
    system.run_until(base + spec.duration)
    while (pending or queue) and system.now < horizon:
        system.run_until(min(horizon, system.now + 1.0))
    return completions


def run_workload(
    spec: WorkloadSpec,
    arch: str = "broker_sharded",
    engine="sim",
) -> WorkloadReport:
    """Materialize the spec, build ``arch`` under ``engine`` and drive
    the schedule; returns the :class:`WorkloadReport`."""
    from ..runtime.engine import EngineSpec, default_engine

    try:
        builder = ADAPTERS[arch]
    except KeyError:
        raise KeyError(
            f"no workload adapter for {arch!r}; have {sorted(ADAPTERS)}"
        ) from None
    espec = EngineSpec.of(engine) if isinstance(engine, str) else engine
    events = materialize(spec)

    wall0 = time.perf_counter()
    with default_engine(espec):
        adapter = builder(spec)
    system = adapter.system
    base = system.now
    completions = drive(adapter, spec, events)
    wall = time.perf_counter() - wall0

    ok_lat = sorted(end - start for _, ok, start, end in completions if ok)
    completed = sum(1 for _, ok, _, _ in completions if ok)
    failed = len(completions) - completed
    dropped = len(events) - len(completions)
    elapsed = max(system.now - base, 1e-9)

    ch = hashlib.sha256()
    for rec in completions:
        ch.update(repr(rec).encode())
        ch.update(b"\n")
    th = hashlib.sha256(system.telemetry.export("jsonl").encode())

    report = WorkloadReport(
        arch=arch,
        engine=espec.name,
        spec=spec,
        ops_submitted=len(events),
        ops_completed=completed,
        ops_failed=failed,
        ops_dropped=dropped,
        logical_seconds=elapsed,
        wall_seconds=wall,
        ops_per_sec=completed / elapsed,
        p50_ms=_percentile(ok_lat, 0.50) * 1e3,
        p99_ms=_percentile(ok_lat, 0.99) * 1e3,
        schedule_digest=schedule_digest(events),
        completion_digest=ch.hexdigest(),
        telemetry_digest=th.hexdigest(),
        latencies=ok_lat,
    )
    system.shutdown()
    return report
