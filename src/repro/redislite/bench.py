"""A ``redis-benchmark``-style closed-loop driver.

``redis-benchmark`` runs N concurrent client connections, each issuing
the next request as soon as the previous completes.  The
:class:`BenchDriver` reproduces that on the simulator against any
:class:`RequestPort` — the small protocol every architecture in this
repository implements (baseline direct service, DSL-architected
sharding/caching/checkpointing fronts, and the non-DSL control
implementations).

Results collect completion timestamps and latencies, yielding the
throughput-over-time series (Figs. 23a/23c), cumulative per-class
request counts (Figs. 23b/26c) and latency CDFs (Figs. 25c/26b).

Each driver also feeds a :class:`~repro.telemetry.MetricsRegistry`:
per-op ``bench_latency_seconds`` histograms and ``bench_completions``
counters.  ``mean_latency`` is answered from the histogram's exact
sum/count (percentiles and CDFs still use the raw completion log —
figure assertions need unquantized latencies).  Pass ``metrics=`` to
aggregate several runs into one registry (e.g. the system's own, via
``system.telemetry.metrics``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Protocol

from ..runtime.sim import Simulator
from ..telemetry import MetricsRegistry
from .server import Command, RedisServer, Reply
from .workload import WorkloadGenerator


class RequestPort(Protocol):
    """Anything that can asynchronously serve commands."""

    def submit(self, cmd: Command, on_done: Callable[[Reply], None]) -> None:
        """Submit ``cmd``; invoke ``on_done(reply)`` when served."""


class DirectPort:
    """Baseline: clients talk straight to one single-threaded server.

    Models the network round-trip plus serial service: the server works
    off a queue; a request's latency is queueing + service + RTT.  A
    ``stall_until`` knob lets experiments freeze the server (checkpoint
    stalls, crash recovery) without an architecture in front.
    """

    def __init__(self, sim: Simulator, server: RedisServer, rtt: float = 200e-6):
        self.sim = sim
        self.server = server
        self.rtt = rtt
        self._busy_until = 0.0
        self._stalled_until = 0.0

    def stall(self, duration: float) -> None:
        """Freeze service for ``duration`` starting now."""
        self._stalled_until = max(self._stalled_until, self.sim.now + duration)
        self._busy_until = max(self._busy_until, self._stalled_until)

    def submit(self, cmd: Command, on_done: Callable[[Reply], None]) -> None:
        arrival = self.sim.now + self.rtt / 2
        start = max(arrival, self._busy_until, self._stalled_until)

        def serve():
            reply, cost = self.server.execute(cmd, now=self.sim.now)
            done_at = self.sim.now + cost + self.rtt / 2
            self.sim.call_at(done_at, lambda: on_done(reply))

        self._busy_until = start
        # reserve service time now so later submits queue behind us
        _, est_cost = _estimate_cost(self.server, cmd)
        self._busy_until = start + est_cost
        self.sim.call_at(start, serve)


def _estimate_cost(server: RedisServer, cmd: Command) -> tuple[None, float]:
    c = server.cost
    return None, c.per_command + cmd.payload_size() * c.per_byte


@dataclass
class BenchResults:
    """Completion log + latency metrics of one benchmark run."""

    completions: list[tuple[float, float, Command, Reply]] = field(default_factory=list)
    started_at: float = 0.0
    finished_at: float = 0.0
    metrics: MetricsRegistry = field(default_factory=MetricsRegistry)

    def record(self, t: float, latency: float, cmd: Command, reply: Reply) -> None:
        self.completions.append((t, latency, cmd, reply))
        self.metrics.histogram("bench_latency_seconds", op=cmd.op).observe(latency)
        self.metrics.counter("bench_completions", op=cmd.op).inc()

    @property
    def count(self) -> int:
        return len(self.completions)

    def latencies(self, op: str | None = None) -> list[float]:
        return [
            lat
            for (_t, lat, cmd, _r) in self.completions
            if op is None or cmd.op == op
        ]

    def qps_series(self, dt: float = 1.0) -> list[tuple[float, float]]:
        """(bucket_time, completions/s) series."""
        if not self.completions:
            return []
        t0 = self.started_at
        buckets: dict[int, int] = {}
        for (t, _lat, _c, _r) in self.completions:
            buckets[int((t - t0) / dt)] = buckets.get(int((t - t0) / dt), 0) + 1
        top = max(buckets)
        return [(i * dt, buckets.get(i, 0) / dt) for i in range(top + 1)]

    def cumulative_by(self, classify: Callable[[Command], object], dt: float = 1.0):
        """Cumulative completion counts per class over time — the shape
        plotted by the sharding figures."""
        if not self.completions:
            return {}
        t0 = self.started_at
        end = max(t for (t, *_rest) in self.completions)
        classes = sorted({classify(c) for (_t, _l, c, _r) in self.completions}, key=str)
        times = [t0 + i * dt for i in range(int((end - t0) / dt) + 2)]
        series = {cls: [0] * len(times) for cls in classes}
        sorted_completions = sorted(self.completions, key=lambda r: r[0])
        counts = {cls: 0 for cls in classes}
        idx = 0
        for ti, t in enumerate(times):
            while idx < len(sorted_completions) and sorted_completions[idx][0] <= t:
                counts[classify(sorted_completions[idx][2])] += 1
                idx += 1
            for cls in classes:
                series[cls][ti] = counts[cls]
        return {"times": [t - t0 for t in times], "series": series}

    def cdf(self, op: str | None = None) -> list[tuple[float, float]]:
        """(latency, cumulative probability) points."""
        lats = sorted(self.latencies(op))
        n = len(lats)
        if n == 0:
            return []
        return [(lat, (i + 1) / n) for i, lat in enumerate(lats)]

    def percentile(self, q: float, op: str | None = None) -> float:
        lats = sorted(self.latencies(op))
        if not lats:
            return float("nan")
        i = min(len(lats) - 1, max(0, int(q * len(lats))))
        return lats[i]

    def mean_latency(self, op: str | None = None) -> float:
        """Mean latency, answered from the registry histograms (their
        sum/count are exact, so this equals the raw-log mean)."""
        total = 0.0
        count = 0
        for _name, labels, h in self.metrics.collect("bench_latency_seconds"):
            if op is None or labels.get("op") == op:
                total += h.sum
                count += h.count
        return total / count if count else float("nan")


class BenchDriver:
    """Closed-loop driver: ``clients`` concurrent synthetic clients."""

    def __init__(
        self,
        sim: Simulator,
        port: RequestPort,
        workload: WorkloadGenerator,
        *,
        clients: int = 8,
        think_time: float = 0.0,
        metrics: MetricsRegistry | None = None,
    ):
        self.sim = sim
        self.port = port
        self.workload = workload
        self.clients = clients
        self.think_time = think_time
        # a fresh registry per driver by default, so repeated runs don't
        # aggregate; pass the system's (system.telemetry.metrics) to
        # land bench metrics next to the runtime's
        self.results = BenchResults(
            metrics=metrics if metrics is not None else MetricsRegistry()
        )
        self._deadline = 0.0
        self._inflight = 0

    def preload(self, server_execute: Callable[[Command], None]) -> None:
        """Warm the dataset synchronously (not measured)."""
        for cmd in self.workload.preload_commands():
            server_execute(cmd)

    def run(self, duration: float) -> BenchResults:
        """Drive the workload for ``duration`` simulated seconds."""
        self.results.started_at = self.sim.now
        self._deadline = self.sim.now + duration
        for _ in range(self.clients):
            self._issue()
        self.sim.run_until(self._deadline)
        self.results.finished_at = self.sim.now
        return self.results

    def _issue(self) -> None:
        if self.sim.now >= self._deadline:
            return
        cmd = self.workload.next_command()
        issued_at = self.sim.now
        self._inflight += 1

        def on_done(reply: Reply, _cmd=cmd, _t0=issued_at):
            self._inflight -= 1
            self.results.record(self.sim.now, self.sim.now - _t0, _cmd, reply)
            if self.think_time > 0:
                self.sim.call_after(self.think_time, self._issue)
            else:
                self._issue()

        self.port.submit(cmd, on_done)
