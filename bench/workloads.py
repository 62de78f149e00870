"""The named workloads.  ``bench/README.md`` records why each exists.

Every workload is ``run(seed, seconds, tracer=None, single=False) ->
Outcome``: build the service (timed as set-up, several times), warm up,
drive the timed section for ``seconds`` of wall time, then check the
outputs.  ``single`` drives the same service with one op outstanding
and one set-up — the form the traced run and its untraced reference
use.  The program sees only generated inputs; ``seed`` feeds
``WorkloadSpec.seed``.
"""

from __future__ import annotations

import hashlib
import resource
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from itertools import count
from random import Random

from repro.api import compilation, default_engine, generated_source
from repro.arch import (
    CachedRedis,
    CheckpointedService,
    FailoverRedis,
    FastFailoverRedis,
    MigratableRedis,
    ParallelShardedRedis,
    RemoteAuditor,
    ShardedRedis,
    WatchedRedis,
)
from repro.arch.broker import ReplicatedBroker, ShardedBroker
from repro.arch.elastic import ElasticWorkers
from repro.brokerlite import BrokerRequest, partition_for
from repro.redislite import Command, DirectPort, RedisServer
from repro.redislite.workload import djb2
from repro.runtime.cluster import reap_orphan_workers
from repro.workload import WorkloadSpec, ZipfSampler
from repro.workload.generators import Event, arrival_times, user_key

from .driver import (
    FAST,
    Slice,
    calibrate,
    closed_loop,
    host_speed,
    open_loop,
    percentile,
    robust,
    sim_open_loop,
)

#: set-ups per untraced run; ``setup_s`` is their fast decile.  Enough
#: of them that the cluster engine's are not all taken while the host's
#: second vCPU is still waking up: spawning two workers costs ~90 ms for
#: the first dozen set-ups after a quiet spell and ~50 ms from then on,
#: and a run whose set-ups all fell on one side reported either.
SETUPS = 32
#: ops completed before the timed section starts
WARMUP_OPS = 200
#: outstanding ops in the closed loops (``nproc`` on the sizing host)
CLIENTS = 2
#: arrival rate of rt-reshard-open, ops/s: about 60 % of what
#: rt-sharding-closed sustains (~91 ops/s), so the queue stays short
RESHARD_RATE = 55.0
#: seconds between live reshards (4 <-> 5 back-ends)
RESHARD_EVERY = 0.1
#: distortion guard: share of sent messages that may be retransmissions.
#: Healthy runs stay under 0.5 %; a run that falls into a slow spell of
#: the host (workers descheduled past the 10 ms retransmit floor) reached
#: 2.5 % over 10 s and 5.7 % over 3 s; a retransmit timer that is too
#: short for the transport re-sends 31 % (time_scale=0.01).
RETRANSMIT_LIMIT = 0.10
#: keys read back through the service after the timed section
SWEEP_KEYS = 64
#: external updates per storm batch (submit, then drain the zero-delay lane)
STORM_BATCH = 512
#: storm batches per slice (so a slice has a latency distribution)
STORM_SLICE = 4
#: updates in the compiled-vs-interpreted parity storm
PARITY_UPDATES = 2048


@dataclass
class Outcome:
    unit: str  # what one op is
    latency_unit: str = ""
    attempted: int = 0
    failed: int = 0
    ops: int = 0  # completed in the timed section
    wall: float = 0.0  # seconds of the timed section
    slices: list = field(default_factory=list)  # what the end-to-end metrics come from
    calibration: list = field(default_factory=list)  # host speed samples of the timed section
    cpu_bound: bool = True  # sim engine: wall time is CPU time
    worker_cpu_per_op: float = 0.0  # cluster workers' CPU seconds per op
    setups: list = field(default_factory=list)
    checks: list = field(default_factory=list)  # (name, ok, detail)
    extra: dict = field(default_factory=dict)  # diagnostics by metric name
    systems: list = field(default_factory=list)  # kept for the traced report
    root: object = None  # the traced section's enclosing span

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.checks.append((name, bool(ok), detail))

    @property
    def correct(self) -> bool:
        return all(ok for _, ok, _ in self.checks)

    def end_to_end(self) -> dict:
        """CPU time — and, on the sim engine, wall time, which is CPU
        time there — is divided by the run's host speed factor, i.e.
        stated as on a host running at the reference speed.  Wall time
        on the wall-clock engines is mostly timers and is left alone."""
        r = robust(self.slices)
        speed = host_speed(self.calibration)
        wall_speed = speed if self.cpu_bound else 1.0
        return {
            "setup_s": percentile(self.setups, FAST),
            "ops_per_s": wall_speed / r["wall_per_op"],
            "p50_ms": r["p50_ms"] / wall_speed,
            "p90_ms": r["p90_ms"] / wall_speed,
            "cpu_ms_per_op": (r["cpu_per_op"] + self.worker_cpu_per_op) / speed * 1e3,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }


@contextmanager
def _root(tracer, out: Outcome):
    """The timed section: one enclosing ``driver`` span when traced."""
    if tracer is None:
        yield
    else:
        with tracer.root("driver") as root:
            yield
        out.root = root


# ---------------------------------------------------------------------------
# Schedules
# ---------------------------------------------------------------------------


class Schedule:
    """A seeded op stream built from ``repro.workload``'s generator
    pieces (exact-pmf zipf, Lewis-Shedler thinned arrivals) around one
    shared sampler, so successive chunks cost no table rebuild.  One
    ``Random(spec.seed)`` feeds every draw."""

    def __init__(self, spec: WorkloadSpec):
        t0 = time.perf_counter()
        self.spec = spec
        self.rng = Random(spec.seed)
        self.zipf = ZipfSampler(spec.users, spec.zipf_s)
        self.issued = 0
        self.build_ms = (time.perf_counter() - t0) * 1e3

    def chunk(self, n: int | None = None, duration: float | None = None) -> list[Event]:
        """Closed loop: ``n`` events without arrival times.  Open loop:
        one epoch of thinned arrivals over ``duration`` seconds."""
        spec, rng = self.spec, self.rng
        if spec.mode == "open":
            epoch = WorkloadSpec(**{**spec.as_dict(), "duration": duration})
            times = arrival_times(epoch, rng)
        else:
            times = [None] * n
        out = []
        for t in times:
            user = self.zipf.sample(rng)
            op = "read" if rng.random() < spec.read_fraction else "write"
            out.append(Event(self.issued, t, op, user, user_key(user)))
            self.issued += 1
        return out

    def stream(self, chunk: int = 1024, duration: float | None = None):
        while True:
            yield from self.chunk(chunk, duration)


def value_for(ev: Event, size: int) -> bytes:
    """Distinct per write, so a stale read is a wrong value."""
    return f"{ev.key}#{ev.index}".encode().ljust(size, b".")


def digest(records) -> str:
    h = hashlib.sha256()
    for rec in records:
        h.update(repr(rec).encode())
    return h.hexdigest()


def measure_setups(out: Outcome, n: int, build, first_request, keep_last: bool = True):
    """Build the service ``n`` times, timing construction up to the
    first request being accepted; returns the last one (the others are
    completed and shut down)."""
    svc = None
    stuck = 0
    for i in range(n):
        t0 = time.perf_counter()
        svc = build()
        pending = first_request(svc)
        out.setups.append(time.perf_counter() - t0)
        system = svc.system
        give_up = time.perf_counter() + 10.0
        while pending() and time.perf_counter() < give_up:
            system.run_until(system.now + 0.005)
        stuck += bool(pending())
        if i < n - 1 or not keep_last:
            system.shutdown()
    out.check("every set-up's first request completes", not stuck, f"{stuck} of {n} stuck")
    return svc


# ---------------------------------------------------------------------------
# Sharded redis on the wall-clock engines
# ---------------------------------------------------------------------------


def _children_cpu() -> float:
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


class RedisHarness:
    """ShardedRedis behind ``submit(event, done)``, with the reference
    dict replayed at submit time.  The front junction serves its queue
    in FIFO order, one request at a time, so the value every GET must
    return is known when it is submitted."""

    SPEC = dict(users=10**5, mode="closed", zipf_s=1.1, read_fraction=0.5, value_size=64)

    def __init__(self, engine: str, seed: int, out: Outcome):
        self.engine = engine
        self.seed = seed
        self.out = out
        self.reference: dict[str, bytes] = {}
        self.wrong = 0
        self.svc = None
        self.schedule = Schedule(WorkloadSpec(seed=seed, **self.SPEC))
        out.extra["workload.materialize_ms"] = self.schedule.build_ms
        self.ops = self.schedule.stream()

    def build(self):
        with default_engine(self.engine):
            return ShardedRedis(n_shards=4, seed=self.seed)

    @staticmethod
    def first_request(svc):
        done = []
        svc.submit(Command("SET", "__probe__", b"up"), done.append)
        return lambda: not done

    def setup(self, n: int):
        """``n`` timed set-ups; the last one is the measured service.
        The throw-aways go first so that children CPU from here on is
        the measured service's workers alone."""
        if n > 1:
            measure_setups(self.out, n - 1, self.build, self.first_request, keep_last=False)
        self.workers_cpu0 = _children_cpu()
        self.svc = measure_setups(self.out, 1, self.build, self.first_request)
        self.reference["__probe__"] = b"up"
        self.out.systems.append(self.svc.system)
        return self.svc.system

    def submit(self, ev: Event, done) -> None:
        ref = self.reference
        if ev.op == "write":
            value = value_for(ev, 64)
            ref[ev.key] = value
            cmd, expect = Command("SET", ev.key, value), None
        else:
            cmd, expect = Command("GET", ev.key), ref.get(ev.key)

        def on_reply(reply) -> None:
            ok = bool(reply.ok)
            if ok and ev.op == "read" and reply.value != expect:
                self.wrong += 1
                ok = False
            done(ok)

        self.svc.submit(cmd, on_reply)

    def finish(self, warm, timed) -> None:
        """Fill the outcome from the timed section, then run the output
        checks and the distortion guard."""
        out, svc, ref = self.out, self.svc, self.reference
        system = svc.system
        out.attempted, out.failed = timed.issued, timed.failed
        out.ops, out.wall, out.slices = len(timed.records), timed.wall, timed.slices
        out.calibration, out.cpu_bound = timed.calibration, False
        latencies = [(end - start) * 1e3 for _, ok, start, end in timed.records if ok]
        out.extra["driver.p99_ms"] = percentile(latencies, 0.99)
        out.extra["latency_samples"] = len(latencies)
        # a sample of touched keys read back through the service ...
        keys = sorted(ref)[:: max(1, len(ref) // SWEEP_KEYS)][:SWEEP_KEYS]
        got: dict[str, bytes | None] = {}
        for key in keys:
            svc.submit(Command("GET", key), lambda r, k=key: got.__setitem__(k, r.value))
        give_up = time.perf_counter() + 10.0
        while len(got) < len(keys) and time.perf_counter() < give_up:
            system.run_until(system.now + 0.01)
        out.check("GET sweep equals the replayed reference",
                  got == {k: ref[k] for k in keys},
                  f"{len(got)}/{len(keys)} keys read back")
        # ... and every key compared directly against the shard that must own it
        stored: dict[str, bytes] = {}
        misplaced = 0
        for shard in range(svc.n_shards):
            store = svc.backend_app(shard).payload.store
            for key in store.keys():
                stored[key] = store.get(key)
                misplaced += djb2(key) % svc.n_shards != shard
        out.check("shard contents equal the replayed reference", stored == ref,
                  f"{len(stored)} stored vs {len(ref)} expected keys")
        out.check("every key lives on the shard its hash selects", misplaced == 0,
                  f"{misplaced} misplaced")
        out.check("no wrong GET value", self.wrong == 0, f"{self.wrong} wrong")
        stats = system.network.stats
        ratio = stats["retransmits"] / max(stats["sent"], 1)
        out.extra["delivery.retransmit_ratio"] = ratio
        out.check("retransmissions stay under the distortion limit",
                  ratio <= RETRANSMIT_LIMIT,
                  f"{stats['retransmits']} of {stats['sent']} sent")
        dropped = warm.dropped + timed.dropped
        out.check("no op timed out or was dropped", dropped == 0 and not system.failures,
                  f"{dropped} dropped, {len(system.failures)} junction failures")

    def close(self, served: int) -> None:
        """Shut down, reap, and charge the workers' CPU.  rusage exists
        only for reaped children, so workers are charged over their
        whole life, spread over every op they relayed."""
        if self.svc is not None:
            self.svc.system.shutdown()
        leaked = reap_orphan_workers()
        self.out.check("no worker process outlived shutdown", not leaked, f"{leaked}")
        if self.svc is not None:
            self.out.worker_cpu_per_op = (_children_cpu() - self.workers_cpu0) / max(served, 1)
            self.out.extra["cluster.worker_cpu_ms_per_op"] = self.out.worker_cpu_per_op * 1e3


def run_redis_closed(engine: str, seed: int, seconds: float, tracer, single) -> Outcome:
    out = Outcome(unit="request", latency_unit="submit to reply")
    harness = RedisHarness(engine, seed, out)
    clients = 1 if single else CLIENTS
    served = 0
    try:
        system = harness.setup(1 if single else SETUPS)
        warm = closed_loop(system, harness.submit, harness.ops, clients, count=WARMUP_OPS)
        with _root(tracer, out):
            timed = closed_loop(system, harness.submit, harness.ops, clients,
                                seconds=seconds, tracer=tracer)
        served = len(warm.records) + len(timed.records)
        harness.finish(warm, timed)
    finally:
        harness.close(served)
    return out


def run_rt_sharding_closed(seed, seconds, tracer=None, single=False):
    return run_redis_closed("realtime,time_scale=1.0", seed, seconds, tracer, single)


def run_cluster_sharding_closed(seed, seconds, tracer=None, single=False):
    return run_redis_closed("cluster,time_scale=1.0,workers=2", seed, seconds, tracer, single)


def _paced(rng: Random, rate: float):
    """One arrival per ``1/rate`` slot, at a seeded uniform offset
    inside it: an open loop (the schedule ignores completions) whose op
    count per second does not vary from seed to seed the way a Poisson
    count does."""
    for slot in count():
        yield (slot + rng.random()) / rate


def run_rt_reshard_open(seed: int, seconds: float, tracer=None, single=False) -> Outcome:
    out = Outcome(unit="request", latency_unit="due time to reply")
    harness = RedisHarness("realtime,time_scale=1.0", seed, out)
    reports = []

    def reshard() -> None:
        # open_loop calls this with nothing in flight and holds the ops
        # that come due meanwhile: a request that straddles the cutover
        # is routed by the old chooser against the new back-end set
        # (README, "Findings") and this workload must not fail ops
        reports.append(harness.svc.reconfigure_shards(9 - harness.svc.n_shards))

    served = 0
    try:
        system = harness.setup(1 if single else SETUPS)
        warm = closed_loop(system, harness.submit, harness.ops, 1, count=WARMUP_OPS)
        # evenly spaced and slower when single, so ops (almost) never
        # overlap and the tracer's current op is the one outstanding
        arrivals = _paced(Random(seed + 1), RESHARD_RATE / 2 if single else RESHARD_RATE)
        with _root(tracer, out):
            timed = open_loop(system, harness.submit, harness.ops, arrivals, seconds,
                              every=RESHARD_EVERY, between=reshard, tracer=tracer)
        served = len(warm.records) + len(timed.records)
        bad = [r.render() for r in reports if not r.ok or r.rolled_back]
        out.check("every live reshard completed", not bad, "; ".join(bad[:2]))
        out.check("enough transitions to measure", len(reports) >= 4 * seconds,
                  f"{len(reports)} transitions")
        harness.finish(warm, timed)
    finally:
        harness.close(served)
    pauses = [(e - s) * 1e3 for s, e in timed.pauses]
    out.extra["reconfig.execute_ms"] = statistics.fmean(pauses) if pauses else 0.0
    out.extra["reconfig.execute_ms_max"] = max(pauses, default=0.0)
    out.extra["reconfig.window_ms"] = (
        statistics.fmean(r.duration for r in reports) * 1e3 if reports else 0.0)
    out.extra["reconfig.ops_in_window"] = sum(
        1 for _, _, start, end in timed.records
        if any(start < pe and end > ps for ps, pe in timed.pauses))
    out.extra["reconfig.transitions"] = len(reports)
    out.extra["workload.late_ms_p99"] = percentile(timed.lateness, 0.99) * 1e3
    return out


# ---------------------------------------------------------------------------
# The broker on the sim engine
# ---------------------------------------------------------------------------


class BrokerHarness:
    """ShardedBroker behind ``submit(event, done)`` with the reference
    logs replayed at submit time (FIFO front, as for redis)."""

    PARTITIONS = 4

    def __init__(self, seed: int):
        self.svc = ShardedBroker(n_partitions=self.PARTITIONS, seed=seed)
        self.logs: list[list] = [[] for _ in range(self.PARTITIONS)]
        self.wrong = 0

    def submit(self, ev: Event, done) -> None:
        p = partition_for(ev.key, self.PARTITIONS)
        if ev.op == "write":
            value = value_for(ev, 64)
            self.logs[p].append((ev.key, value))
            req = BrokerRequest(op="PUB", partition=0, key=ev.key, value=value)
            expect = len(self.logs[p]) - 1
        else:
            req = BrokerRequest(op="FETCH", partition=p, offset=0, max_records=8)
            expect = self.logs[p][:8]

        def on_reply(reply) -> None:
            ok = bool(reply.ok)
            if ok:
                if ev.op == "write":
                    right = reply.offset == expect
                else:
                    right = [(r[1], r[2]) for r in reply.records] == expect
                if not right:
                    self.wrong += 1
                    ok = False
            done(ok)

        self.svc.submit(req, on_reply)

    def check(self, out: Outcome) -> None:
        dense = True
        stored = 0
        for p in range(self.PARTITIONS):
            records = self.svc.server(p).partition(p).records
            stored += len(records)
            dense &= [r.offset for r in records] == list(range(len(records)))
            dense &= [(r.key, r.value) for r in records] == self.logs[p]
        pubs = sum(len(log) for log in self.logs)
        out.check("partition logs are dense and equal the replayed reference", dense)
        out.check("partition sizes sum to the PUB count", stored == pubs,
                  f"{stored} stored vs {pubs} published")
        out.check("no wrong PUB offset or FETCH result", self.wrong == 0,
                  f"{self.wrong} wrong")
        out.check("no junction failure", not self.svc.system.failures)


FLASH_SPEC = dict(users=10**6, pattern="flash-crowd", mode="open", rate=100.0,
                  zipf_s=1.1, read_fraction=0.3, value_size=64, max_ops=10**6)
#: simulated seconds per epoch (~1050 ops, spike included) and of warm-up
FLASH_EPOCH = 10.0
FLASH_WARMUP = 2.0


def run_sim_broker_flash(seed: int, seconds: float, tracer=None, single=False) -> Outcome:
    out = Outcome(unit="request", latency_unit="wall time from submit to reply, host flat out")
    schedule = Schedule(WorkloadSpec(seed=seed, **FLASH_SPEC))
    out.extra["workload.materialize_ms"] = schedule.build_ms

    def first_request(svc):
        done = []
        svc.publish("__probe__", b"up", done.append)
        return lambda: not done

    # throw-away set-ups; the harness below is the measured service
    measure_setups(out, 1 if single else SETUPS,
                   lambda: ShardedBroker(n_partitions=4, seed=seed), first_request,
                   keep_last=False)
    harness = BrokerHarness(seed)
    system = harness.svc.system
    out.systems.append(system)
    # warm-up, then one epoch whose simulated outcome is a function of
    # the seed alone: its latencies and digest are reported and checked
    warm_events = schedule.chunk(duration=FLASH_WARMUP)
    first_events = schedule.chunk(duration=FLASH_EPOCH)
    warm = sim_open_loop(system, harness.submit, warm_events)
    timers0 = tracer.total("timers") if tracer is not None else 0
    first = sim_open_loop(system, harness.submit, first_events)
    if tracer is not None:
        # the arrival timers are the driver's own, one per event
        out.extra["sim.timers_per_op"] = (
            (tracer.total("timers") - timers0) / len(first_events) - 1.0)
    dropped = warm.dropped + first.dropped
    if single:
        with _root(tracer, out):
            timed = closed_loop(system, harness.submit, schedule.stream(duration=FLASH_EPOCH),
                                1, seconds=seconds, tracer=tracer)
        out.attempted, out.failed = timed.issued, timed.failed
        out.ops, out.wall, out.slices = len(timed.records), timed.wall, timed.slices
        out.calibration = timed.calibration
        dropped += timed.dropped
    else:
        epochs = [first]
        t0 = first.started
        while time.perf_counter() - t0 < seconds:
            epochs.append(sim_open_loop(system, harness.submit,
                                        schedule.chunk(duration=FLASH_EPOCH)))
        out.attempted = sum(e.issued for e in epochs)
        out.failed = sum(e.failed for e in epochs)
        out.ops = sum(len(e.records) for e in epochs)
        out.wall = sum(e.wall for e in epochs)
        out.slices = [s for e in epochs for s in e.slices]
        out.calibration = [k for e in epochs for k in e.calibration]
        dropped += sum(e.dropped for e in epochs[1:])
        out.extra["epochs"] = len(epochs)
    fixed = warm.records + first.records
    if tracer is None:  # the traced run's reference section has checked it
        replica = BrokerHarness(seed)
        again = sim_open_loop(replica.svc.system, replica.submit, warm_events).records
        again += sim_open_loop(replica.svc.system, replica.submit, first_events).records
        replica.svc.system.shutdown()
        out.check("same seed reproduces the simulated completions exactly",
                  digest(again) == digest(fixed))
    simulated = [(end - start) * 1e3 for _, ok, start, end in first.records if ok]
    out.extra["completion_digest"] = digest(fixed)
    out.extra["sim.p50_ms"] = percentile(simulated, 0.50)
    out.extra["sim.p99_ms"] = percentile(simulated, 0.99)
    harness.check(out)
    out.check("no op was dropped", dropped == 0, f"{dropped} dropped")
    system.shutdown()
    return out


# ---------------------------------------------------------------------------
# The update storm
# ---------------------------------------------------------------------------


def _storm_service(seed: int, compiled: bool):
    with compilation(compiled):
        svc = FailoverRedis(seed=seed)
    svc.system.telemetry.enabled = False
    return svc


def _storm_counters(system) -> dict:
    metrics = system.telemetry.metrics
    return {name: int(metrics.sum(name)) for name in
            ("junction_scheds", "junction_unscheds", "kv_updates_received",
             "kv_updates_applied")}


def run_storm(compiled: bool, seed: int, seconds: float, tracer, single) -> Outcome:
    out = Outcome(unit="external update",
                  latency_unit=f"wall per batch of {STORM_BATCH} updates, drained")

    def first_request(svc):
        svc.system.external_update("f::b", "Retried", False)
        return lambda: False

    svc = measure_setups(out, 1 if single else SETUPS,
                         lambda: _storm_service(seed, compiled), first_request)
    system = svc.system
    out.systems.append(system)
    system.run_until(system.now + 2.0)  # settle start-up churn

    def batch() -> None:
        # the storm has no generated input: the seed only seeds the service
        update = system.external_update
        for _ in range(STORM_BATCH):
            update("f::b", "Retried", False)
        system.run_until(system.now + 0.001)

    for _ in range(2):
        batch()  # warm-up
    t0 = time.perf_counter()
    with _root(tracer, out):
        wall0, cpu0 = t0, time.process_time()
        while True:
            if tracer is not None:
                tracer.op = len(out.slices)
            batch_ms = []
            mark = wall0
            for _ in range(STORM_SLICE):
                batch()
                now = time.perf_counter()
                batch_ms.append((now - mark) * 1e3)
                mark = now
            cpu1 = time.process_time()
            out.slices.append(Slice(STORM_SLICE * STORM_BATCH, mark - wall0, cpu1 - cpu0,
                                    batch_ms))
            out.calibration.append(calibrate())
            wall0, cpu0 = time.perf_counter(), time.process_time()
            if wall0 - t0 >= seconds:
                break
        system.run_until(system.now + 1.0)
        out.wall = time.perf_counter() - t0
    out.ops = out.attempted = len(out.slices) * STORM_SLICE * STORM_BATCH
    out.check("no junction failure", not system.failures, f"{system.failures[:1]}")
    system.shutdown()
    # same storm, same semantics: both evaluators must do the same work
    parity = {}
    for mode in (True, False):
        probe = _storm_service(seed, mode).system
        probe.run_until(probe.now + 2.0)
        for i in range(PARITY_UPDATES):
            probe.external_update("f::b", "Retried", False)
            if i % STORM_BATCH == STORM_BATCH - 1:
                probe.run_until(probe.now + 0.001)
        probe.run_until(probe.now + 1.0)
        parity[mode] = (_storm_counters(probe), probe.read_state("f::b", "Retried"),
                        len(probe.failures))
        probe.shutdown()
    out.check("compiled and interpreted storms count the same events",
              parity[True] == parity[False], f"{parity[True][0]} vs {parity[False][0]}")
    out.extra["storm_counters"] = parity[True][0]
    return out


def run_sim_failover_storm(seed, seconds, tracer=None, single=False):
    return run_storm(True, seed, seconds, tracer, single)


def run_sim_failover_storm_interp(seed, seconds, tracer=None, single=False):
    return run_storm(False, seed, seconds, tracer, single)


# ---------------------------------------------------------------------------
# Building every shipped architecture
# ---------------------------------------------------------------------------


def _checkpointed(seed: int):
    server = RedisServer()
    port = {}
    svc = CheckpointedService(server, stall=lambda d: port["p"].stall(d), seed=seed)
    port["p"] = DirectPort(svc.system.clock, server)
    return svc


#: every shipped architecture through its ``repro.arch`` wrapper; the
#: ones parameterised by back-end count at 4 and 16
BUILDERS = {
    "remote_snapshot": lambda s: RemoteAuditor(seed=s),
    "sharding@4": lambda s: ShardedRedis(n_shards=4, seed=s),
    "sharding@16": lambda s: ShardedRedis(n_shards=16, seed=s),
    "parallel_sharding@4": lambda s: ParallelShardedRedis(n_backends=4, seed=s),
    "parallel_sharding@16": lambda s: ParallelShardedRedis(n_backends=16, seed=s),
    "caching": lambda s: CachedRedis(seed=s),
    "checkpointing": _checkpointed,
    "failover": lambda s: FailoverRedis(seed=s),
    "failover_fast": lambda s: FastFailoverRedis(seed=s),
    "migration": lambda s: MigratableRedis(seed=s),
    "elastic": lambda s: ElasticWorkers(seed=s),
    "watched_failover": lambda s: WatchedRedis(seed=s),
    "broker_sharded@4": lambda s: ShardedBroker(n_partitions=4, seed=s),
    "broker_sharded@16": lambda s: ShardedBroker(n_partitions=16, seed=s),
    "broker_failover": lambda s: ReplicatedBroker(seed=s),
}


def run_build_matrix(seed: int, seconds: float, tracer=None, single=False) -> Outcome:
    out = Outcome(unit="architecture build",
                  latency_unit="wall per build (source to settled system), across architectures")

    def first_request(svc):
        done = []
        svc.submit(Command("SET", "__probe__", b"up"), done.append)
        return lambda: not done

    measure_setups(out, 1 if single else SETUPS,
                   lambda: ShardedRedis(n_shards=4, seed=seed), first_request,
                   keep_last=False)
    order = list(BUILDERS)
    Random(seed).shuffle(order)  # the seed picks the build order, nothing else
    bad = []
    junctions = 0

    def sweep() -> None:
        nonlocal junctions
        for name in order:
            wall0, cpu0 = time.perf_counter(), time.process_time()
            if tracer is not None:
                tracer.op = len(out.slices)
            system = BUILDERS[name](seed).system
            system.run_until(system.now + 1.0)
            wall = time.perf_counter() - wall0
            out.slices.append(Slice(1, wall, time.process_time() - cpu0, [wall * 1e3], name))
            out.calibration.append(calibrate())
            if system.failures:
                bad.append(f"{name}: {system.failures[0][2]!r}")
            for inst in system.instances.values():
                if not inst.running:
                    continue  # e.g. elastic's spare workers
                for jr in inst.junctions.values():
                    junctions += 1
                    if generated_source(system, jr.node) is None:
                        bad.append(f"{name}: {jr.node} is not compiled")
            if tracer is not None:
                out.systems.append(system)
            system.shutdown()

    sweep()  # warm-up: first-use imports and caches
    junctions = 0
    del out.slices[:], out.calibration[:], out.systems[:]
    t0 = time.perf_counter()
    with _root(tracer, out):
        while True:
            sweep()
            if time.perf_counter() - t0 >= seconds:
                break
        out.wall = time.perf_counter() - t0
    out.ops = out.attempted = len(out.slices)
    out.failed = len(bad)
    out.check("every architecture builds, settles and compiles every junction",
              not bad, "; ".join(bad[:3]))
    out.extra["core.junctions"] = junctions / max(out.ops, 1)
    out.extra["sweeps"] = out.ops // len(order)
    return out


WORKLOADS = {
    "sim-broker-flash": run_sim_broker_flash,
    "sim-failover-storm": run_sim_failover_storm,
    "sim-failover-storm-interp": run_sim_failover_storm_interp,
    "build-matrix": run_build_matrix,
    "rt-sharding-closed": run_rt_sharding_closed,
    "cluster-sharding-closed": run_cluster_sharding_closed,
    "rt-reshard-open": run_rt_reshard_open,
}
