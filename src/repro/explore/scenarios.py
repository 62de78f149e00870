"""Exploration scenarios: reproducible builds + workloads to explore.

A :class:`Scenario` packages everything the explorer needs to run one
schedule from scratch — reset-replay exploration constructs a *fresh*
system for every schedule, so a scenario must be a pure recipe: same
build, same seeds, same workload every time.  The only thing allowed
to vary between runs is the interleaving the controller picks.

:func:`resolve_scenario` is the one way a target becomes something
runnable (``repro run``, ``cluster``, ``trace`` and ``explore`` all call
it), over the target rule of :func:`repro.arch.loader.open_target`:

* a shipped architecture name → :func:`arch_scenario`: the service its
  :data:`~repro.arch.catalog.CATALOG` row builds, driven by the small
  deterministic script of the protocol it speaks (or by the row's own
  scripted drive), sized for exploration, where hundreds of runs must
  stay cheap;
* a ``.csaw`` source → :class:`CsawScenario`: run bare, host bindings
  stubbed, for pure-DSL fixtures such as the racy corpus under
  ``tests/explore``;
* a ``.py`` script → :func:`load_py_scenario`: the script must define
  ``build_scenario() -> Scenario``.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from ..arch.catalog import CATALOG, ArchRow
from ..arch.loader import BACKENDS, open_target, start_bare
from ..brokerlite import BrokerRequest, partition_for
from ..core.compiler import compile_program
from ..redislite import Command
from ..redislite.workload import djb2
from ..runtime.system import System
from .linearize import Op


class Scenario:
    """A reproducible build + drive recipe."""

    #: invariants checked by default for this scenario
    invariants: tuple[str, ...] = ("no-failures", "convergence", "at-most-once")

    #: the system under the run, from the moment it is built — what a
    #: SIGINT/SIGTERM handler drains when the run is cut short
    system: System | None = None

    def __init__(self, name: str, horizon: float = 30.0):
        self.name = name
        self.horizon = horizon

    def run(self) -> System:
        """Build a fresh system, drive the workload to the horizon and
        return the (finished) system.  Runs under ``use_controller``,
        so every Simulator constructed here is controlled."""
        raise NotImplementedError

    def observe(self, system: System) -> dict:
        """Scenario-level observations for invariants (e.g. the timed
        operation history under ``"history"``)."""
        return {}


class CsawScenario(Scenario):
    """A bare ``.csaw`` program: start main, run to the horizon."""

    def __init__(
        self,
        source: str,
        *,
        name: str = "csaw",
        config: dict | None = None,
        horizon: float = 30.0,
        note: Callable[[str], None] | None = None,
    ):
        super().__init__(name, horizon)
        self.source = source
        self.config = config or {}
        self.note = note
        self.program = compile_program(source, config=self.config)  # fail fast

    def run(self) -> System:
        self.system = start_bare(
            compile_program(self.source, config=self.config), note=self.note
        )
        self.note = None  # every run stubs the same things: say so once
        self.system.run_until(self.horizon)
        return self.system


def load_py_scenario(path: Path) -> Scenario:
    """Load a ``.py`` target: the script must define
    ``build_scenario() -> Scenario``."""
    import runpy

    ns = runpy.run_path(str(path))
    build = ns.get("build_scenario")
    if build is None:
        raise SystemExit(
            f"error: {path} defines no build_scenario() — an explorable "
            "script must expose build_scenario() -> repro.explore.Scenario"
        )
    sc = build()
    if not isinstance(sc, Scenario):
        raise SystemExit(f"error: {path}: build_scenario() returned {type(sc).__name__}")
    return sc


# ---------------------------------------------------------------------------
# The two request protocols: their scripts, and what a run records
# ---------------------------------------------------------------------------


def _redis_request(svc, kind, key, value):
    return Command(kind, key, value) if kind == "SET" else Command(kind, key)


def _redis_record(kind, key, value, reply, start, end):
    got = value if kind == "SET" else reply.value
    return Op(kind=kind, key=key, value=got, start=start, end=end, ok=bool(reply.ok))


def _redis_placement(svc, key):
    held = [
        i for i in range(svc.n_shards)
        if key in svc.backend_app(i).payload.store.keys()
    ]
    return held, [djb2(key) % svc.n_shards]


def _broker_request(svc, op, key, value):
    if op == "PUB":
        return BrokerRequest(op="PUB", partition=0, key=key, value=value)
    p = svc.partition_of({"op": op, "key": key, "partition": 0})
    if op == "FETCH":
        return BrokerRequest(op="FETCH", partition=p, offset=0, max_records=8)
    return BrokerRequest(op="COMMIT", partition=p, group="g", offset=1)


def _broker_record(op, key, value, reply, start, end):
    return (
        op, key, bool(reply.ok), reply.offset,
        len(reply.records) if reply.records is not None else None,
    )


def _broker_placement(svc, key):
    held = [
        (i, p)
        for i in range(svc.n_partitions)
        for p, log in sorted(svc.server(i).partitions.items())
        if any(rec.key == key for rec in log.records)
    ]
    home = partition_for(key, svc.n_partitions)
    return held, [(home, home)]


@dataclass(frozen=True)
class _Protocol:
    """What the scenarios need to know about one request protocol."""

    #: (op, key, value) — the exploration script
    script: tuple
    #: the reconfiguration scenario's script: the first op settles, the
    #: other two land inside the quiesce window
    window_script: tuple
    #: (service, op, key, value) → the request ``service.submit`` takes
    request: Callable
    #: (op, key, value, reply, start, end) → one observation record
    record: Callable
    #: the ``observe()`` key the records are reported under
    records_as: str
    invariants: tuple[str, ...]
    #: the service method that resizes the deployment live
    resize: str
    #: (service, key) → (where the key is stored, where a fresh
    #: deployment of the current size stores it)
    placement: Callable


_PROTOCOLS = {
    # two writers racing on "a" plus reads, checked for linearizability
    "redis": _Protocol(
        script=(
            ("SET", "a", b"1"),
            ("SET", "b", b"x"),
            ("SET", "a", b"2"),
            ("GET", "a", None),
            ("GET", "b", None),
        ),
        window_script=(("SET", "a", b"0"), ("SET", "b", b"1"), ("GET", "a", None)),
        request=_redis_request,
        record=_redis_record,
        records_as="history",
        invariants=("no-failures", "convergence", "at-most-once", "linearizable"),
        resize="reconfigure_shards",
        placement=_redis_placement,
    ),
    # publishes (two keys racing on one partition), a fetch and a
    # commit.  No ``linearizable`` here — the history invariant speaks
    # GET/SET; the broker's ordering guarantee (per-key offset order)
    # is asserted by ``observe()`` consumers via the offsets returned
    "broker": _Protocol(
        script=(
            ("PUB", "a", b"1"),
            ("PUB", "b", b"x"),
            ("PUB", "a", b"2"),
            ("FETCH", "a", None),
            ("COMMIT", "a", None),
        ),
        window_script=(("PUB", "a", b"0"), ("PUB", "b", b"1"), ("PUB", "c", b"2")),
        request=_broker_request,
        record=_broker_record,
        records_as="results",
        invariants=Scenario.invariants,
        resize="reconfigure_partitions",
        placement=_broker_placement,
    ),
}


# ---------------------------------------------------------------------------
# Shipped-architecture scenarios
# ---------------------------------------------------------------------------


class ArchScenario(Scenario):
    """The exploration workload of one catalog row: build the service,
    run the script of the protocol it speaks (recording a timed
    history), then the row's own drive."""

    def __init__(self, name: str, row: ArchRow, config: dict | None = None):
        super().__init__(name, row.horizon)
        self.row = row
        self.sizes = dict(row.explore)
        if row.backends is not None and BACKENDS in (config or {}):
            self.sizes[row.backends] = config[BACKENDS]
        self.protocol = _PROTOCOLS.get(row.protocol)
        if self.protocol is not None:
            self.invariants = self.protocol.invariants

    def build(self):
        self.service = svc = self.row.build(seed=0, **self.sizes)
        self.system = svc.system
        return svc

    def run(self) -> System:
        svc = self.build()
        system, proto = svc.system, self.protocol
        self._observe = dict
        if proto is not None:
            records: list = []
            self._observe = lambda: {proto.records_as: list(records)}

            def submit(op, key, value):
                start = system.now
                svc.submit(
                    proto.request(svc, op, key, value),
                    lambda reply: records.append(
                        proto.record(op, key, value, reply, start, system.now)
                    ),
                )

            # sequential submits with small gaps keep per-step co-enabled
            # sets small; the interesting concurrency is inside the runtime
            for op, key, value in proto.script:
                submit(op, key, value)
                system.run_until(system.now + 2.0)
            system.run_until(self.horizon)
        if self.row.drive is not None:
            self._observe = self.row.drive(svc, self.horizon) or self._observe
        return system

    def observe(self, system: System) -> dict:
        return self._observe()


class ReconfigScenario(ArchScenario):
    """A sharded service resized mid-workload (2 → 3 back-ends): client
    requests are scheduled to land *inside* the quiesce window, so
    exploration drives the transition's races (inbound update vs.
    pause, replay vs. new-shard bring-up).  Checked by
    ``reconfig-no-drop``: every submitted request completes exactly
    once, the transition itself finishes, and every acknowledged write
    is stored exactly where a fresh deployment of the new size would
    have put it.

    Deliberately not what the shipped name resolves to — that table is
    part of the byte-compared differential surface; use
    :func:`make_reconfig_scenario` or the ``reconfig`` /
    ``broker-reconfig`` targets.
    """

    def __init__(self, name: str = "reconfig", arch: str = "sharding",
                 horizon: float = 30.0):
        super().__init__(name, CATALOG[arch])
        self.horizon = horizon
        self.invariants = Scenario.invariants + ("reconfig-no-drop",)

    def run(self) -> System:
        svc = self.build()
        system, proto = svc.system, self.protocol
        submitted: list[int] = []
        completed: list[int] = []
        failed: list[tuple[int, str]] = []
        written: list[str] = []

        def submit(rid: int, op: str, key: str, value):
            submitted.append(rid)

            def done(reply):
                if not reply.ok:
                    failed.append((rid, "reply not ok"))
                    return
                completed.append(rid)
                if value is not None:
                    written.append(key)

            svc.submit(proto.request(svc, op, key, value), done)

        first, second, third = proto.window_script
        submit(0, *first)
        system.run_until(system.now + 2.0)
        # these land while the transition quiesces/replays — the race
        # under exploration
        system.clock.call_after(0.0, lambda: submit(1, *second))
        system.clock.call_after(0.002, lambda: submit(2, *third))
        report = getattr(svc, proto.resize)(3)
        system.run_until(self.horizon)
        placed = {key: proto.placement(svc, key) for key in sorted(set(written))}
        self._observe = lambda: {
            "submitted": submitted,
            "completed": completed,
            "failed": failed,
            "reconfig_ok": report.ok,
            "reconfig_reason": report.reason,
            "placed": {key: held for key, (held, _) in placed.items()},
            "misplaced": [
                (key, held, home) for key, (held, home) in placed.items() if held != home
            ],
        }
        return system


def make_reconfig_scenario(horizon: float = 30.0) -> Scenario:
    """The live-reconfiguration exploration scenario (reshard 2 → 3
    with client traffic racing the quiesce window)."""
    return ReconfigScenario(horizon=horizon)


#: name → scenario factory, one per catalog row
_ARCH_SCENARIOS = {
    name: functools.partial(ArchScenario, name, row) for name, row in CATALOG.items()
}

#: the reconfiguration targets of ``repro explore``: target → architecture
_RECONFIG_TARGETS = {"reconfig": "sharding", "broker-reconfig": "broker_sharded"}


def arch_scenario(name: str, config: dict | None = None) -> Scenario:
    """The exploration scenario of a shipped architecture (``config``:
    the ``Bck`` entry sizes a sharded one's deployment)."""
    try:
        make = _ARCH_SCENARIOS[name]
    except KeyError:
        raise KeyError(
            f"no exploration scenario for {name!r}; have {sorted(_ARCH_SCENARIOS)}"
        ) from None
    return make(config)


def resolve_scenario(
    target: str,
    *,
    config: dict | None = None,
    horizon: float | None = None,
    bare_horizon: float = 30.0,
    note: Callable[[str], None] | None = None,
) -> Scenario:
    """Target resolution: architecture name, ``.csaw`` or ``.py``.
    ``horizon`` overrides the scenario's own; a bare ``.csaw`` has none
    and runs to ``bare_horizon`` (``note`` hears what it had to stub)."""
    if target in _RECONFIG_TARGETS:
        sc = ReconfigScenario(target, _RECONFIG_TARGETS[target])
    else:
        opened = open_target(target, scripts=True)
        if opened.kind == "py":
            return load_py_scenario(Path(target))
        if opened.kind == "csaw":
            sc = CsawScenario(
                opened.text, name=target, config=config, horizon=bare_horizon, note=note
            )
        else:
            sc = arch_scenario(target, config)
    if horizon is not None:
        sc.horizon = horizon
    return sc
