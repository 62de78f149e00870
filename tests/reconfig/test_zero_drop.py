"""Zero-drop guarantee across every engine.

Requests are submitted *before* the transition, scheduled to land
*inside* the quiesce/cutover window, and submitted *after* — and every
single one must complete exactly once with ``ok=True`` on the sim
engine, the realtime engine and the cluster engine (real worker
processes; the transition rides the framed-TCP wire and the
supervisor's deploy/retire path).

Client timeouts are generous because the guarantee under test is
*no drop*, not low latency: on the cluster engine a transition spends
wall time spawning worker processes, which the cluster clock also
counts, so a request buffered across the window can wait ~10+ logical
seconds before its replayed delivery fires.
"""

import pytest

from repro.redislite import Command
from repro.runtime import default_engine
from repro.runtime.realtime import RealtimeEngine
from repro.runtime.cluster import ClusterEngine
from repro.runtime.supervisor import WorkerState

#: wall seconds per logical second on the wall-clock engines
SCALE = 0.02
#: generous supervision knobs — CI jitter must not fake a crash
HB = dict(heartbeat_interval=0.5, heartbeat_timeout=2.0)
#: sharding request deadline that comfortably spans a cluster
#: transition.  Safe because FrontApp.submit only enqueues — a request
#: buffered across the window starts its deadline at replay, not at
#: submit, so the generous value never delays quiesce drain.
TIMEOUT = 60.0
#: failover cannot use the generous value: its junctions derive
#: watchdog windows (``reactivate(3*t)``, ``otherwise[3*t]``) from the
#: same parameter and quiesce must outwait an idle watchdog cycle —
#: but 5.0 keeps 100ms+ of wall tolerance per window on a loaded host
FO_TIMEOUT = 5.0

ENGINES = {
    "sim": None,
    "realtime": lambda: RealtimeEngine(time_scale=SCALE),
    "cluster": lambda: ClusterEngine(time_scale=SCALE, **HB),
}

#: offsets (logical seconds) at which mid-transition requests are
#: scheduled, measured from the moment reconfigure() is entered —
#: 0.0 races the first quiesce, the rest land across the window
WINDOW_OFFSETS = (0.0, 0.3, 1.0, 2.5)


def drive_through_transition(svc, transition):
    """Submit 4 requests before, 4 inside, 4 after the transition;
    return (submitted_ids, completions) where completions is a list of
    ``(request_id, ok)``."""
    sys_ = svc.system
    clock = sys_.clock
    submitted = []
    completed = []

    def submit(i):
        submitted.append(i)
        svc.submit(
            Command("SET", f"k{i}", b"%d" % i),
            lambda r, i=i: completed.append((i, bool(r.ok))),
        )

    for i in range(4):
        submit(i)
        sys_.run_until(sys_.now + 1.5)

    # these fire while reconfigure() is blocking the caller
    for j, off in enumerate(WINDOW_OFFSETS):
        clock.call_after(off, lambda i=4 + j: submit(i))

    rep = transition()
    assert rep.ok, rep.reason
    sys_.run_until(sys_.now + 10.0)

    for i in range(8, 12):
        submit(i)
        sys_.run_until(sys_.now + 1.5)
    sys_.run_until(sys_.now + 15.0)
    return submitted, completed


def check_zero_drop(svc, submitted, completed):
    ids = [i for i, _ in completed]
    assert sorted(ids) == sorted(submitted), (
        f"dropped: {set(submitted) - set(ids)}, "
        f"duplicated: {[i for i in set(ids) if ids.count(i) > 1]}"
    )
    failed = [i for i, ok in completed if not ok]
    assert not failed, f"requests failed: {failed}"
    assert not svc.system.failures


def run_sharding(engine_factory):
    from repro.arch.sharding import ShardedRedis

    def build():
        return ShardedRedis(n_shards=2, seed=0, timeout=TIMEOUT)

    if engine_factory is None:
        svc = build()
    else:
        with default_engine(engine_factory):
            svc = build()
    submitted, completed = drive_through_transition(
        svc, lambda: svc.reconfigure_shards(3)
    )
    assert svc.n_shards == 3
    check_zero_drop(svc, submitted, completed)
    return svc


def run_failover(engine_factory):
    from repro.arch.failover import FailoverRedis

    def build():
        return FailoverRedis(seed=0, timeout=FO_TIMEOUT)

    if engine_factory is None:
        svc = build()
    else:
        with default_engine(engine_factory):
            svc = build()
    # grace must outlast one full reactivate watchdog window (3*t):
    # the removed replica's reactivate junction re-arms immediately, so
    # the drain is only observable at a window boundary
    submitted, completed = drive_through_transition(
        svc,
        lambda: svc.swap_backend(
            "b2", "b3", quiesce_grace=3.0 * FO_TIMEOUT + 5.0
        ),
    )
    assert svc.back_instances() == ["b1", "b3"]
    check_zero_drop(svc, submitted, completed)
    return svc


@pytest.mark.parametrize("engine", sorted(ENGINES))
def test_sharding_reshard_zero_drop(engine):
    svc = run_sharding(ENGINES[engine])
    if engine == "cluster":
        sup = svc.system.engine.supervisor
        assert sup.report().recovered()
        # the new shard's worker was deployed live and is healthy
        assert sup.statuses["Bck3"].state is WorkerState.RUNNING
    svc.system.shutdown()


@pytest.mark.parametrize("engine", sorted(ENGINES))
def test_failover_swap_zero_drop(engine):
    svc = run_failover(ENGINES[engine])
    if engine == "cluster":
        sup = svc.system.engine.supervisor
        assert sup.report().recovered()
        assert sup.statuses["b3"].state is WorkerState.RUNNING
        # the retired replica's worker was reaped and forgotten
        assert "b2" not in sup.statuses
    svc.system.shutdown()
