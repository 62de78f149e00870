"""Zero-drop for the broker's partition-count change, on every engine.

Same harness shape as ``test_zero_drop.py``: publishes land before,
inside and after ``reconfigure_partitions(2 → 3)``, and every one must
complete exactly once with ``ok=True``.  After the transition every
record must survive in exactly one partition log — re-placed under the
new mapping by the transfer, except that an in-flight window publish
may land per its pre-quiesce routing.
"""

import pytest

from repro.arch.broker import ShardedBroker
from repro.brokerlite import BrokerRequest, partition_for
from repro.runtime import default_engine
from repro.runtime.realtime import RealtimeEngine
from repro.runtime.cluster import ClusterEngine
from repro.runtime.supervisor import WorkerState

SCALE = 0.02
HB = dict(heartbeat_interval=0.5, heartbeat_timeout=2.0)
#: generous request deadline — the guarantee is no-drop, not latency
#: (see test_zero_drop.py for the cluster-transition rationale)
TIMEOUT = 60.0

ENGINES = {
    "sim": None,
    "realtime": lambda: RealtimeEngine(time_scale=SCALE),
    "cluster": lambda: ClusterEngine(time_scale=SCALE, **HB),
}

WINDOW_OFFSETS = (0.0, 0.3, 1.0, 2.5)


def drive_through_repartition(svc):
    sys_ = svc.system
    clock = sys_.clock
    submitted = []
    completed = []

    def submit(i):
        submitted.append(i)
        svc.submit(
            BrokerRequest(op="PUB", partition=0, key=f"k{i}", value=b"%d" % i),
            lambda r, i=i: completed.append((i, bool(r.ok))),
        )

    for i in range(4):
        submit(i)
        sys_.run_until(sys_.now + 1.5)

    # these fire while reconfigure_partitions() is blocking the caller
    for j, off in enumerate(WINDOW_OFFSETS):
        clock.call_after(off, lambda i=4 + j: submit(i))

    rep = svc.reconfigure_partitions(3)
    assert rep.ok, rep.reason
    sys_.run_until(sys_.now + 10.0)

    for i in range(8, 12):
        submit(i)
        sys_.run_until(sys_.now + 1.5)
    sys_.run_until(sys_.now + 15.0)
    return submitted, completed


@pytest.mark.parametrize("engine", sorted(ENGINES))
def test_broker_repartition_zero_drop(engine):
    factory = ENGINES[engine]
    if factory is None:
        svc = ShardedBroker(n_partitions=2, seed=0, timeout=TIMEOUT)
    else:
        with default_engine(factory):
            svc = ShardedBroker(n_partitions=2, seed=0, timeout=TIMEOUT)

    submitted, completed = drive_through_repartition(svc)

    ids = [i for i, _ in completed]
    assert sorted(ids) == sorted(submitted), (
        f"dropped: {set(submitted) - set(ids)}, "
        f"duplicated: {[i for i in set(ids) if ids.count(i) > 1]}"
    )
    failed = [i for i, ok in completed if not ok]
    assert not failed, f"publishes failed: {failed}"
    assert not svc.system.failures
    assert svc.n_partitions == 3

    # nothing was lost in the transfer, and every record sits where
    # either epoch's router puts it: pre-transition records were
    # re-placed under the new mapping, post-transition records routed
    # under it directly — but a window publish routed just before
    # cutover may complete on its old-epoch partition (in-flight ops
    # keep their routing; the guarantee is no-drop, not re-routing)
    assert svc.records_stored() == len(submitted)
    window_keys = {f"k{i}" for i in range(4, 8)}
    for p in range(3):
        for rec in svc.server(p).partition(p).records:
            allowed = {partition_for(rec.key, 3)}
            if rec.key in window_keys:
                allowed.add(partition_for(rec.key, 2))
            assert p in allowed, f"{rec.key} in partition {p}, allowed {allowed}"

    if engine == "cluster":
        sup = svc.system.engine.supervisor
        assert sup.report().recovered()
        assert sup.statuses["Bck3"].state is WorkerState.RUNNING
    svc.system.shutdown()
