"""Broker engine parity: the broker_sharded scenario's client-
observable history must agree across sim, realtime (inproc and tcp)
and cluster engines.

broker_sharded has the same causality-only structure as sharding, so
it gets the strict tier against realtime (equal final state + applied
multiset + observables); the cluster comparison checks the observable
history and final state through real worker processes.
"""

import functools

import pytest

from repro.explore.scenarios import arch_scenario
from repro.runtime import default_engine
from repro.runtime.realtime import RealtimeEngine
from repro.runtime.cluster import ClusterEngine

from .test_parity import SCALE, applied_updates, final_state, observable
from .test_cluster import HB

ARCH = "broker_sharded"


@functools.lru_cache(maxsize=None)
def broker_sim_run():
    sc = arch_scenario(ARCH)
    system = sc.run()
    return (
        final_state(system),
        applied_updates(system),
        observable(sc.observe(system)),
        len(system.failures),
    )


@pytest.mark.parametrize("transport", ("inproc", "tcp"))
def test_realtime_strict_parity(transport):
    sim_state, sim_applied, sim_obs, sim_failures = broker_sim_run()
    with default_engine(lambda: RealtimeEngine(time_scale=SCALE, transport=transport)):
        sc = arch_scenario(ARCH)
        system = sc.run()
    try:
        assert len(system.failures) == sim_failures == 0
        assert final_state(system) == sim_state
        assert applied_updates(system) == sim_applied
        assert observable(sc.observe(system)) == sim_obs
    finally:
        system.shutdown()


def test_cluster_parity():
    sim_state, _, sim_obs, sim_failures = broker_sim_run()
    with default_engine(lambda: ClusterEngine(time_scale=SCALE, **HB)):
        sc = arch_scenario(ARCH)
        system = sc.run()
    try:
        assert len(system.failures) == sim_failures == 0
        assert final_state(system) == sim_state
        assert observable(sc.observe(system)) == sim_obs
    finally:
        system.shutdown()


def test_sim_observables_are_the_expected_broker_history():
    """Pin the scenario's client-visible outcome: three publishes get
    per-key dense offsets, the fetch sees both of key a's records, the
    commit lands at offset 1."""
    _, _, obs, failures = broker_sim_run()
    assert failures == 0
    results = obs["results"]
    by_op = {(op, key): (ok, offset, nrec) for op, key, ok, offset, nrec in results}
    assert by_op[("PUB", "a")][0] and by_op[("PUB", "b")][0]
    assert by_op[("FETCH", "a")] == (True, None, 2)
    assert by_op[("COMMIT", "a")] == (True, 1, None)
    # a's two publishes occupy offsets 0 and 1 of its partition
    pub_offsets = [offset for op, key, ok, offset, _ in results if op == "PUB" and key == "a"]
    assert pub_offsets == [0, 1]
