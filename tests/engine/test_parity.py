"""Backend parity: the same seeded workload through the sim engine and
the realtime engine must land in the same place.

Two tiers, matched to what each architecture can promise on a wall
clock:

* **strict parity** — equal final KV state (per junction, SavedData
  normalized to ``(schema, blob)``) *and* an equal multiset of applied
  updates (``apply`` telemetry events) — holds for the architectures
  whose behaviour depends only on message causality, not on timer
  races: sharding, caching, checkpointing, elastic, remote_snapshot,
  migration.
* **observable parity** — equal client-visible results (the scenario's
  operation history) and zero failures — for the architectures whose
  *internal* traffic is timing-sensitive (parallel_sharding races its
  backends on purpose; failover's activation hinges on a 0.5-logical-
  second timeout that wall-clock jitter can shift), where byte-equal
  internals are not a meaningful promise.

Every workload comes from :mod:`repro.explore.scenarios`, so the drive
is identical across engines by construction.
"""

import functools
from collections import Counter

import pytest

from repro.explore.scenarios import arch_scenario
from repro.runtime import default_engine
from repro.runtime.realtime import RealtimeEngine
from repro.serde.framing import SavedData

#: wall seconds per logical second — 50x compression keeps a 20-30s
#: logical workload under a second of wall time
SCALE = 0.02

STRICT = ("sharding", "caching", "checkpointing", "elastic", "remote_snapshot", "migration")
OBSERVABLE = ("failover", "parallel_sharding")


def _norm(v):
    return ("saved", v.schema, v.blob) if isinstance(v, SavedData) else v


def final_state(system):
    out = {}
    for inst in system.instances.values():
        for jr in inst.junctions.values():
            for k, v in jr.table.values.items():
                out[(jr.node, k)] = _norm(v)
    return out


def applied_updates(system):
    """Multiset of (node, key) over every applied remote update."""
    return Counter(
        (e.node, e.attrs.get("key"))
        for e in system.telemetry.events
        if e.kind == "apply"
    )


def observable(obs):
    hist = obs.get("history")
    if hist is None:
        return obs
    return [(op.kind, op.key, op.value, op.ok) for op in hist]


@functools.lru_cache(maxsize=None)
def sim_run(name):
    sc = arch_scenario(name)
    system = sc.run()
    return final_state(system), applied_updates(system), observable(sc.observe(system)), len(system.failures)


def realtime_run(name, transport):
    with default_engine(lambda: RealtimeEngine(time_scale=SCALE, transport=transport)):
        sc = arch_scenario(name)
        system = sc.run()
    out = (
        final_state(system),
        applied_updates(system),
        observable(sc.observe(system)),
        len(system.failures),
    )
    system.shutdown()
    return out


@pytest.mark.parametrize("arch", STRICT)
@pytest.mark.parametrize("transport", ("inproc", "tcp"))
def test_strict_parity(arch, transport):
    sim_state, sim_applied, sim_obs, sim_failures = sim_run(arch)
    rt_state, rt_applied, rt_obs, rt_failures = realtime_run(arch, transport)
    assert rt_failures == sim_failures == 0
    assert rt_state == sim_state
    assert rt_applied == sim_applied
    assert rt_obs == sim_obs


@pytest.mark.parametrize("arch", OBSERVABLE)
def test_observable_parity(arch):
    _, _, sim_obs, sim_failures = sim_run(arch)
    _, _, rt_obs, rt_failures = realtime_run(arch, "inproc")
    assert rt_failures == sim_failures == 0
    assert rt_obs == sim_obs


def test_engine_tag_differs_between_backends():
    sc = arch_scenario("sharding")
    system = sc.run()
    assert system.engine.name == "sim"
    with default_engine(lambda: RealtimeEngine(time_scale=SCALE)):
        sc2 = arch_scenario("sharding")
        system2 = sc2.run()
    assert system2.engine.name == "realtime"
    assert system2.telemetry.engine == "realtime"
    system2.shutdown()
