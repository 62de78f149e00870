"""Differential reconfiguration harness: a system reconfigured *live*
must be indistinguishable from a system freshly started on the target
architecture.

Every case drives the same two-part client workload:

* part 1 runs on the old architecture;
* the live run then applies the transition (``System.reconfigure`` via
  the architecture wrapper), while the fresh run — already on the new
  architecture — just idles the same settle window;
* part 2 runs on the new architecture.

Then the client-observable history (untimed ``(op, key, value, ok)``
tuples) and the final client-visible KV state must be byte-identical
between the two runs, with zero failures in both.  For the sharded
store the comparison includes per-shard *placement* — the transfer
step must land every key exactly where the fresh chooser would.

Eight transitions across seven shipped architectures, on the sim
engine and the realtime engine:

* ``sharding`` reshard 2 → 4 and ``parallel_sharding`` pool 2 → 3
  (instance adds + state transfer);
* ``failover`` / ``failover_fast`` replica swap b2 → b3 (instance
  remove + add; the fresh run starts from the swapped source);
* ``caching`` / ``migration`` / ``checkpointing`` main-argument change
  (timeout 0.5 → 0.8: same topology, every junction rebinds).
"""

import pytest

from repro.redislite import Command
from repro.runtime import default_engine
from repro.runtime.realtime import RealtimeEngine

#: wall seconds per logical second on the realtime engine
SCALE = 0.02

PART1 = (("SET", "a", b"1"), ("SET", "b", b"x"))
PART2 = (
    ("SET", "c", b"2"),
    ("SET", "a", b"3"),
    ("GET", "a", None),
    ("GET", "b", None),
    ("GET", "c", None),
)
KEYS = ("a", "b", "c")


def drive(svc, ops, hist):
    sys_ = svc.system
    for kind, key, value in ops:
        cmd = Command(kind, key, value) if value is not None else Command(kind, key)

        def done(reply, k=kind, ky=key):
            hist.append((k, ky, reply.value, bool(reply.ok)))

        svc.submit(cmd, done)
        sys_.run_until(sys_.now + 2.0)


def settle(svc):
    svc.system.run_until(svc.system.now + 5.0)


def store_contents(app):
    """A backend's client-visible KV contents: key → value."""
    snap = app.payload.store.snapshot()
    return {k: rec["value"] for k, rec in snap["entries"].items()}


# ---------------------------------------------------------------------------
# per-architecture cases: run(reconfig) -> (observation, n_failures)
# ---------------------------------------------------------------------------


def _sharding(reconfig):
    from repro.arch.sharding import ShardedRedis

    hist = []
    svc = ShardedRedis(n_shards=2 if reconfig else 4, seed=0)
    drive(svc, PART1, hist)
    if reconfig:
        rep = svc.reconfigure_shards(4)
        assert rep.ok, rep.reason
    settle(svc)
    drive(svc, PART2, hist)
    settle(svc)
    placement = {
        b: sorted(store_contents(svc.backend_app(i)))
        for i, b in enumerate(svc.backends)
    }
    state = {}
    for i in range(svc.n_shards):
        state.update(store_contents(svc.backend_app(i)))
    return (hist, placement, state), len(svc.system.failures)


def _parallel_sharding(reconfig):
    from repro.arch.sharding import ParallelShardedRedis

    hist = []
    # generous timeout: at SCALE the default 0.5 logical seconds is
    # 10ms of wall tolerance, inside scheduler-jitter range
    svc = ParallelShardedRedis(n_backends=2 if reconfig else 3, seed=0, timeout=2.0)
    drive(svc, PART1, hist)
    if reconfig:
        rep = svc.reconfigure_backends(3)
        assert rep.ok, rep.reason
    settle(svc)
    drive(svc, PART2, hist)
    settle(svc)
    # replicated: every backend holds the full copy.  The swapped-in
    # replica received part 1 by state transfer, part 2 by traffic.
    replicas = [store_contents(svc.backend_app(i)) for i in range(svc.n_backends)]
    return (hist, svc.active_backends(), replicas), len(svc.system.failures)


def _failover(reconfig, *, fast=False, timeout=0.5):
    from repro.arch.failover import (
        FailoverRedis,
        FastFailoverRedis,
        swap_backend_program,
    )

    cls = FastFailoverRedis if fast else FailoverRedis
    program_name = "failover_fast" if fast else "failover"
    hist = []
    if reconfig:
        svc = cls(seed=0, timeout=timeout)
    else:
        svc = cls(
            seed=0,
            timeout=timeout,
            program=swap_backend_program(program_name=program_name),
        )
    drive(svc, PART1, hist)
    if reconfig:
        # grace must outlast one reactivate watchdog window (3*t)
        rep = svc.swap_backend("b2", "b3", quiesce_grace=6.0 * timeout + 2.0)
        assert rep.ok, rep.reason
    settle(svc)
    drive(svc, PART2, hist)
    settle(svc)
    # b1 served both parts in both runs; b3's copy differs by design
    # (fresh saw part 1, swapped-in did not), so the state comparison
    # is the survivor's store plus the registration set.
    b1 = store_contents(svc.system.instance("b1").app)
    return (hist, svc.registered_backends(), b1), len(svc.system.failures)


def _timeout_change(reconfig, build, get_server):
    """Same topology, new main argument (timeout 0.5 → 0.8)."""
    hist = []
    svc = build(0.5 if reconfig else 0.8)
    drive(svc, PART1, hist)
    if reconfig:
        rep = svc.system.reconfigure(main_args={"t": 0.8})
        assert rep.ok, rep.reason
    settle(svc)
    drive(svc, PART2, hist)
    settle(svc)
    snap = {
        k: rec["value"]
        for k, rec in get_server(svc).store.snapshot()["entries"].items()
    }
    return (hist, snap), len(svc.system.failures)


def _caching(reconfig):
    from repro.arch.caching import CachedRedis

    return _timeout_change(
        reconfig,
        lambda t: CachedRedis(capacity=8, seed=0, timeout=t),
        lambda svc: svc.server,
    )


def _migration(reconfig):
    from repro.arch.migration import MigratableRedis

    return _timeout_change(
        reconfig,
        lambda t: MigratableRedis(seed=0, timeout=t),
        lambda svc: svc.node_server(svc.front.active),
    )


def _checkpointing(reconfig):
    from repro.arch.checkpointing import CheckpointedService
    from repro.redislite import DirectPort, RedisServer

    hist = []
    server = RedisServer()
    ref = {}
    svc = CheckpointedService(
        server, stall=lambda d: ref["p"].stall(d), timeout=0.5 if reconfig else 0.8
    )
    ref["p"] = DirectPort(svc.system.clock, server)
    sys_ = svc.system
    for kind, key, value in PART1:
        server.execute(Command(kind, key, value))
    svc.checkpoint_now()
    sys_.run_until(sys_.now + 5.0)
    if reconfig:
        rep = sys_.reconfigure(main_args={"t": 0.8})
        assert rep.ok, rep.reason
    sys_.run_until(sys_.now + 5.0)
    for kind, key, value in PART2:
        if value is not None:
            server.execute(Command(kind, key, value))
    svc.checkpoint_now()
    sys_.run_until(sys_.now + 10.0)
    snap = {
        k: rec["value"] for k, rec in server.store.snapshot()["entries"].items()
    }
    return (hist, svc.checkpoints, snap), len(sys_.failures)


CASES = {
    "sharding": _sharding,
    "parallel_sharding": _parallel_sharding,
    "failover": lambda r: _failover(r, fast=False),
    "failover_fast": lambda r: _failover(r, fast=True),
    "caching": _caching,
    "migration": _migration,
    "checkpointing": _checkpointing,
}

#: realtime overrides: the failover timeout widens from 0.5 to 2.0
#: logical seconds — at SCALE the default is 10ms of wall tolerance,
#: inside scheduler-jitter range under CI load (the sim keeps the
#: shipped default; it has no jitter)
CASES_REALTIME = dict(
    CASES,
    failover=lambda r: _failover(r, fast=False, timeout=2.0),
    failover_fast=lambda r: _failover(r, fast=True, timeout=2.0),
)


def run_case(name, reconfig, engine=None, cases=CASES):
    if engine is None:
        return cases[name](reconfig)
    with default_engine(engine):
        return cases[name](reconfig)


@pytest.mark.parametrize("arch", sorted(CASES))
def test_differential_sim(arch):
    live, live_failures = run_case(arch, reconfig=True)
    fresh, fresh_failures = run_case(arch, reconfig=False)
    assert live_failures == fresh_failures == 0
    assert live == fresh


#: on a wall clock the fan-out reply race is timing-sensitive once the
#: replicas diverge (the swapped-in b3 never saw part 1), so the
#: realtime failover comparison drops GET reply *values* and keeps
#: per-op success, the registration set and the survivor's store —
#: the same weakening the engine parity suite applies to failover.
VALUE_RACY = ("failover", "failover_fast")


def weaken(arch, obs):
    if arch not in VALUE_RACY:
        return obs
    hist, registered, b1 = obs
    return ([(k, ky, ok) for (k, ky, _v, ok) in hist], registered, b1)


@pytest.mark.parametrize("arch", sorted(CASES))
def test_differential_realtime(arch):
    engine = lambda: RealtimeEngine(time_scale=SCALE)  # noqa: E731
    # both arms run on a wall clock, so a loaded CI host can stall
    # either past an architecture timeout window; retry the whole
    # comparison a couple of times — a real reconfiguration defect is
    # deterministic and fails every attempt
    for _ in range(2):
        live, live_failures = run_case(
            arch, reconfig=True, engine=engine, cases=CASES_REALTIME
        )
        fresh, fresh_failures = run_case(
            arch, reconfig=False, engine=engine, cases=CASES_REALTIME
        )
        if (
            live_failures == fresh_failures == 0
            and weaken(arch, live) == weaken(arch, fresh)
        ):
            return
    assert live_failures == fresh_failures == 0
    assert weaken(arch, live) == weaken(arch, fresh)


def test_sharding_transfer_matches_fresh_placement():
    """The transfer step must land every key exactly where the fresh
    4-shard chooser puts it — checked key by key."""
    (_, live_placement, live_state), _ = run_case("sharding", reconfig=True)
    (_, fresh_placement, fresh_state), _ = run_case("sharding", reconfig=False)
    assert live_state == fresh_state == {"a": b"3", "b": b"x", "c": b"2"}
    assert live_placement == fresh_placement


def test_reshard_crosses_differing_slot_layouts():
    """The pool 2 → 3 reconfiguration rebinds the front-end against a
    program with *more* declared keys (the per-backend props and the
    ``tgt`` subset membership expand over the pool), so the old and new
    tables have different key→slot layouts — the restore path must
    translate state by name, never by slot index."""
    from repro.arch.sharding import ParallelShardedRedis

    hist = []
    svc = ParallelShardedRedis(n_backends=2, seed=0, timeout=2.0)
    jr = svc.system.junction("Fnt::junction")
    old_table = jr.table
    old_index = dict(old_table.index)
    drive(svc, PART1, hist)
    rep = svc.reconfigure_backends(3)
    assert rep.ok, rep.reason
    settle(svc)
    new_table = svc.system.junction("Fnt::junction").table
    new_index = dict(new_table.index)
    assert new_table is not old_table
    # the pool grew: new per-backend keys exist only in the new layout
    assert set(new_index) - set(old_index)
    # and surviving keys moved to different slots, so a transfer done
    # by slot index (rather than by name) could not have been correct
    moved = [k for k in old_index if new_index.get(k, old_index[k]) != old_index[k]]
    assert moved, (old_index, new_index)
    drive(svc, PART2, hist)
    settle(svc)
    assert not svc.system.failures
    assert all(ok for (_, _, _v, ok) in hist), hist
