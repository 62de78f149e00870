"""Differential tests: DSL architectures vs the direct (non-DSL)
control arm.

Table 2's claim is that both arms implement *the same feature*.  These
tests drive both implementations with the same deterministic workload
and require identical client outputs and identical final KV state —
for sharding, fail-over and checkpointing.

Requests are submitted sequentially (each reply collected before the
next submit) so the comparison is schedule-independent.
"""

import random

from benchmarks.control import (
    DirectCachedRedis,
    DirectCheckpointManager,
    DirectElasticWorkers,
    DirectFailoverRedis,
    DirectMigratableRedis,
    DirectRemoteAuditor,
    DirectShardedRedis,
)
from repro.arch.caching import CachedRedis
from repro.arch.checkpointing import CheckpointedService
from repro.arch.elastic import ElasticWorkers
from repro.arch.failover import FailoverRedis
from repro.arch.migration import MigratableRedis
from repro.arch.sharding import ShardedRedis
from repro.arch.snapshot import RemoteAuditor
from repro.curlite.client import TransferClient
from repro.curlite.fileserver import FileServer, LinkModel
from repro.redislite import Command, RedisServer, WorkloadGenerator
from repro.redislite.bench import DirectPort
from repro.runtime.sim import Simulator

SEED = 7


def _workload(n, *, get_ratio=0.5):
    gen = WorkloadGenerator(seed=SEED, n_keys=16, get_ratio=get_ratio)
    return list(gen.commands(n))


def _drive_dsl(svc, commands, step=2.0):
    """Submit sequentially against a DSL service, one reply at a time."""
    replies = []
    for cmd in commands:
        got = []
        svc.submit(cmd, got.append)
        svc.system.run_until(svc.system.now + step)
        assert got, f"no reply for {cmd}"
        replies.append(got[0])
    return replies


def _drive_direct(svc, sim, commands):
    replies = []
    for cmd in commands:
        got = []
        svc.submit(cmd, got.append)
        sim.run()
        assert got, f"no reply for {cmd}"
        replies.append(got[0])
    return replies


def _as_tuples(replies):
    return [(r.ok, r.value, r.hit) for r in replies]


class TestShardingDifferential:
    def test_same_outputs_and_final_state(self):
        commands = _workload(40)
        preload = [Command("SET", f"key:{i:08d}", b"seed") for i in range(16)]

        dsl = ShardedRedis(n_shards=2, seed=SEED)
        dsl.preload(preload)
        dsl_replies = _drive_dsl(dsl, commands)

        sim = Simulator()
        direct = DirectShardedRedis(sim, n_shards=2)
        direct.preload(preload)
        direct_replies = _drive_direct(direct, sim, commands)

        assert _as_tuples(dsl_replies) == _as_tuples(direct_replies)

        dsl_state = [
            dsl.backend_app(i).payload.store.snapshot() for i in range(2)
        ]
        direct_state = [s.store.snapshot() for s in direct.servers]
        assert dsl_state == direct_state

    def test_dsl_run_is_deterministic(self):
        commands = _workload(15)
        runs = []
        for _ in range(2):
            svc = ShardedRedis(n_shards=2, seed=SEED)
            runs.append(_as_tuples(_drive_dsl(svc, commands)))
        assert runs[0] == runs[1]


class TestFailoverDifferential:
    def test_same_outputs_and_final_state(self):
        commands = _workload(10)
        preload = [Command("SET", f"key:{i:08d}", b"seed") for i in range(16)]

        dsl = FailoverRedis(seed=SEED)
        dsl.preload(preload)
        dsl_replies = _drive_dsl(dsl, commands, step=3.0)

        sim = Simulator()
        direct = DirectFailoverRedis(sim, reregister_poll=None)
        direct.preload(preload)
        direct_replies = _drive_direct(direct, sim, commands)

        assert _as_tuples(dsl_replies) == _as_tuples(direct_replies)

        # every request ran on every warm replica in both arms
        dsl_state = [
            dsl.backend_app(i).payload.store.snapshot() for i in range(2)
        ]
        direct_state = [s.store.snapshot() for s in direct.servers]
        assert dsl_state[0] == dsl_state[1]
        assert direct_state[0] == direct_state[1]
        assert dsl_state == direct_state


class TestCachingDifferential:
    def test_same_outputs_hit_pattern_and_final_state(self):
        # heavy GET mix + small cache so evictions and hits both occur
        commands = _workload(60, get_ratio=0.7)
        preload = [Command("SET", f"key:{i:08d}", b"seed") for i in range(16)]

        dsl = CachedRedis(capacity=4, seed=SEED)
        dsl.preload(preload)
        dsl_replies = _drive_dsl(dsl, commands)

        sim = Simulator()
        direct = DirectCachedRedis(sim, capacity=4)
        direct.preload(preload)
        direct_replies = _drive_direct(direct, sim, commands)

        # identical replies including the hit/miss flag of every GET
        assert _as_tuples(dsl_replies) == _as_tuples(direct_replies)
        assert dsl.cache.hits == direct.hits
        assert dsl.cache.misses == direct.misses
        assert dsl.server.store.snapshot() == direct.server.store.snapshot()


class TestMigrationDifferential:
    def _migrate(self, svc, settle):
        done = []
        svc.migrate("NodeB", done.append)
        settle()
        assert done == [True]

    def test_same_outputs_across_a_live_migration(self):
        commands = _workload(30)
        preload = [Command("SET", f"key:{i:08d}", b"seed") for i in range(16)]
        first, second = commands[:15], commands[15:]

        dsl = MigratableRedis(seed=SEED)
        dsl.preload(preload)
        dsl_replies = _drive_dsl(dsl, first)
        self._migrate(dsl, lambda: dsl.system.run_until(dsl.system.now + 5.0))
        assert dsl.active == "NodeB"
        dsl_replies += _drive_dsl(dsl, second)

        sim = Simulator()
        direct = DirectMigratableRedis(sim)
        direct.preload(preload)
        direct_replies = _drive_direct(direct, sim, first)
        self._migrate(direct, sim.run)
        assert direct.active == "NodeB"
        direct_replies += _drive_direct(direct, sim, second)

        assert _as_tuples(dsl_replies) == _as_tuples(direct_replies)
        assert dsl.front.migrations == direct.migrations == 1
        # the migrated dataset matches: everything written pre-switch
        # moved to NodeB, and post-switch writes landed there too
        assert (
            dsl.node_server("NodeB").store.snapshot()
            == direct.node_server("NodeB").store.snapshot()
        )


class TestElasticDifferential:
    def _drive_dsl_jobs(self, svc, jobs):
        results = []
        for units in jobs:
            got = []
            svc.submit_job(units, got.append)
            svc.system.run_until(svc.system.now + 2.0)
            assert got, f"no result for job of {units} units"
            results.append(got[0])
        return results

    def _drive_direct_jobs(self, svc, sim, jobs):
        results = []
        for units in jobs:
            got = []
            svc.submit_job(units, got.append)
            sim.run()
            assert got, f"no result for job of {units} units"
            results.append(got[0])
        return results

    def test_same_placements_across_scale_out(self):
        rng = random.Random(SEED)
        jobs = [rng.randint(1, 5) for _ in range(8)]
        first, second = jobs[:4], jobs[4:]

        dsl = ElasticWorkers(seed=SEED)
        dsl_results = self._drive_dsl_jobs(dsl, first)
        scaled = []
        dsl.scale_out(scaled.append)
        dsl.system.run_until(dsl.system.now + 5.0)
        assert scaled == [True]
        dsl_results += self._drive_dsl_jobs(dsl, second)

        sim = Simulator()
        direct = DirectElasticWorkers(sim)
        direct_results = self._drive_direct_jobs(direct, sim, first)
        scaled = []
        direct.scale_out(scaled.append)
        sim.run()
        assert scaled == [True]
        direct_results += self._drive_direct_jobs(direct, sim, second)

        # same worker executed every job in both arms
        placements = [(r["worker"], r["units"]) for r in dsl_results]
        assert placements == [(r["worker"], r["units"]) for r in direct_results]
        assert dsl.active_workers == direct.active_workers
        # post-scale jobs actually reached the new worker
        assert any(w == "Wrk3" for w, _ in placements[4:])


class TestRemoteSnapshotDifferential:
    FILE = ("payload", 2_000_000)

    def _download(self, sim, hook, settle):
        server = FileServer(LinkModel(bandwidth=1_000_000_000, rtt=0.01))
        server.put(*self.FILE)
        client = TransferClient(sim, server)
        done = []
        client.download(
            self.FILE[0], done.append, audit=hook, audit_mode="continuous"
        )
        settle()
        assert done, "transfer did not complete"
        return done[0]

    def test_same_audit_trail(self):
        dsl = RemoteAuditor(placement="cross-vm", seed=SEED)
        dsl_result = self._download(
            dsl.sim,
            dsl.audit_hook(),
            lambda: dsl.system.run_until(dsl.system.now + 60.0),
        )

        sim = Simulator()
        direct = DirectRemoteAuditor(sim, placement="cross-vm")
        direct_result = self._download(sim, direct.audit_hook(), sim.run)

        # both arms audited the same milestones with the same digests
        assert dsl.audit_log == direct.audit_log
        assert len(dsl.audit_log) == dsl_result.audits > 0
        assert dsl_result.audits == direct_result.audits
        assert dsl.act.snapshots_sent == direct.snapshots_sent
        assert dsl.act.complaints == direct.complaints == 0
        # the final snapshot saw the whole file
        assert dsl.audit_log[-1]["done"] == self.FILE[1]


class TestCheckpointingDifferential:
    def test_same_recovered_state(self):
        writes = [Command("SET", f"k{i}", str(i).encode()) for i in range(12)]
        late = [Command("SET", "late", b"lost")]

        # DSL arm
        sim1 = Simulator()
        server1 = RedisServer()
        ref = {}
        dsl = CheckpointedService(
            server1, stall=lambda d: ref["p"].stall(d), sim=sim1
        )
        ref["p"] = DirectPort(sim1, server1)
        for cmd in writes:
            server1.execute(cmd, now=sim1.now)
        dsl.checkpoint_now()
        dsl.system.run_until(dsl.system.now + 2.0)
        for cmd in late:
            server1.execute(cmd, now=sim1.now)
        dsl.crash()
        dsl.system.run_until(dsl.system.now + 0.5)
        dsl.recover()
        dsl.system.run_until(dsl.system.now + 2.0)

        # direct arm
        sim2 = Simulator()
        server2 = RedisServer()
        direct = DirectCheckpointManager(sim2, server2, stall=lambda d: None)
        for cmd in writes:
            server2.execute(cmd, now=sim2.now)
        direct.checkpoint_now()
        sim2.run()
        for cmd in late:
            server2.execute(cmd, now=sim2.now)
        server2.store.flush()  # the crash
        ok = []
        direct.recover(ok.append)
        sim2.run()
        assert ok == [True]

        # both recover exactly the checkpointed 12 keys
        snap1 = server1.store.snapshot()
        snap2 = server2.store.snapshot()
        assert sorted(snap1["entries"]) == sorted(f"k{i}" for i in range(12))
        assert snap1 == snap2
