"""Direct (non-DSL) control-arm tests: messaging, sharding, caching,
checkpointing."""

import pytest

from benchmarks.control import (
    DirectCachedRedis,
    DirectCheckpointManager,
    DirectShardedRedis,
    MessageBus,
)
from repro.redislite import BenchDriver, Command, RedisServer, WorkloadGenerator
from repro.runtime.sim import Simulator


class TestMessageBus:
    def test_request_response(self):
        sim = Simulator()
        bus = MessageBus(sim, latency=0.01)
        a = bus.endpoint("a")
        b = bus.endpoint("b")
        b.on("echo", lambda env: env.body[1].upper())
        got = []
        a.request("b", "echo", "hi", got.append)
        sim.run()
        assert got == ["HI"]

    def test_timeout_fires(self):
        sim = Simulator()
        bus = MessageBus(sim, latency=0.01)
        a = bus.endpoint("a")
        timeouts = []
        a.request("nowhere", "x", None, lambda r: None, timeout=0.1,
                  on_timeout=lambda: timeouts.append(sim.now))
        sim.run()
        assert timeouts == [pytest.approx(0.1)]

    def test_retry_then_success(self):
        sim = Simulator()
        bus = MessageBus(sim, latency=0.01)
        a = bus.endpoint("a")
        b = bus.endpoint("b")
        b.on("x", lambda env: "ok")
        bus.set_down("b")
        sim.call_at(0.15, lambda: bus.set_down("b", False))
        got = []
        a.request("b", "x", None, got.append, timeout=0.1, retries=2)
        sim.run()
        assert got == ["ok"]

    def test_oneway(self):
        sim = Simulator()
        bus = MessageBus(sim, latency=0.01)
        a = bus.endpoint("a")
        b = bus.endpoint("b")
        seen = []
        b.on("note", lambda env: seen.append(env.body[1]))
        a.oneway("b", "note", 42)
        sim.run()
        assert seen == [42]

    def test_broadcast(self):
        sim = Simulator()
        bus = MessageBus(sim, latency=0.01)
        a = bus.endpoint("a")
        seen = []
        for name in ("b", "c"):
            ep = bus.endpoint(name)
            ep.on("hello", lambda env, n=name: seen.append(n))
        bus.broadcast("a", "hello", None)
        sim.run()
        assert sorted(seen) == ["b", "c"]

    def test_down_endpoint_ignores(self):
        sim = Simulator()
        bus = MessageBus(sim, latency=0.01)
        a = bus.endpoint("a")
        b = bus.endpoint("b")
        b.alive = False
        b.on("x", lambda env: "ok")
        got, timeouts = [], []
        a.request("b", "x", None, got.append, timeout=0.1,
                  on_timeout=lambda: timeouts.append(1))
        sim.run()
        assert got == [] and timeouts == [1]


class TestDirectSharding:
    def test_shard_by_key(self):
        sim = Simulator()
        svc = DirectShardedRedis(sim, 4)
        wl = WorkloadGenerator(n_keys=100, seed=13)
        svc.preload(wl.preload_commands())
        assert sum(svc.shard_sizes()) == 100
        res = BenchDriver(sim, svc, wl, clients=4).run(0.5)
        assert res.count > 100
        assert svc.failed_requests == 0

    def test_shard_timeout_marks_unhealthy(self):
        sim = Simulator()
        svc = DirectShardedRedis(sim, 2, timeout=0.1)
        svc.bus.set_down("shard0")
        # find a shard-0 key
        from repro.redislite import djb2

        key = next(f"k{i}" for i in range(100) if djb2(f"k{i}") % 2 == 0)
        got = []
        svc.submit(Command("GET", key), got.append)
        sim.run()
        assert not got[0].ok
        assert svc.healthy[0] is False

    def test_size_mode(self):
        sim = Simulator()
        svc = DirectShardedRedis(sim, 4, mode="size", size_table={"a": 100, "b": 70000})
        svc.preload([Command("SET", "a", b"x"), Command("SET", "b", b"y")])
        sizes = svc.shard_sizes()
        assert sizes[0] == 1 and sizes[2] == 1


class TestDirectCaching:
    def test_hit_miss(self):
        sim = Simulator()
        svc = DirectCachedRedis(sim, capacity=10)
        svc.preload([Command("SET", "k", b"v")])
        got = []
        svc.submit(Command("GET", "k"), got.append)
        sim.run()
        svc.submit(Command("GET", "k"), got.append)
        sim.run()
        assert got[0].value == b"v" and got[1].value == b"v"
        assert svc.hits == 1 and svc.misses == 1

    def test_set_invalidates(self):
        sim = Simulator()
        svc = DirectCachedRedis(sim, capacity=10)
        svc.preload([Command("SET", "k", b"old")])
        got = []
        svc.submit(Command("GET", "k"), got.append)
        sim.run()
        svc.submit(Command("SET", "k", b"new"), got.append)
        sim.run()
        svc.submit(Command("GET", "k"), got.append)
        sim.run()
        assert got[-1].value == b"new"

    def test_concurrent_misses_collapsed(self):
        sim = Simulator()
        svc = DirectCachedRedis(sim, capacity=10)
        svc.preload([Command("SET", "k", b"v")])
        got = []
        svc.submit(Command("GET", "k"), got.append)
        svc.submit(Command("GET", "k"), got.append)  # same tick, in flight
        sim.run()
        assert len(got) == 2 and all(r.value == b"v" for r in got)
        assert svc.server.commands_executed == 2  # preload SET + one GET


class TestDirectCheckpointing:
    def test_checkpoint_and_recover(self):
        sim = Simulator()
        server = RedisServer()
        for i in range(20):
            server.execute(Command("SET", f"k{i}", b"v"))
        stalls = []
        mgr = DirectCheckpointManager(sim, server, stall=stalls.append)
        mgr.checkpoint_now()
        sim.run()
        assert mgr.acked == 1 and stalls
        server.store.flush()
        ok = []
        mgr.recover(ok.append)
        sim.run()
        assert ok == [True]
        assert server.store.size() == 20

    def test_recover_without_snapshot(self):
        sim = Simulator()
        mgr = DirectCheckpointManager(sim, RedisServer(), stall=lambda d: None)
        ok = []
        mgr.recover(ok.append)
        sim.run()
        assert ok == [False]

    def test_storage_keeps_newest_seq(self):
        sim = Simulator()
        server = RedisServer()
        mgr = DirectCheckpointManager(sim, server, stall=lambda d: None)
        server.execute(Command("SET", "a", b"1"))
        mgr.checkpoint_now()
        sim.run()
        server.execute(Command("SET", "b", b"2"))
        mgr.checkpoint_now()
        sim.run()
        assert mgr.stored_seq == 1
        assert "b" in mgr.stored_snapshot["store"]["entries"]

    def test_scheduled(self):
        sim = Simulator()
        mgr = DirectCheckpointManager(sim, RedisServer(), stall=lambda d: None)
        mgr.schedule_checkpoints(1.0, 3.0)
        sim.run_until(4.0)
        assert mgr.checkpoints == 3
