"""Architecture tests over redislite: sharding, caching, loader, LoC."""

import pytest

from repro.arch.caching import CachedRedis, LruCache
from repro.arch.loader import ARCHITECTURES, backend_names, load_program, load_source
from repro.arch.sharding import (
    ShardedRedis,
    key_hash_chooser,
    object_size_chooser,
)
from repro.redislite import BenchDriver, Command, WorkloadGenerator, djb2


class TestLoader:
    @pytest.mark.parametrize("name", ARCHITECTURES)
    def test_all_architectures_compile(self, name):
        kwargs = {"n_backends": 4} if name == "sharding" else {}
        prog = load_program(name, **kwargs)
        assert prog.junctions

    def test_sharding_backend_count(self):
        prog = load_program("sharding", n_backends=3)
        assert len(prog.instance_map()) == 4  # front + 3

    def test_unknown_architecture(self):
        with pytest.raises(FileNotFoundError):
            load_source("teleportation")

    def test_n_backends_only_for_sharding(self):
        with pytest.raises(ValueError):
            load_program("caching", n_backends=2)

    def test_backend_names(self):
        assert backend_names(2) == ["Bck1", "Bck2"]


class TestChoosers:
    def test_key_hash_chooser_matches_djb2(self):
        c = key_hash_chooser(4)
        assert c({"key": "abc"}) == djb2("abc") % 4

    def test_size_chooser_classes(self):
        c = object_size_chooser(4, {"small": 100, "mid": 10_000, "big": 100_000})
        assert c({"key": "small"}) == 0
        assert c({"key": "mid"}) == 1
        assert c({"key": "big"}) == 2

    def test_size_chooser_unknown_key_uses_request_size(self):
        c = object_size_chooser(4, {})
        assert c({"key": "x", "size": 50}) == 0


class TestShardedRedis:
    def test_requests_served(self):
        svc = ShardedRedis(n_shards=2)
        got = []
        svc.submit(Command("SET", "k", b"v"), got.append)
        svc.system.run_until(svc.system.now + 2.0)
        svc.submit(Command("GET", "k"), got.append)
        svc.system.run_until(svc.system.now + 2.0)
        assert got[0].ok
        assert got[1].value == b"v"

    def test_sharding_is_by_key_hash(self):
        svc = ShardedRedis(n_shards=4)
        wl = WorkloadGenerator(n_keys=100, seed=8)
        svc.preload(wl.preload_commands())
        expected = [0, 0, 0, 0]
        for k in wl._keys:
            expected[djb2(k) % 4] += 1
        assert svc.shard_sizes() == expected

    def test_bench_runs_clean(self):
        svc = ShardedRedis(n_shards=4)
        wl = WorkloadGenerator(n_keys=100, seed=9)
        svc.preload(wl.preload_commands())
        res = BenchDriver(svc.sim, svc, wl, clients=4).run(1.0)
        assert res.count > 100
        assert svc.system.failures == []
        # at most `clients` requests may still be in flight at the cut
        inflight = sum(svc.shard_counts) - (res.count + svc.front.failed)
        assert 0 <= inflight <= 4

    def test_size_mode_uses_size_table(self):
        wl = WorkloadGenerator(n_keys=60, seed=10, size_class_weights=(0.6, 0.3, 0.1))
        table = {k: wl.key_size(k) for k in wl._keys}
        svc = ShardedRedis(n_shards=4, mode="size", size_table=table)
        svc.preload(wl.preload_commands())
        sizes = svc.shard_sizes()
        assert sizes[3] == 0  # only 3 classes in use
        assert sizes[0] > 0

    def test_bad_mode(self):
        with pytest.raises(ValueError):
            ShardedRedis(mode="astrology")

    def test_backend_crash_fails_requests_then_recovers(self):
        svc = ShardedRedis(n_shards=2, timeout=0.3)
        wl = WorkloadGenerator(n_keys=40, seed=11)
        svc.preload(wl.preload_commands())
        # find a key on shard 0
        key0 = next(k for k in wl._keys if djb2(k) % 2 == 0)
        svc.system.crash_instance("Bck1")
        got = []
        svc.submit(Command("GET", key0), got.append)
        svc.system.run_until(svc.system.now + 3.0)
        assert got and not got[0].ok  # timed out, complained
        svc.system.restart_instance("Bck1")
        svc.submit(Command("GET", key0), got.append)
        svc.system.run_until(svc.system.now + 3.0)
        assert got[-1].ok is True


class TestCachedRedis:
    def test_hit_skips_backend(self):
        svc = CachedRedis(capacity=10)
        svc.preload([Command("SET", "k", b"v")])
        got = []
        svc.submit(Command("GET", "k"), got.append)
        svc.system.run_until(svc.system.now + 2.0)
        backend_calls = svc.server.commands_executed
        svc.submit(Command("GET", "k"), got.append)
        svc.system.run_until(svc.system.now + 2.0)
        assert got[1].value == b"v"
        assert svc.server.commands_executed == backend_calls  # served from cache
        assert svc.cache.hits == 1

    def test_set_invalidates(self):
        svc = CachedRedis(capacity=10)
        svc.preload([Command("SET", "k", b"old")])
        got = []
        svc.submit(Command("GET", "k"), got.append)       # miss, caches "old"
        svc.system.run_until(svc.system.now + 2.0)
        svc.submit(Command("SET", "k", b"new"), got.append)
        svc.system.run_until(svc.system.now + 2.0)
        svc.submit(Command("GET", "k"), got.append)       # must not be stale
        svc.system.run_until(svc.system.now + 2.0)
        assert got[-1].value == b"new"

    def test_skewed_workload_hits(self):
        svc = CachedRedis(capacity=150)
        wl = WorkloadGenerator(n_keys=1000, get_ratio=0.9, skew=(0.1, 0.9), seed=12)
        svc.preload(wl.preload_commands())
        res = BenchDriver(svc.sim, svc, wl, clients=4).run(1.0)
        assert res.count > 100
        hit_rate = svc.cache.hits / max(1, svc.cache.hits + svc.cache.misses)
        assert hit_rate > 0.5
        assert svc.system.failures == []


class TestLruCache:
    def test_eviction_order(self):
        c = LruCache(2)
        c.put("a", b"1")
        c.put("b", b"2")
        c.get("a")          # refresh a
        c.put("c", b"3")    # evicts b
        assert c.get("b") is None
        assert c.get("a") == b"1"
        assert len(c) == 2

    def test_invalidate(self):
        c = LruCache(2)
        c.put("a", b"1")
        c.invalidate("a")
        assert c.get("a") is None

    def test_counters(self):
        c = LruCache(2)
        c.put("a", b"1")
        c.get("a")
        c.get("z")
        c.get("z")
        assert (c.hits, c.misses) == (1, 2)
