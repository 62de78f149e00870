#!/usr/bin/env python
"""Re-architecting redislite for sharding (paper sec. 5.2 / Fig. 23b).

Runs the same redis-benchmark-style workload against:

* the unmodified single server (baseline),
* the DSL sharding architecture, by key hash and by object size,

and prints per-shard request distributions and latency statistics.

Run:  python examples/redis_sharding.py
"""

from repro.api import Simulator
from repro.arch.sharding import ShardedRedis
from repro.redislite import (
    BenchDriver,
    DirectPort,
    RedisServer,
    WorkloadGenerator,
)

DURATION = 3.0
N_SHARDS = 4


def run_baseline(wl_seed: int) -> None:
    sim = Simulator()
    server = RedisServer()
    port = DirectPort(sim, server)
    wl = WorkloadGenerator(n_keys=1000, seed=wl_seed)
    for cmd in wl.preload_commands():
        server.execute(cmd)
    res = BenchDriver(sim, port, wl, clients=8).run(DURATION)
    print(f"baseline      : {res.count:7d} req  "
          f"p50={res.percentile(0.5)*1e6:7.0f}us  p99={res.percentile(0.99)*1e6:7.0f}us")


def run_dsl(mode: str, wl: WorkloadGenerator) -> None:
    size_table = {k: wl.key_size(k) for k in wl._keys} if mode == "size" else None
    svc = ShardedRedis(N_SHARDS, mode=mode, size_table=size_table)
    svc.preload(wl.preload_commands())
    res = BenchDriver(svc.sim, svc, wl, clients=8).run(DURATION)
    dist = [f"{c:6d}" for c in svc.shard_counts]
    print(f"dsl ({mode:4s})    : {res.count:7d} req  shards=[{' '.join(dist)}]  "
          f"p50={res.percentile(0.5)*1e6:7.0f}us")


def main() -> None:
    print(f"== redislite sharding, {DURATION}s simulated, {N_SHARDS} shards ==")
    run_baseline(11)

    # even workload
    wl = WorkloadGenerator(n_keys=1000, seed=11)
    run_dsl("key", wl)

    # uneven workload: shard-residue weights 4:2:1:1 (the paper's
    # "uneven workloads place different pressure on different back-ends")
    wl_uneven = WorkloadGenerator(n_keys=1000, seed=11, shard_weights=(4, 2, 1, 1))
    svc = ShardedRedis(N_SHARDS, mode="key")
    svc.preload(wl_uneven.preload_commands())
    res = BenchDriver(svc.sim, svc, wl_uneven, clients=8).run(DURATION)
    dist = [f"{c:6d}" for c in svc.shard_counts]
    print(f"dsl uneven    : {res.count:7d} req  shards=[{' '.join(dist)}]  "
          f"(expect ~4:2:1:1)")

    # object-size sharding (0-4KB / 4-64KB / >64KB classes)
    wl_sized = WorkloadGenerator(
        n_keys=400, seed=11, size_class_weights=(0.7, 0.25, 0.05), get_ratio=0.8
    )
    run_dsl("size", wl_sized)

    print("done.")


if __name__ == "__main__":
    main()
