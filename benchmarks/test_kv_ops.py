"""KV-table micro-op benchmark: the junction-state write path in isolation.

The storm workloads of ``bench/run.py`` (``sim-failover-storm``) measure
the whole pipeline; this one times the :class:`KVTable`
primitives the write path is built from — ``set_local`` with and
without a pending backlog, idle ``receive`` + ``apply_pending`` cycles,
``effective`` previews over a backlog, ``keep``, and a
transaction open/write/rollback cycle — on a table shaped like the
failover junctions (a dozen declared keys).

Each op's cost is recorded into ``BENCH_kv_ops.json`` tagged with the
state-layer implementation (``impl``), so the file carries the
before/after history of the slot-addressed refactor: ``dict-core`` rows
were measured on the seed dict-of-objects table, ``slot-core`` rows on
the slot-addressed layer that replaced it.
"""

import time

from conftest import print_table, record_bench

from repro.runtime.kvtable import KVTable, Update

#: implementation tag stamped on every recorded row
IMPL = "slot-core"

#: per-op repetitions (each timed loop re-runs the op this many times)
N = 50_000
#: pending-backlog depth for the backlog-sensitive ops
BACKLOG = 64
#: declared keys (failover junctions declare ~a dozen)
KEYS = [f"K{i}" for i in range(12)]


def make_table(executing=False):
    t = KVTable("bench::j")
    for k in KEYS:
        t.declare(k, False)
    t.executing = executing
    return t


def _backlog(t, n=BACKLOG):
    """Queue ``n`` pending updates spread over the non-target keys
    (``receive`` while executing with no open window enqueues)."""
    for i in range(n):
        t.receive(Update(key=KEYS[1 + i % (len(KEYS) - 1)], value=True, src="peer::j"))


def bench_set_local_clean():
    t = make_table(executing=True)
    t0 = time.perf_counter()
    for i in range(N):
        t.set_local("K0", i & 1 == 0)
    return time.perf_counter() - t0, N


def bench_set_local_backlog():
    t = make_table(executing=True)
    _backlog(t)
    t0 = time.perf_counter()
    for i in range(N):
        t.set_local("K0", i & 1 == 0)
    return time.perf_counter() - t0, N


def bench_receive_apply():
    t = make_table(executing=False)
    ups = [Update(key=KEYS[i % len(KEYS)], value=True, src="peer::j") for i in range(8)]
    rounds = N // 8
    t0 = time.perf_counter()
    for _ in range(rounds):
        for u in ups:
            t.receive(u)
        t.apply_pending()
    return time.perf_counter() - t0, rounds * 8


def bench_effective_backlog():
    t = make_table(executing=False)
    _backlog(t)
    t0 = time.perf_counter()
    for _ in range(N):
        t.effective("K0")
    return time.perf_counter() - t0, N


def bench_keep_backlog():
    t = make_table(executing=True)
    rounds = N // 10
    t0 = time.perf_counter()
    for _ in range(rounds):
        _backlog(t, 10)
        t.keep(KEYS)
    return time.perf_counter() - t0, rounds


def bench_tx_cycle():
    t = make_table(executing=True)
    rounds = N // 4
    t0 = time.perf_counter()
    for _ in range(rounds):
        t.tx_begin()
        t.set_local("K0", True)
        t.set_local("K1", True)
        t.tx_rollback()
    return time.perf_counter() - t0, rounds


OPS = [
    ("set_local/clean", bench_set_local_clean),
    ("set_local/backlog", bench_set_local_backlog),
    ("receive+apply", bench_receive_apply),
    ("effective/backlog", bench_effective_backlog),
    ("keep/backlog", bench_keep_backlog),
    ("tx begin+2w+rollback", bench_tx_cycle),
]


def test_kv_micro_ops(benchmark=None):
    rows = []
    total_wall = 0.0
    for name, fn in OPS:
        best = float("inf")
        n_ops = 1
        for _ in range(3):
            wall, n_ops = fn()
            total_wall += wall
            best = min(best, wall)
        ns_per_op = best / n_ops * 1e9
        rows.append([name, f"{ns_per_op:,.0f}"])
        record_bench(
            "kv_ops",
            {
                "op": name,
                "impl": IMPL,
                "n_ops": n_ops,
                "backlog": BACKLOG,
                "keys": len(KEYS),
                "ns_per_op": round(ns_per_op, 1),
            },
            wall_seconds=best,
        )
        # sanity ceiling only — micro-op walls are machine-dependent;
        # regressions are judged against the recorded history
        assert ns_per_op < 1e6, (name, ns_per_op)
    print_table(
        f"KV micro-ops ({IMPL}, ns/op, best of 3)",
        ["op", "ns/op"],
        rows,
    )
