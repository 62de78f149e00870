"""Junction-compiler speedup: sim event throughput, compiled vs interpreted.

Acceptance figure for the build-time junction compiler
(docs/RUNTIME.md, "The junction compiler"): the same external-update
storm is driven through two shipped architectures with the compiler
off (tree-walking interpreter) and on (specialized generated
bodies), and the ratio of sim *event* throughput is recorded into
``BENCH_compile_throughput.json``.

The storm targets ``FrontT::b`` — a guard-less junction whose body
falls through its case arms on the probe key — so each
``external_update`` costs two scheduling attempts plus one body
execution per mode, and the measured delta is dominated by
guard/body evaluation rather than I/O plumbing.  Telemetry is
disabled so neither mode pays export serialization; event counts are
taken from the simulator's global sequence counter and asserted
equal across modes (same semantics, different evaluator).

Walls are best-of-``ROUNDS`` with the modes interleaved inside each
round, which cancels most machine noise; the target ratio is >= 4x on
both architectures.  It was 8x while the tree-walker re-imported the
formula classes on every index resolution; with that gone the
tree-walker runs the storm ~2x faster and the ratio sits near 5x with
the compiled side unchanged.  A ratio cannot tell those apart, so the
regression gates are the absolute storm floors in CI's compile-bench
job; this floor only says the compiler is still worth having.
"""

import statistics
import time

from conftest import print_table, record_bench

from repro.arch.failover import FailoverRedis, FastFailoverRedis
from repro.compile import compilation

#: external updates per timed storm
N_UPDATES = 20_000
#: drain the zero-delay lane every this many updates
DRAIN_EVERY = 512
#: best-of rounds, modes interleaved within each round
ROUNDS = 3
#: acceptance floor on events/sec ratio, compiled over interpreted
TARGET_RATIO = 4.0

ARCHES = (
    ("failover", lambda: FailoverRedis(seed=0)),
    ("failover_fast", lambda: FastFailoverRedis(seed=0)),
)


def storm(make, compiled):
    """One build + storm; returns (wall_seconds, n_events, latencies)
    where latencies are per-``DRAIN_EVERY``-batch walls (submit the
    batch + drain the zero-delay lane), in seconds."""
    with compilation(compiled):
        svc = make()
    svc.system.telemetry.enabled = False
    sim = svc.system.sim
    svc.system.run_until(sim.now + 2.0)  # settle startup churn
    e0 = next(sim._seq)
    latencies = []
    t0 = time.perf_counter()
    tb = t0
    for i in range(N_UPDATES):
        svc.system.external_update("f::b", "Retried", False)
        if i % DRAIN_EVERY == DRAIN_EVERY - 1:
            svc.system.run_until(sim.now + 0.001)
            now_w = time.perf_counter()
            latencies.append(now_w - tb)
            tb = now_w
    svc.system.run_until(sim.now + 1.0)
    wall = time.perf_counter() - t0
    n_events = next(sim._seq) - e0
    assert not svc.system.failures, svc.system.failures[:2]
    svc.system.shutdown()
    return wall, n_events, latencies


def test_compile_throughput():
    rows = []
    ratios = {}
    for name, make in ARCHES:
        best = {False: float("inf"), True: float("inf")}
        events = {}
        lat = {}
        for _ in range(ROUNDS):
            for compiled in (False, True):
                wall, n_events, lats = storm(make, compiled)
                if wall < best[compiled]:
                    best[compiled] = wall
                    lat[compiled] = lats
                events[compiled] = n_events
        # Same storm, same semantics: the event streams must agree.
        assert events[False] == events[True], (name, events)
        n_ev = events[True]
        eps_interp = n_ev / best[False]
        eps_compiled = n_ev / best[True]
        ratio = eps_compiled / eps_interp
        ratios[name] = ratio

        def batch_ms(latencies, q):
            return statistics.quantiles(latencies, n=100)[q - 1] * 1e3

        record_bench(
            "compile_throughput",
            {
                "arch": name,
                "n_updates": N_UPDATES,
                "n_events": n_ev,
                "interp_wall_s": round(best[False], 4),
                "compiled_wall_s": round(best[True], 4),
                "interp_events_per_sec": round(eps_interp, 1),
                "compiled_events_per_sec": round(eps_compiled, 1),
                "interp_batch_p50_ms": round(batch_ms(lat[False], 50), 3),
                "interp_batch_p99_ms": round(batch_ms(lat[False], 99), 3),
                "compiled_batch_p50_ms": round(batch_ms(lat[True], 50), 3),
                "compiled_batch_p99_ms": round(batch_ms(lat[True], 99), 3),
                "batch_size": DRAIN_EVERY,
                "ratio": round(ratio, 2),
                "target_ratio": TARGET_RATIO,
                "rounds": ROUNDS,
            },
            wall_seconds=best[False] + best[True],
        )
        rows.append(
            [
                name,
                f"{eps_interp:,.0f}",
                f"{eps_compiled:,.0f}",
                f"{ratio:.2f}x",
            ]
        )

    print_table(
        "junction compiler: sim event throughput (%d-update storm)" % N_UPDATES,
        ["arch", "interp ev/s", "compiled ev/s", "speedup"],
        rows,
    )
    for name, ratio in ratios.items():
        assert ratio >= TARGET_RATIO, (
            f"{name}: compiled/interpreted event throughput {ratio:.2f}x "
            f"below the {TARGET_RATIO}x target"
        )
