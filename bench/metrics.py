"""Metric names, units and how the per-layer ones are derived from a
trace.  ``BENCHMARK.json`` repeats these tables; ``bench/test_bench.py``
fails when the two disagree."""

from __future__ import annotations

import statistics

from .driver import percentile

#: (name, unit, better, bound) — printed by every untraced run
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("ops_per_s", "1/s", "higher", 0.25),
    ("p50_ms", "ms", "lower", 0.25),
    ("p90_ms", "ms", "lower", 0.25),
    ("cpu_ms_per_op", "ms", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.15),
)

#: layers with a ``<layer>.self_us_per_op`` metric (self time of the
#: layer's spans in the timed section, per op)
LAYERS = (
    "core", "compile", "system", "body", "kvtable", "sim", "realtime", "host",
    "delivery", "channels", "wire", "cluster", "reconfig", "telemetry",
    "redislite", "brokerlite", "driver",
)

#: (name, unit, better) — printed by every traced run; 0 where the
#: layer takes no part in the workload
PER_LAYER = (
    ("core.parse_ms", "ms", "lower"),
    ("core.compile_ms", "ms", "lower"),
    ("core.junctions", "count", "lower"),
    ("compile.codegen_ms", "ms", "lower"),
    ("compile.junctions_compiled", "count", "higher"),
    ("compile.junctions_fallback", "count", "lower"),
    ("compile.source_bytes", "B", "lower"),
    ("system.bind_ms", "ms", "lower"),
    ("system.attempts_per_op", "count", "lower"),
    ("system.scheds_per_op", "count", "lower"),
    ("system.sched_ratio", "ratio", "higher"),
    ("system.attempt_self_us", "us", "lower"),
    ("body.exec_us", "us", "lower"),
    ("kvtable.receives_per_op", "count", "lower"),
    ("kvtable.applies_per_op", "count", "lower"),
    ("kvtable.set_local_ns", "ns", "lower"),
    ("kvtable.receive_apply_ns", "ns", "lower"),
    ("kvtable.tx_rollback_ns", "ns", "lower"),
    ("kvtable.snapshot_restore_us", "us", "lower"),
    ("sim.timers_per_op", "count", "lower"),
    ("sim.p50_ms", "sim_ms", "lower"),  # simulated time: repeats exactly per seed
    ("sim.p99_ms", "sim_ms", "lower"),
    ("realtime.timers_per_op", "count", "lower"),
    ("realtime.timer_lag_us_p50", "us", "lower"),
    ("realtime.idle_share", "ratio", "lower"),
    ("host.calls_per_op", "count", "lower"),
    ("host.busy_us_per_op", "us", "lower"),
    ("host.wait_us_per_op", "us", "lower"),
    ("delivery.sends_per_op", "count", "lower"),
    ("delivery.retransmits_per_op", "count", "lower"),
    ("delivery.retransmit_ratio", "ratio", "lower"),
    ("delivery.failures", "count", "lower"),
    ("channels.msgs_per_op", "count", "lower"),
    ("channels.dropped", "count", "lower"),
    ("channels.dedup_suppressed", "count", "lower"),
    ("wire.encode_us", "us", "lower"),
    ("wire.decode_us", "us", "lower"),
    ("wire.bytes_per_op", "B", "lower"),
    ("wire.frames_per_op", "count", "lower"),
    ("cluster.relay_rtt_us_p50", "us", "lower"),
    ("cluster.worker_cpu_ms_per_op", "ms", "lower"),
    ("cluster.spawn_ms", "ms", "lower"),
    ("reconfig.diff_ms", "ms", "lower"),
    ("reconfig.plan_ms", "ms", "lower"),
    ("reconfig.execute_ms", "ms", "lower"),
    ("reconfig.window_ms", "ms", "lower"),
    ("reconfig.ops_in_window", "count", "lower"),
    ("telemetry.events_per_op", "count", "lower"),
    ("telemetry.ring_dropped", "count", "lower"),
    ("telemetry.export_ms", "ms", "lower"),
    ("workload.materialize_ms", "ms", "lower"),
    ("workload.late_ms_p99", "ms", "lower"),
    ("driver.p99_ms", "ms", "lower"),
    ("redislite.exec_us", "us", "lower"),
    ("brokerlite.exec_us", "us", "lower"),
    ("trace.overhead_share", "ratio", "lower"),
    ("trace.attributed_share", "ratio", "higher"),
    ("trace.unattributed_us_per_op", "us", "lower"),
) + tuple((f"{layer}.self_us_per_op", "us", "lower") for layer in LAYERS)


def _layer_of(span_name: str) -> str:
    layer = span_name.split(".", 1)[0]
    return "cluster" if layer == "supervisor" else layer


def per_layer(tracer, out, root, reference_ops_per_s: float, fixed: dict) -> dict:
    """Every ``PER_LAYER`` value for one traced section.  ``root`` is
    the section's enclosing span, ``out`` the workload's outcome and
    ``fixed`` the values measured outside the trace (probes, codec
    replay, export time)."""
    window = tracer.summary(root)
    whole = tracer.summary()
    ops = max(out.ops, 1)
    wall = root.end - root.start

    def count(name, table=window):
        return table.get(name, (0, 0.0, 0.0))[0]

    def total(name, table=window):
        return table.get(name, (0, 0.0, 0.0))[1]

    def mean_ms(name):  # per call, over the whole trace (set-up included)
        return total(name, whole) / count(name, whole) * 1e3 if count(name, whole) else 0.0

    def mean_us(name):
        return total(name) / count(name) * 1e6 if count(name) else 0.0

    layer_self: dict[str, float] = {}
    for name, (_, _, self_s) in window.items():
        layer = _layer_of(name)
        layer_self[layer] = layer_self.get(layer, 0.0) + self_s

    m = {name: 0.0 for name, _, _ in PER_LAYER}
    m.update({k: v for k, v in out.extra.items() if k in m})
    m.update(fixed)

    m["core.parse_ms"] = mean_ms("core.parse")
    m["core.compile_ms"] = mean_ms("core.compile")
    m["compile.codegen_ms"] = mean_ms("compile.codegen")
    m["compile.junctions_compiled"] = tracer.compiled
    m["compile.junctions_fallback"] = tracer.fallback
    m["compile.source_bytes"] = tracer.source_bytes / max(tracer.compiled, 1)
    builds = count("system.init", whole)
    m["system.bind_ms"] = (
        (total("system.init", whole) + total("system.start", whole)) / builds * 1e3
        if builds else 0.0)
    if not m["core.junctions"] and tracer.systems:
        m["core.junctions"] = statistics.fmean(
            sum(len(i.junctions) for i in s.instances.values() if i.running)
            for s in tracer.systems)

    attempts, scheds = count("system.attempt"), count("body.start")
    m["system.attempts_per_op"] = attempts / ops
    m["system.scheds_per_op"] = scheds / ops
    m["system.sched_ratio"] = scheds / attempts if attempts else 0.0
    m["system.attempt_self_us"] = (
        window["system.attempt"][2] / attempts * 1e6 if attempts else 0.0)
    execs = tracer.async_durations("body.exec", root.start)
    m["body.exec_us"] = statistics.fmean(execs) * 1e6 if execs else 0.0
    m["kvtable.receives_per_op"] = count("kvtable.receive") / ops
    m["kvtable.applies_per_op"] = (count("kvtable.apply") + count("kvtable.apply_for")) / ops

    on_sim = count("sim.run_until") > 0
    if on_sim and not m["sim.timers_per_op"]:
        m["sim.timers_per_op"] = root.timers / ops
    m["realtime.timers_per_op"] = 0.0 if on_sim else root.timers / ops
    lags = sorted(tracer.timer_lags[root.lags_first:])
    m["realtime.timer_lag_us_p50"] = percentile(lags, 0.5) * 1e6
    m["realtime.idle_share"] = 0.0 if on_sim else max(0.0, 1.0 - root.cpu / wall)

    m["host.calls_per_op"] = count("host.fn") / ops
    m["host.busy_us_per_op"] = total("host.fn") / ops * 1e6
    # thread-pool hand-off: invoke -> done, minus the function itself
    calls = tracer.async_durations("host.call", root.start)
    busy = tracer.host_busy[len(tracer.host_busy) - len(calls):] if calls else []
    m["host.wait_us_per_op"] = (sum(calls) - sum(busy)) / ops * 1e6

    stats: dict[str, int] = {}
    for system in out.systems:
        for key, value in system.network.stats.items():
            stats[key] = stats.get(key, 0) + value
    sent = max(stats.get("sent", 0), 1)
    m["delivery.sends_per_op"] = count("delivery.send") / ops
    m["channels.msgs_per_op"] = count("channels.send") / ops
    m["delivery.retransmit_ratio"] = stats.get("retransmits", 0) / sent
    m["delivery.retransmits_per_op"] = m["delivery.retransmit_ratio"] * m["channels.msgs_per_op"]
    m["delivery.failures"] = stats.get("delivery_failures", 0)
    m["channels.dropped"] = stats.get("dropped", 0)
    m["channels.dedup_suppressed"] = stats.get("dedup_suppressed", 0)
    m["wire.bytes_per_op"] = root.wire_bytes / ops
    m["wire.frames_per_op"] = count("wire.frame") / ops
    relays = sorted(tracer.async_durations("cluster.relay", root.start))
    m["cluster.relay_rtt_us_p50"] = percentile(relays, 0.5) * 1e6
    m["cluster.spawn_ms"] = mean_ms("cluster.spawn")

    m["reconfig.diff_ms"] = mean_ms("reconfig.diff")
    m["reconfig.plan_ms"] = mean_ms("reconfig.plan")
    m["reconfig.execute_ms"] = mean_us("reconfig.execute") / 1e3
    if tracer.reports:
        m["reconfig.window_ms"] = statistics.fmean(r.duration for r in tracer.reports) * 1e3
    m["telemetry.events_per_op"] = count("telemetry.emit") / ops
    m["telemetry.ring_dropped"] = sum(s.telemetry.events.dropped for s in out.systems)
    m["redislite.exec_us"] = mean_us("redislite.exec")
    m["brokerlite.exec_us"] = mean_us("brokerlite.exec")
    if not m["driver.p99_ms"]:
        m["driver.p99_ms"] = percentile(
            [ms for s in out.slices for ms in s.latencies_ms], 0.99)

    for layer in LAYERS:
        m[f"{layer}.self_us_per_op"] = layer_self.get(layer, 0.0) / ops * 1e6
    unattributed = layer_self.get("driver", 0.0) + layer_self.get("other", 0.0)
    m["trace.unattributed_us_per_op"] = unattributed / ops * 1e6
    m["trace.attributed_share"] = (sum(layer_self.values()) - unattributed) / wall
    traced_ops_per_s = out.ops / out.wall if out.wall else 0.0
    m["trace.overhead_share"] = (
        1.0 - traced_ops_per_s / reference_ops_per_s if reference_ops_per_s else 0.0)
    return m
