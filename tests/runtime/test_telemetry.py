"""Telemetry subsystem tests: facade, metrics registry, causal links,
ring-buffer retention, exporters, and the deprecated-API shims."""

import json
import sys
import warnings

import pytest

from repro.telemetry import (
    DEFAULT_TIME_BUCKETS,
    Counter,
    Histogram,
    MetricsRegistry,
    RingBufferSink,
    Telemetry,
    TraceEvent,
    capture_systems,
    to_chrome,
    to_jsonl,
)

from .helpers import make_system, pair


class _Clock:
    def __init__(self):
        self.now = 0.0


# ---------------------------------------------------------------------------
# Metrics registry
# ---------------------------------------------------------------------------


class TestMetrics:
    def test_counter_labels_are_distinct(self):
        reg = MetricsRegistry()
        reg.counter("net_sent", kind="update").inc()
        reg.counter("net_sent", kind="update").inc()
        reg.counter("net_sent", kind="ack").inc()
        assert reg.counter("net_sent", kind="update").value == 2
        assert reg.counter("net_sent", kind="ack").value == 1
        assert reg.sum("net_sent") == 3

    def test_same_handle_for_same_labels(self):
        reg = MetricsRegistry()
        assert reg.counter("c", a="1", b="2") is reg.counter("c", b="2", a="1")

    def test_type_clash_rejected(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(TypeError):
            reg.gauge("x")

    def test_gauge_moves_both_ways(self):
        reg = MetricsRegistry()
        g = reg.gauge("depth", node="a")
        g.inc(3)
        g.dec()
        assert g.value == 2
        g.set(7)
        assert g.value == 7

    def test_histogram_mean_is_exact(self):
        h = Histogram()
        for v in (0.001, 0.002, 0.003):
            h.observe(v)
        assert h.mean() == pytest.approx(0.002)
        assert h.count == 3

    def test_histogram_percentile_within_bucket_bounds(self):
        h = Histogram()
        for _ in range(100):
            h.observe(0.0015)  # lands in the (0.001, 0.002] bucket
        p50 = h.percentile(0.5)
        assert 0.001 <= p50 <= 0.002

    def test_histogram_overflow_bucket(self):
        h = Histogram(bounds=(1.0, 2.0))
        h.observe(10.0)
        assert h.nonzero_buckets() == [(float("inf"), 1)]

    def test_default_buckets_are_1_2_5_ladder(self):
        assert DEFAULT_TIME_BUCKETS[0] == pytest.approx(1e-6)
        assert DEFAULT_TIME_BUCKETS[1] == pytest.approx(2e-6)
        assert DEFAULT_TIME_BUCKETS[2] == pytest.approx(5e-6)
        assert DEFAULT_TIME_BUCKETS[-1] == pytest.approx(500.0)

    def test_sum_filters_on_labels(self):
        reg = MetricsRegistry()
        reg.counter("n", src="a", dst="b").inc(2)
        reg.counter("n", src="a", dst="c").inc(3)
        assert reg.sum("n", src="a") == 5
        assert reg.sum("n", dst="c") == 3
        assert reg.sum("missing") == 0

    def test_snapshot_is_deterministic(self):
        def build():
            reg = MetricsRegistry()
            reg.counter("b", z="1").inc()
            reg.counter("a").inc(2)
            reg.histogram("h", node="n").observe(0.5)
            return json.dumps(reg.snapshot(), sort_keys=True)

        assert build() == build()


# ---------------------------------------------------------------------------
# Telemetry facade
# ---------------------------------------------------------------------------


class TestFacade:
    def test_emit_returns_monotonic_seq(self):
        tel = Telemetry(_Clock())
        a = tel.emit("x", "n")
        b = tel.emit("y", "n", parent=a)
        assert (a, b) == (1, 2)
        events = list(tel.events)
        assert events[1].parent == a

    def test_disabled_emit_is_noop(self):
        tel = Telemetry(_Clock(), enabled=False)
        assert tel.emit("x", "n") is None
        assert len(tel.events) == 0
        # metrics still work when events are off
        tel.counter("c").inc()
        assert tel.metrics.counter("c").value == 1

    def test_span_measures_sim_time(self):
        clock = _Clock()
        tel = Telemetry(clock)
        with tel.span("work", "n", detail=1):
            clock.now = 2.5
        (ev,) = list(tel.events)
        assert ev.kind == "work"
        assert ev.time == 0.0
        assert ev.attrs["dur"] == 2.5
        assert ev.attrs["detail"] == 1

    def test_span_records_error(self):
        tel = Telemetry(_Clock())
        with pytest.raises(ValueError):
            with tel.span("work", "n"):
                raise ValueError("boom")
        (ev,) = list(tel.events)
        assert "boom" in ev.attrs["error"]

    def test_on_emit_hook_sees_legacy_shape(self):
        tel = Telemetry(_Clock())
        seen = []
        tel.on_emit(seen.append)
        tel.emit("k", "n", foo=1)
        assert seen == [{"time": 0.0, "kind": "k", "node": "n", "foo": 1}]

    def test_message_binding(self):
        tel = Telemetry(_Clock())
        ev = tel.emit("send", "n")
        tel.bind_message(42, ev)
        assert tel.message_event(42) == ev
        assert tel.message_event(43) is None

    def test_ring_buffer_bounds_retention(self):
        tel = Telemetry(_Clock(), capacity=8)
        for i in range(20):
            tel.emit("e", "n", i=i)
        assert len(tel.events) == 8
        assert tel.events.total == 20
        assert tel.events.dropped == 12
        assert [e.attrs["i"] for e in tel.events] == list(range(12, 20))

    def test_ring_rows_are_flat_tuples_and_seq_is_implicit(self):
        tel = Telemetry(_Clock(), capacity=8)
        seqs = [tel.emit("e", "n", parent=i or None, i=i, key="k") for i in range(20)]
        assert seqs == list(range(1, 21))
        rows = list(tel.events._buf)
        assert rows[0] == (0.0, "e", "n", 12, "i", "key", 12, "k")
        assert [e.seq for e in tel.events] == seqs[12:]
        (last,) = [e for e in tel.events if e.seq == 20]
        assert (last.parent, last.attrs) == (19, {"i": 19, "key": "k"})
        assert last.record() == {"seq": 20, "time": 0.0, "kind": "e", "node": "n",
                                 "parent": 19, "i": 19, "key": "k"}

    def test_trace_events_are_views(self):
        tel = Telemetry(_Clock())
        tel.emit("e", "n", key="k")
        (a,), (b,) = list(tel.events), list(tel.events)
        assert a is not b and a.record() == b.record()
        a.attrs["key"] = "changed"
        a.kind = "other"
        assert [e.record() for e in tel.events] == [b.record()]

    def test_retained_event_stays_under_130_bytes(self):
        # what a request through a shipped architecture emits: most
        # events carry two or three attributes, some none
        sys_ = _ping_system()
        rows = list(sys_.telemetry.events._buf)
        assert len(rows) > 10
        assert sum(sys.getsizeof(r) for r in rows) / len(rows) <= 130 - 8 - 16  # slot, parent

    def test_capture_systems_collects_and_enables(self):
        with capture_systems() as captured:
            sys_ = make_system(
                """
                instance_types { T }
                instances { x: T }
                def main() = start x()
                def T::j() = skip
                """,
                telemetry=False,  # capture overrides the disable
            )
            sys_.start()
            sys_.run_until(1.0)
        assert captured == [sys_.telemetry]
        assert len(sys_.telemetry.events) > 0


# ---------------------------------------------------------------------------
# Causal links through a real system
# ---------------------------------------------------------------------------


def _ping_system(**kw):
    sys_ = pair(
        "assert[g] Done",
        "skip",
        g_decls="| init prop !Done",
        **kw,
    )
    sys_.start(t=1)
    sys_.run_until(5.0)
    return sys_


class TestCausalLinks:
    def test_remote_update_chain(self):
        """attempt -> sched -> send -> apply, and the ack parents back
        to the send: the trace is a concrete event structure."""
        sys_ = _ping_system()
        by_seq = {e.seq: e for e in sys_.telemetry.events}
        send = next(e for e in sys_.telemetry.events if e.kind == "send")
        sched = by_seq[send.parent]
        assert sched.kind == "sched" and sched.node == "f::j"
        attempt = by_seq[sched.parent]
        assert attempt.kind == "attempt"
        apply_ev = next(e for e in sys_.telemetry.events if e.kind == "apply")
        assert apply_ev.parent == send.seq
        assert apply_ev.node == "g::j"
        ack = next(e for e in sys_.telemetry.events if e.kind == "ack")
        assert ack.parent == send.seq

    def test_start_instance_parents_initial_attempts(self):
        sys_ = _ping_system()
        by_seq = {e.seq: e for e in sys_.telemetry.events}
        starts = {e.node: e for e in sys_.telemetry.events if e.kind == "start_instance"}
        first_f_attempt = next(
            e for e in sys_.telemetry.events if e.kind == "attempt" and e.node == "f::j"
        )
        assert first_f_attempt.parent == starts["f"].seq
        # start f/start g were executed by main's scheduling
        assert by_seq[starts["f"].parent].kind == "sched"

    def test_unsched_parents_to_sched_with_outcome(self):
        sys_ = _ping_system()
        by_seq = {e.seq: e for e in sys_.telemetry.events}
        for e in sys_.telemetry.events:
            if e.kind == "unsched":
                assert by_seq[e.parent].kind == "sched"
                assert e.attrs["outcome"] in ("ok", "failed", "cancelled")

    def test_drop_and_retransmit_parent_to_send(self):
        sys_ = pair(
            "assert[g] Done",
            "skip",
            g_decls="| init prop !Done",
        )
        sys_.network.set_link_loss("f", "g", 1.0)
        sys_.sim.call_at(0.03, lambda: sys_.network.set_link_loss("f", "g", None))
        sys_.start(t=1)
        sys_.run_until(5.0)
        send = next(e for e in sys_.telemetry.events if e.kind == "send")
        drop = next(e for e in sys_.telemetry.events if e.kind == "drop")
        retrans = next(e for e in sys_.telemetry.events if e.kind == "retransmit")
        assert drop.parent == send.seq
        assert retrans.parent == send.seq

    def test_runtime_metrics_populated(self):
        sys_ = _ping_system()
        reg = sys_.telemetry.metrics
        assert reg.sum("junction_scheds", node="f::j") >= 1
        assert reg.sum("net_sent", kind="update") >= 1
        assert reg.sum("kv_updates_applied", node="g::j") >= 1
        assert reg.sum("instance_starts", instance="g") == 1
        h = reg.histogram("junction_execution_seconds", node="f::j")
        assert h.count >= 1

    def test_disabled_telemetry_still_counts_metrics(self):
        sys_ = _ping_system(telemetry=False)
        assert len(sys_.telemetry.events) == 0
        assert sys_.read_state("g::j", "Done") is True
        assert sys_.network.stats["update_sent"] >= 1
        assert sys_.telemetry.metrics.sum("junction_scheds", node="f::j") >= 1


# ---------------------------------------------------------------------------
# Exporters
# ---------------------------------------------------------------------------


class TestExporters:
    def test_jsonl_round_trips(self):
        sys_ = _ping_system()
        out = sys_.telemetry.export("jsonl")
        recs = [json.loads(line) for line in out.splitlines()]
        assert len(recs) == len(sys_.telemetry.events)
        assert all({"seq", "time", "kind", "node", "parent"} <= set(r) for r in recs)

    def test_jsonl_deterministic_across_runs(self):
        a = _ping_system().telemetry.export("jsonl")
        b = _ping_system().telemetry.export("jsonl")
        assert a.encode() == b.encode()

    def test_chrome_document_shape(self):
        sys_ = _ping_system()
        doc = json.loads(sys_.telemetry.export("chrome"))
        evs = doc["traceEvents"]
        phases = {e["ph"] for e in evs}
        assert {"M", "B", "E", "i"} <= phases
        # every B has a matching E on the same track
        begins = [(e["pid"], e["tid"]) for e in evs if e["ph"] == "B"]
        ends = [(e["pid"], e["tid"]) for e in evs if e["ph"] == "E"]
        assert sorted(begins) == sorted(ends)
        # thread metadata names each junction track
        names = {e["args"]["name"] for e in evs if e["ph"] == "M"}
        assert "f::j" in names and "g::j" in names

    def test_chrome_span_becomes_complete_slice(self):
        tel = Telemetry(_Clock())
        with tel.span("checkpoint", "n"):
            pass
        doc = to_chrome([("s", tel.events)])
        slices = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert len(slices) == 1 and slices[0]["name"] == "checkpoint"

    def test_export_to_file(self, tmp_path):
        sys_ = _ping_system()
        p = tmp_path / "trace.jsonl"
        text = sys_.telemetry.export("jsonl", path=p)
        assert p.read_text() == text

    def test_unknown_format_rejected(self):
        with pytest.raises(ValueError):
            Telemetry(_Clock()).export("xml")

    def test_jsonl_system_label(self):
        sink = RingBufferSink()
        sink.append(TraceEvent(1, 0.0, "k", "n"))
        out = to_jsonl(sink, system="sys0")
        assert json.loads(out)["system"] == "sys0"


# ---------------------------------------------------------------------------
# Pre-telemetry API removal (the PR-2 shims are gone)
# ---------------------------------------------------------------------------


class TestShimRemoval:
    def test_pre_telemetry_shims_are_gone(self):
        sys_ = _ping_system()
        for name in ("trace", "on_trace", "trace_net_stats", "trace_log"):
            assert not hasattr(sys_, name), f"System.{name} shim should be removed"

    def test_replacement_api_does_not_warn(self):
        sys_ = pair("assert[g] Done", "skip", g_decls="| init prop !Done")
        seen = []
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            sys_.telemetry.on_emit(lambda rec: seen.append(rec["kind"]))
            sys_.start(t=1)
            sys_.run_until(5.0)
            sys_.telemetry.emit("k", "n")
            _ = sys_.network.stats
            sys_.telemetry.export("jsonl")
        assert "sched" in seen and "send" in seen


# ---------------------------------------------------------------------------
# Counter type sanity (registry handles survive across layers)
# ---------------------------------------------------------------------------


def test_network_stats_is_registry_view():
    sys_ = _ping_system()
    reg = sys_.telemetry.metrics
    flat = sys_.network.stats
    assert flat["sent"] == reg.sum("net_sent")
    assert flat["update_sent"] == reg.sum("net_sent", kind="update")
    assert isinstance(reg.counter("net_sent", kind="update", src="f", dst="g"), Counter)
