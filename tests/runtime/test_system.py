"""System-level behaviour: main, lifecycle, guards, faults, tracing."""

import pytest

from repro.core import ast as A
from repro.core.errors import CompileError, StartStopFailure, UndeclaredKeyError
from repro.runtime.faults import FaultPlan
from repro.runtime.kvtable import UNDEF

from .helpers import failures_of, make_system, single_junction

FIG3 = """
instance_types {{ TF, TG }}
instances {{ f: TF, g: TG }}
def main(t) = start f(t) + start g(t)
def TF::junction(t) =
  | init prop !Work
  | init data n
  host H1; save(n);
  {{ write(n, g); assert[g] Work; wait[] !Work }} otherwise[t] host Complain
def TG::junction(t) =
  | init prop !Work
  | init data n
  | guard Work
  restore(n); host H2; retract[f] Work
""".format()


def fig3_system(**kw):
    sys_ = make_system(FIG3, latency=0.05, **kw)
    sys_.bind_host("TF", "H1", lambda ctx: ctx.take(0.1))
    sys_.bind_host("TG", "H2", lambda ctx: ctx.take(0.2))
    sys_.bind_host("TF", "Complain", lambda ctx: None)
    sys_.bind_state("TF", save=lambda a, i: {"v": 1}, restore=lambda a, i, o: None)
    sys_.bind_state("TG", save=lambda a, i: None, restore=lambda a, i, o: None)
    return sys_


class TestMain:
    def test_main_starts_instances(self):
        sys_ = fig3_system()
        sys_.start(t=5)
        assert sys_.instance("f").running
        assert sys_.instance("g").running

    def test_main_params_from_kwargs(self):
        sys_ = fig3_system()
        sys_.start(t=3)
        assert sys_.junction("f::junction").params["t"] == 3.0

    def test_main_params_from_config(self):
        sys_ = make_system(FIG3, config={"t": 2})
        sys_.bind_host("TF", "H1", lambda ctx: None)
        sys_.bind_state("TF", save=lambda a, i: 1, restore=lambda a, i, o: None)
        sys_.start()
        assert sys_.junction("f::junction").params["t"] == 2.0

    def test_missing_main_param(self):
        sys_ = fig3_system()
        with pytest.raises(CompileError):
            sys_.start()

    def test_double_start_rejected(self):
        sys_ = fig3_system()
        sys_.start(t=5)
        with pytest.raises(CompileError):
            sys_.start(t=5)

    def test_full_handshake(self):
        sys_ = fig3_system()
        sys_.start(t=5)
        sys_.run_until(2.0)
        assert failures_of(sys_) == []
        assert sys_.read_state("f::junction", "Work") is False
        # g received the data
        assert sys_.read_state("g::junction", "n") is not UNDEF


class TestLifecycle:
    def test_start_binds_params_per_junction(self):
        sys_ = make_system(
            """
            instance_types { B }
            instances { b: B }
            def main(t) = start b a(t) c(3*t)
            def B::a(t) = skip
            def B::c(t) = skip
            """
        )
        sys_.start(t=2)
        assert sys_.junction("b::a").params["t"] == 2.0
        assert sys_.junction("b::c").params["t"] == 6.0

    def test_start_already_running_fails(self):
        sys_ = fig3_system()
        sys_.start(t=5)
        with pytest.raises(StartStopFailure):
            sys_.exec_start(A.ref("f"), ((None, (A.Num(1.0),)),), None)

    def test_stop_then_restart(self):
        sys_ = fig3_system()
        sys_.start(t=5)
        sys_.run_until(1.0)
        sys_.stop_instance("g")
        assert not sys_.instance("g").running
        sys_.exec_start(A.ref("g"), ((None, (A.Num(5.0),)),), None)
        assert sys_.instance("g").running

    def test_stop_not_running_fails(self):
        sys_ = fig3_system()
        sys_.start(t=5)
        sys_.stop_instance("g")
        with pytest.raises(StartStopFailure):
            sys_.stop_instance("g")

    def test_wrong_arity_start(self):
        sys_ = fig3_system()
        with pytest.raises(StartStopFailure):
            sys_.exec_start(A.ref("f"), ((None, ()),), None)

    def test_host_level_start_instance(self):
        sys_ = fig3_system()
        sys_.start_instance("g", junction={"t": 5})
        assert sys_.instance("g").running

    def test_unknown_instance(self):
        sys_ = fig3_system()
        with pytest.raises(CompileError):
            sys_.instance("zzz")


class TestGuards:
    def test_guard_blocks_scheduling(self):
        sys_ = single_junction("host H", guard="Go", decls="| init prop !Go")
        ran = []
        sys_.bind_host("T", "H", lambda ctx: ran.append(1))
        sys_.start()
        sys_.run_until(1.0)
        assert ran == []

    def test_external_update_enables_guard(self):
        sys_ = single_junction("retract[] Go; host H", guard="Go",
                               decls="| init prop !Go")
        ran = []
        sys_.bind_host("T", "H", lambda ctx: ran.append(1))
        sys_.start()
        sys_.run_until(0.5)
        sys_.external_update("x::j", "Go", True)
        sys_.run_until(1.0)
        assert ran == [1]

    def test_poke_respects_guard(self):
        sys_ = single_junction("host H", guard="Go", decls="| init prop !Go")
        ran = []
        sys_.bind_host("T", "H", lambda ctx: ran.append(1))
        sys_.start()
        sys_.poke("x::j")
        sys_.run_until(1.0)
        assert ran == []

    def test_at_guard_on_other_junction(self):
        sys_ = make_system(
            """
            instance_types { B }
            instances { b: B }
            def main() = start b a() c()
            def B::a() = | init prop !P
              skip
            def B::c() =
              | guard b::a@!P
              host H
            """
        )
        ran = []
        sys_.bind_host("B", "H", lambda ctx: ran.append(1))
        sys_.start()
        sys_.run_until(1.0)
        assert ran == [1]

    def test_liveness_guard(self):
        sys_ = make_system(
            """
            instance_types { W, O }
            instances { w: W, o: O }
            def main() = start w() + start o()
            def W::j() =
              | guard !live(o)
              host Alarm
            def O::j() = skip
            """
        )
        alarms = []
        sys_.bind_host("W", "Alarm", lambda ctx: alarms.append(ctx.now))
        sys_.start()
        sys_.run_until(1.0)
        assert alarms == []
        sys_.crash_instance("o")
        sys_.poke("w::j")
        sys_.run_until(2.0)
        assert len(alarms) == 1


class TestFaults:
    def test_crash_aborts_execution(self):
        sys_ = fig3_system()
        sys_.start(t=5)
        # crash g mid-handshake
        sys_.sim.call_at(0.18, lambda: sys_.crash_instance("g"))
        sys_.run_until(10.0)
        # f times out and complains; no stuck executions
        assert sys_.junction("f::junction").status == "idle"

    def test_crashed_instance_not_alive(self):
        sys_ = fig3_system()
        sys_.start(t=5)
        sys_.crash_instance("g")
        assert not sys_.instance("g").alive
        assert sys_.instance("g").running  # crashed, not stopped

    def test_restart_reinitializes_state(self):
        sys_ = fig3_system()
        sys_.start(t=5)
        sys_.run_until(1.0)
        sys_.external_update("g::junction", "Work", True, poke=False)
        sys_.crash_instance("g")
        sys_.restart_instance("g")
        assert sys_.read_state("g::junction", "Work") is False

    def test_restart_requires_crash(self):
        sys_ = fig3_system()
        sys_.start(t=5)
        with pytest.raises(StartStopFailure):
            sys_.restart_instance("g")

    def test_fault_plan_scheduling(self):
        sys_ = fig3_system()
        sys_.start(t=5)
        fp = FaultPlan(sys_)
        fp.crash_at(1.0, "g")
        fp.restart_at(2.0, "g")
        sys_.run_until(3.0)
        assert sys_.instance("g").alive
        assert [k for (_t, k, _d) in fp.injected] == ["crash", "restart"]

    def test_partition_between(self):
        sys_ = fig3_system()
        sys_.start(t=5)
        fp = FaultPlan(sys_)
        fp.partition_between(0.0, 1.0, {"f"}, {"g"})
        sys_.run_until(0.5)
        assert sys_.network.is_partitioned("f", "g")
        sys_.run_until(1.5)
        assert not sys_.network.is_partitioned("f", "g")


class TestExternalInterface:
    def test_external_data(self):
        sys_ = single_junction("retract[] Go; restore(n); host H", guard="Go",
                               decls="| init prop !Go\n| init data n")
        got = []
        sys_.bind_state("T", save=lambda a, i: None,
                        restore=lambda a, i, o: got.append(o))
        sys_.bind_host("T", "H", lambda ctx: None)
        sys_.start()
        sys_.external_data("x::j", "n", {"payload": 3})
        sys_.external_update("x::j", "Go", True)
        sys_.run_until(1.0)
        assert got == [{"payload": 3}]

    def test_read_state_missing_key(self):
        sys_ = fig3_system()
        sys_.start(t=5)
        assert sys_.read_state("f::junction", "zzz") is UNDEF

    def test_junction_lookup_sole(self):
        sys_ = fig3_system()
        assert sys_.junction("f").node == "f::junction"


#: ``f`` asserts ``Ghost`` at ``g``, whose table does not declare it
GHOST = """
instance_types { TF, TG }
instances { f: TF, g: TG }
def main() = start f() + start g()
def TF::junction() =
  | init prop !Done
  assert[g] Ghost; assert[] Done
def TG::junction() =
  | init prop !Work
  | init data n
  skip
"""


class TestClosedKeySet:
    """A junction's table holds exactly its declarations: an update to
    any other key is refused at the table boundary."""

    def test_a_peer_update_to_an_undeclared_key_is_acked_counted_and_dropped(self):
        sys_ = make_system(GHOST)
        sys_.start()
        sys_.run_until(1.0)
        # acked: the sender went on past its assert, with no failure
        assert failures_of(sys_) == []
        assert sys_.read_state("f::junction", "Done") is True
        table = sys_.junction("g::junction").table
        assert table.keys == ("Work", "n") and table.pending == ()
        assert table.snapshot() == {"Work": False, "n": UNDEF}
        metrics = sys_.telemetry.metrics
        assert metrics.sum("kv_updates_refused", node="g::junction") == 1
        assert metrics.sum("kv_updates_received", node="g::junction") == 1
        assert metrics.sum("kv_updates_applied", node="g::junction") == 0

    def test_the_refusal_counter_exists_only_after_a_refusal(self):
        sys_ = fig3_system()
        sys_.start(t=5)
        sys_.run_until(2.0)
        assert "kv_updates_refused" not in {name for name, _, _ in sys_.telemetry.metrics.collect()}

    @pytest.mark.parametrize("call", ["external_update", "external_data"])
    def test_an_external_update_to_an_undeclared_key_raises(self, call):
        sys_ = fig3_system()
        sys_.start(t=5)
        jr = sys_.junction("g::junction")
        before = (jr.table.snapshot(), jr.table.pending, len(sys_.telemetry.events))
        with pytest.raises(UndeclaredKeyError, match="g::junction declares no key 'Ghost'"):
            getattr(sys_, call)("g::junction", "Ghost", True)
        assert (jr.table.snapshot(), jr.table.pending, len(sys_.telemetry.events)) == before
        assert not jr.table.has("Ghost") and not jr.external_inbound

    def test_a_by_name_store_to_an_undeclared_key_raises(self):
        sys_ = fig3_system()
        sys_.start(t=5)
        table = sys_.junction("g::junction").table
        with pytest.raises(KeyError):
            table.values["Ghost"] = 1
        with pytest.raises(TypeError):  # the image's index is read-only
            table.declare("Ghost", 1)
        assert not table.has("Ghost") and table.keys == ("Work", "n")


class TestTracing:
    def test_sched_unsched_events(self):
        sys_ = fig3_system()
        sys_.start(t=5)
        sys_.run_until(2.0)
        kinds = [e.kind for e in sys_.telemetry.events]
        assert "sched" in kinds and "unsched" in kinds and "start_instance" in kinds

    def test_trace_hook(self):
        sys_ = fig3_system()
        seen = []
        sys_.telemetry.on_emit(lambda rec: seen.append(rec["kind"]))
        sys_.start(t=5)
        assert "start_instance" in seen

    def test_sched_count(self):
        sys_ = fig3_system()
        sys_.start(t=5)
        sys_.run_until(2.0)
        assert sys_.junction("g::junction").sched_count == 1
