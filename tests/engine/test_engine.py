"""Engine seam unit tests: selection, capability guards, the realtime
clock, host blocks on the wall-clock engines, and the TCP wire codec."""

import gc
import logging
import os
import statistics
import subprocess
import sys
import threading
import time
import weakref

import pytest

import repro
from repro.redislite import Command
from repro.runtime import SimEngine, create_engine, default_engine
from repro.runtime.channels import Message
from repro.runtime.engine import use_controller
from repro.runtime.kvtable import Update
import repro.runtime.realtime as realtime
from repro.runtime.realtime import _BATCH, RealtimeClock, RealtimeEngine
from repro.runtime.wire import LEN_PREFIX, MAX_FRAME_LEN, decode_message, encode_message
from repro.serde.framing import SavedData

from ..runtime.helpers import failures_of, pair, single_junction

# compress logical time hard: these tests run logical seconds in
# milliseconds of wall time
SCALE = 0.002


class TestSelection:
    def test_create_engine_names(self):
        assert create_engine("sim").name == "sim"
        rt = create_engine("realtime", time_scale=SCALE)
        assert rt.name == "realtime" and rt.transport.inproc
        rt.close()
        tcp = create_engine("realtime-tcp", time_scale=SCALE)
        assert tcp.name == "realtime-tcp" and not tcp.transport.inproc
        tcp.close()

    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError, match="unknown engine"):
            create_engine("quantum")

    def test_string_spec_on_system(self):
        sys_ = single_junction("skip", engine="sim")
        assert sys_.engine.name == "sim"
        assert isinstance(sys_.engine, SimEngine)

    def test_default_engine_scope(self):
        with default_engine(lambda: RealtimeEngine(time_scale=SCALE)):
            sys_ = single_junction("skip")
        assert sys_.engine.name == "realtime"
        sys_.shutdown()
        # the scope is gone: new systems default to sim again
        assert single_junction("skip").engine.name == "sim"

    def test_controller_requires_sim_engine(self):
        with use_controller(lambda: None):
            with pytest.raises(ValueError, match="controlled scheduling"):
                single_junction("skip", engine=RealtimeEngine(time_scale=SCALE))

    def test_metrics_carry_engine_label(self):
        sys_ = single_junction("skip")
        sys_.start()
        sys_.run_until(1.0)
        snap = sys_.telemetry.metrics.snapshot()
        assert any("engine=sim" in labels for fam in snap.values() for labels in fam)


class TestRealtimeClock:
    def test_timers_fire_in_logical_order(self):
        clock = RealtimeClock(time_scale=SCALE)
        fired = []
        clock.call_after(0.5, lambda: fired.append("late"))
        clock.call_after(0.1, lambda: fired.append("early"))
        assert clock.pending_events() == 2
        clock.run_until(1.0)
        assert fired == ["early", "late"]
        assert clock.pending_events() == 0
        assert clock.now >= 1.0  # run_until floors logical now
        clock.close()

    def test_cancel_removes_pending(self):
        clock = RealtimeClock(time_scale=SCALE)
        fired = []
        h = clock.call_after(0.2, lambda: fired.append("x"))
        assert not h.cancelled and clock.pending_events() == 1
        h.cancel()
        assert h.cancelled and clock.pending_events() == 0
        clock.run_until(1.0)
        assert fired == []
        clock.close()

    def test_past_deadline_fires_immediately(self):
        clock = RealtimeClock(time_scale=SCALE)
        fired = []
        clock.run_until(5.0)
        clock.call_at(1.0, lambda: fired.append("past"))
        clock.run_until(5.1)
        assert fired == ["past"]
        clock.close()

    def test_zero_delay_cascades_settle(self):
        clock = RealtimeClock(time_scale=SCALE)
        fired = []

        def chain(n):
            fired.append(n)
            if n < 5:
                clock.call_after(0.0, lambda: chain(n + 1))

        clock.call_after(0.0, lambda: chain(0))
        clock.run_until(0.5)
        assert fired == [0, 1, 2, 3, 4, 5]
        clock.close()

    def test_bad_time_scale_rejected(self):
        with pytest.raises(ValueError):
            RealtimeClock(time_scale=0.0)


linux_only = pytest.mark.skipif(
    not sys.platform.startswith("linux"), reason="timer slack is a Linux prctl"
)


def _prctl(option: int, arg: int = 0) -> int:
    import ctypes

    return ctypes.CDLL(None).prctl(option, arg, 0, 0, 0)


def _timer_slack() -> int:
    """This thread's timer slack in ns, read with ``prctl`` directly."""
    return _prctl(realtime._PR_GET_TIMERSLACK)


@pytest.fixture
def slack_40us():
    """Run the test with a known, non-default timer slack of 40 us."""
    before = _timer_slack()
    _prctl(realtime._PR_SET_TIMERSLACK, 40_000)
    yield 40_000
    _prctl(realtime._PR_SET_TIMERSLACK, before)


class TestTimerPrecision:
    """``time_scale=1.0`` promises wall latency close to the modelled
    one: a timer may fire late by the host's wake-up latency, never by
    a millisecond per hop, and never early."""

    def test_chained_short_timers_cost_about_their_model(self):
        # 50 hops of 100 us model 5 ms; one wake-up per hop on an
        # epoll/poll loop (1 ms timeout granularity) takes >= 50 ms
        best = float("inf")
        for _ in range(3):  # a noisy host gets three tries
            clock = RealtimeClock(time_scale=1.0)
            hops, finished = [0], []
            t0 = time.perf_counter()

            def hop():
                hops[0] += 1
                if hops[0] < 50:
                    clock.call_after(1e-4, hop)
                else:
                    finished.append(time.perf_counter() - t0)

            clock.call_after(1e-4, hop)
            clock.run_until(clock.now + 0.1)
            clock.close()
            assert hops[0] == 50
            best = min(best, finished[0])
        assert 0.005 <= best < 0.025

    @linux_only
    def test_loop_runs_with_a_one_nanosecond_timer_slack(self, slack_40us):
        clock = RealtimeClock(time_scale=1.0)
        seen = []
        clock.call_after(1e-4, lambda: seen.append(_timer_slack()))
        clock.run_until(clock.now + 0.001)
        assert seen == [1]
        assert _timer_slack() == slack_40us
        clock.close()

    @linux_only
    def test_slack_is_restored_when_a_callback_raises(self, slack_40us):
        clock = RealtimeClock(time_scale=1.0)
        clock.call_after(1e-4, lambda: 1 / 0)  # logged by the loop
        clock.run_until(clock.now + 0.001)
        assert _timer_slack() == slack_40us

        def abort():
            raise SystemExit(3)

        clock.call_after(1e-4, abort)  # the loop lets it unwind run_until
        with pytest.raises(SystemExit):
            clock.run_until(clock.now + 0.001)
        assert _timer_slack() == slack_40us
        clock.close()

    @linux_only
    def test_slack_is_restored_when_a_cascade_does_not_settle(self, slack_40us):
        clock = RealtimeClock(time_scale=1.0)

        def forever():
            clock.post(forever)

        clock.post(forever)
        with pytest.raises(RuntimeError, match="did not settle"):
            clock.run_until(clock.now)
        assert _timer_slack() == slack_40us
        clock.close()

    def test_clock_runs_without_prctl(self, monkeypatch):
        monkeypatch.setattr(realtime, "_resolve_prctl", lambda: None)
        clock = RealtimeClock(time_scale=1.0)
        fired = []
        clock.call_after(1e-4, lambda: fired.append(1))
        clock.run_until(clock.now + 0.001)
        assert fired == [1]
        clock.close()

    @linux_only
    def test_chained_short_timers_fire_within_tens_of_microseconds(self):
        # with the kernel's default 50 us slack the median lag of a
        # 100 us wait is ~60 us; lowered, it is the wake-up alone
        def median_lag():
            clock = RealtimeClock(time_scale=1.0)
            lags = []

            def hop(due):
                lags.append(clock.now - due)
                if len(lags) < 200:
                    nxt = clock.now + 1e-4
                    clock.call_at(nxt, lambda: hop(nxt))

            due = clock.now + 1e-4
            clock.call_at(due, lambda: hop(due))
            clock.run_until(clock.now + 0.1)
            clock.close()
            assert len(lags) == 200
            return statistics.median(lags)

        assert min(median_lag() for _ in range(3)) < 35e-6

    def test_no_timer_fires_before_its_deadline(self):
        clock = RealtimeClock(time_scale=1.0)
        early = []

        def check(due):
            if clock.now < due - 1e-9:
                early.append((due, clock.now))

        base = clock.now
        for i in range(300):
            due = base + (i * 37 % 300) * 2e-5  # 0 .. 6 ms, shuffled
            clock.call_at(due, lambda due=due: check(due))
        clock.run_until(base + 0.01)
        assert clock.pending_events() == 0
        assert early == []
        clock.close()

    def test_equal_deadlines_fire_in_scheduling_order(self):
        clock = RealtimeClock(time_scale=1.0)
        fired = []
        due = clock.now + 0.002
        for i in range(100):
            clock.call_at(due, lambda i=i: fired.append(i))
        time.sleep(0.003)  # the deadline passes while nothing runs
        for i in range(100, 110):  # already due: the FIFO lane
            clock.call_at(due, lambda i=i: fired.append(i))
        clock.run_until(clock.now)
        assert fired == list(range(110))
        clock.close()

    def test_thousand_chained_posts_settle_in_one_run_until(self):
        clock = RealtimeClock(time_scale=1.0)
        count = [0]

        def chain():
            count[0] += 1
            if count[0] < 1000:
                clock.post(chain)

        clock.post(chain)
        clock.run_until(clock.now)  # no horizon: settle what is due
        assert count[0] == 1000 > _BATCH
        assert clock.pending_events() == 0
        clock.close()

    def test_pool_thread_completion_wakes_a_sleeping_run_until(self):
        # an embedding application's thread hands a completion to the
        # loop with call_soon_threadsafe; what the completion schedules
        # must not wait for the end of the 0.5 s sleep
        eng = RealtimeEngine(time_scale=1.0)
        returned, woke = [], []

        def done():
            eng.clock.post(lambda: woke.append(time.perf_counter()))

        def application():
            time.sleep(0.01)
            returned.append(time.perf_counter())
            eng.clock.loop.call_soon_threadsafe(done)

        t = threading.Thread(target=application)
        t.start()
        eng.clock.run_until(eng.clock.now + 0.5)
        t.join(timeout=10.0)
        assert not t.is_alive()
        assert woke and woke[0] - returned[0] < 0.1
        eng.close()

    def test_post_from_another_thread_wakes_a_sleeping_run_until(self):
        # an embedding application's thread schedules while the loop
        # thread sleeps in run_until
        clock = RealtimeClock(time_scale=1.0)
        posted, woke = [], []

        def client():
            time.sleep(0.01)
            posted.append(time.perf_counter())
            clock.post(lambda: woke.append(time.perf_counter()))
            clock.call_after(0.001, lambda: woke.append(time.perf_counter()))

        t = threading.Thread(target=client)
        t.start()
        clock.run_until(clock.now + 0.5)
        t.join()
        assert len(woke) == 2 and woke[1] - posted[0] < 0.1
        clock.close()


class TestImportCost:
    def test_import_repro_does_not_import_ctypes(self):
        # the clock resolves prctl through ctypes on first construction;
        # importing the package must not pay for ctypes
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        out = subprocess.run(
            [sys.executable, "-c",
             "import sys, repro, repro.runtime.realtime; print('ctypes' in sys.modules)"],
            env=env, capture_output=True, text=True, check=True,
        )
        assert out.stdout.strip() == "False"

    def test_a_tcp_run_imports_nothing(self):
        # realtime-tcp imports its stream class when it binds: imported on
        # the first delivery, cluster.py was compiled inside that run's
        # loop, with no bytecode cache for longer than the 10 ms a 0.5 s
        # timeout lasts at time_scale 0.02
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        code = "\n".join([
            "import sys, time",
            "from repro.arch.sharding import ShardedRedis",
            "from repro.redislite import Command",
            "from repro.runtime import default_engine",
            "from repro.runtime.realtime import RealtimeEngine",
            "with default_engine(lambda: RealtimeEngine(time_scale=0.02, transport='tcp')):",
            "    svc = ShardedRedis(n_shards=2, seed=0)",
            "before, replies = set(sys.modules), []",
            "svc.submit(Command('SET', 'k', b'v'), replies.append)",
            "give_up = time.monotonic() + 20.0",
            "while not replies and time.monotonic() < give_up:",
            "    svc.system.run_until(svc.system.now + 0.5)",
            "svc.system.shutdown()",
            "print(len(replies), sorted(set(sys.modules) - before))",
        ])
        out = subprocess.run(
            [sys.executable, "-c", code],
            env=env, capture_output=True, text=True, check=True,
        )
        assert out.stdout.strip() == "1 []"

    def test_import_repro_loads_only_the_sim_runtime(self):
        # a worker that runs one engine pays for no other, nor for the
        # analyzer, the denotation or a graph library
        unwanted = (
            "networkx", "asyncio",
            "repro.runtime.cluster", "repro.runtime.realtime",
            "repro.runtime.chaos", "repro.runtime.wire",
            "repro.analysis.analyzer",
            "repro.semantics.denote", "repro.semantics.program_sem",
        )
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        out = subprocess.run(
            [sys.executable, "-c",
             f"import sys, repro; print([m for m in {unwanted!r} if m in sys.modules])"],
            env=env, capture_output=True, text=True, check=True,
        )
        assert out.stdout.strip() == "[]"

    def test_imports_with_the_standard_library_alone(self):
        # pyproject.toml declares no dependency: without site-packages
        # (-S) the package, its facade and its CLI still import
        src = os.path.dirname(os.path.dirname(repro.__file__))
        env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
        out = subprocess.run(
            [sys.executable, "-S", "-c",
             f"import sys; sys.path.insert(0, {src!r}); import repro, repro.api, repro.cli"],
            env=env, capture_output=True, text=True,
        )
        assert out.returncode == 0, out.stderr


class TestTimerQueue:
    def test_cancelled_callback_is_released_at_once(self):
        clock = RealtimeClock(time_scale=1.0)

        class Payload:
            pass

        payload = Payload()
        ref = weakref.ref(payload)
        h = clock.call_after(3600.0, lambda p=payload: p)
        del payload
        gc.collect()
        assert ref() is not None  # pinned by the live timer
        h.cancel()
        gc.collect()
        assert ref() is None  # an hour before it would have come due
        assert h.cancelled and clock.pending_events() == 0
        clock.close()

    def test_cancel_after_firing_does_not_skew_the_count(self):
        clock = RealtimeClock(time_scale=1.0)
        h = clock.call_after(0.0, lambda: None)
        clock.run_until(clock.now)
        h.cancel()
        assert not h.cancelled and clock.pending_events() == 0
        clock.close()

    def test_rebase_refuses_while_a_timer_is_live(self):
        clock = RealtimeClock(time_scale=1.0)
        time.sleep(0.02)
        h = clock.call_after(10.0, lambda: None)
        clock.rebase()
        assert clock.now >= 0.02  # not re-anchored: h's deadline stands
        h.cancel()
        clock.rebase()
        assert clock.now < 0.02
        clock.close()

    def test_scheduling_from_many_threads_loses_nothing(self):
        # more schedulers than cores and a short switch interval: every
        # callback fires exactly once and the live count returns to zero
        clock = RealtimeClock(time_scale=1.0)
        fired = []
        per_thread, threads = 2000, 6

        def scheduler(t):
            for i in range(per_thread):
                tag = (t, i)
                if i % 3:
                    clock.post(lambda tag=tag: fired.append(tag))
                else:
                    clock.call_after(1e-4, lambda tag=tag: fired.append(tag))

        def local():  # the loop thread schedules (and cancels) meanwhile
            clock.call_after(1e-3, lambda: None).cancel()
            if len(fired) < per_thread * threads:
                clock.call_after(2e-4, local)

        workers = [threading.Thread(target=scheduler, args=(t,)) for t in range(threads)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            clock.post(local)
            for w in workers:
                w.start()
            give_up = time.monotonic() + 30.0
            while len(fired) < per_thread * threads and time.monotonic() < give_up:
                clock.run_until(clock.now + 0.01)
            for w in workers:
                w.join(timeout=10.0)
                assert not w.is_alive()
        finally:
            sys.setswitchinterval(interval)
        clock.run_until(clock.now + 0.005)
        assert len(fired) == per_thread * threads == len(set(fired))
        for t in range(threads):  # per scheduler, posts keep their order
            mine = [i for (tt, i) in fired if tt == t and i % 3]
            assert mine == sorted(mine)
        assert clock.pending_events() == 0
        clock.close()

    def test_long_cascade_yields_to_thread_completions(self):
        # a zero-delay cascade is fired in bounded batches; between two
        # batches the loop polls, so a completion from another thread
        # gets in although the cascade never pauses by itself
        clock = RealtimeClock(time_scale=1.0)
        spins, stop = [0], []

        def cascade():
            spins[0] += 1
            if not stop:
                clock.post(cascade)

        clock.post(cascade)
        t = threading.Thread(
            target=lambda: clock.loop.call_soon_threadsafe(stop.append, True))
        t.start()
        clock.run_until(clock.now + 0.01)
        t.join()
        assert stop and spins[0] > _BATCH
        clock.close()

    def test_cascade_that_never_settles_is_reported(self):
        clock = RealtimeClock(time_scale=1.0)

        def forever():
            clock.post(forever)

        clock.post(forever)
        with pytest.raises(RuntimeError, match="did not settle"):
            clock.run_until(clock.now + 0.001)
        clock.close()

    def test_run_until_inside_a_callback_is_refused(self):
        clock = RealtimeClock(time_scale=1.0)
        errors = []

        def nested():
            try:
                clock.run_until(clock.now + 1.0)
            except RuntimeError as e:
                errors.append(e)

        clock.post(nested)
        t0 = time.perf_counter()
        clock.run_until(clock.now + 0.01)  # still stops at its own deadline
        assert errors and time.perf_counter() - t0 < 0.5
        clock.close()


class TestShutdownOrder:
    def test_close_discards_queued_events(self):
        eng = RealtimeEngine(time_scale=1.0)
        fired = []
        eng.clock.post(lambda: fired.append("due"))
        eng.clock.call_after(0.0005, lambda: fired.append("timer"))
        late = []
        eng.close()
        assert fired == [] and eng.clock.pending_events() == 0
        h = eng.clock.call_after(0.0, lambda: late.append("after close"))
        assert h.cancelled and late == []

    def test_scheduling_on_a_directly_closed_loop_is_a_cancelled_handle(self):
        # the loop closed without RealtimeClock.close(), as at
        # interpreter exit: a due, a future and a posted callback
        clock = RealtimeClock(time_scale=1.0)
        clock.loop.close()
        clock.post(lambda: None)
        handles = [clock.call_after(0.0, lambda: None),
                   clock.call_after(1.0, lambda: None)]
        assert all(h.cancelled for h in handles)
        assert clock.pending_events() == 0
        clock.close()  # idempotent on a closed loop

    def test_shutdown_with_a_queued_attempt_does_not_reach_the_pool(self, caplog):
        # the queued attempt would invoke a host block; close() discards
        # it instead of firing it from the final settle
        ran = []
        sys_ = single_junction("host H", decls="| init prop !Go", guard="Go",
                               engine=RealtimeEngine(time_scale=1.0))
        sys_.bind_host("T", "H", lambda ctx: ran.append(1))
        sys_.start()
        sys_.external_update("x::j", "Go", True)
        assert sys_.clock.pending_events() > 0
        with caplog.at_level(logging.ERROR, logger="asyncio"):
            sys_.shutdown()
        assert ran == [] and caplog.records == []


class TestDescriptorCeiling:
    """``select()`` rejects descriptors >= FD_SETSIZE (1024); the clock
    only ever hands it the epoll descriptor."""

    def _tcp_ping(self, engine):
        sys_ = pair("assert[g] Done", "skip", g_decls="| init prop !Done", engine=engine)
        sys_.start(t=1.0)
        sys_.run_until(sys_.now + 0.2)
        assert sys_.read_state("g::j", "Done") is True
        assert failures_of(sys_) == []
        return sys_

    def test_sockets_past_the_ceiling_keep_the_fine_wait(self, many_descriptors):
        eng = RealtimeEngine(time_scale=1.0, transport="tcp")
        many_descriptors()  # every socket opened from here on is > 1024
        sys_ = self._tcp_ping(eng)
        assert eng.transport._server.sockets[0].fileno() > 1024
        assert eng.clock.loop._selector.fine
        sys_.shutdown()

    def test_clock_built_past_the_ceiling_falls_back_to_epoll(self, many_descriptors):
        many_descriptors()  # the epoll descriptor itself is > 1024
        eng = RealtimeEngine(time_scale=1.0, transport="tcp")
        assert eng.clock.loop._selector.fileno() > 1024
        sys_ = self._tcp_ping(eng)
        assert not eng.clock.loop._selector.fine  # millisecond waits, but it runs
        sys_.shutdown()


class TestThreadPoolHost:
    """The host contract on the wall-clock engines (the class keeps the
    name of the thread pool these blocks used to run on)."""

    def test_host_runs_on_the_runtime_thread_and_writes_apply(self):
        seen = {}

        def h(ctx):
            seen["thread"] = threading.current_thread()
            ctx.set("P", True)

        sys_ = single_junction(
            "host H {P}", decls="| init prop !P",
            engine=RealtimeEngine(time_scale=SCALE),
        )
        sys_.bind_host("T", "H", h)
        sys_.start()
        sys_.run_until(5.0)
        assert seen["thread"] is threading.current_thread()
        assert sys_.read_state("x", "P") is True
        assert failures_of(sys_) == []
        sys_.shutdown()

    def test_deferred_writes_read_back_inside_the_block(self):
        seen = []

        def h(ctx):
            ctx.set("P", True)
            seen.append(ctx.get("P"))  # overlay: own write visible

        sys_ = single_junction(
            "host H {P}", decls="| init prop !P",
            engine=RealtimeEngine(time_scale=SCALE),
        )
        sys_.bind_host("T", "H", h)
        sys_.start()
        sys_.run_until(5.0)
        assert seen == [True]
        sys_.shutdown()

    def test_host_exception_surfaces_as_failure(self):
        sys_ = single_junction(
            "host H", engine=RealtimeEngine(time_scale=SCALE)
        )
        sys_.bind_host("T", "H", lambda ctx: 1 / 0)
        sys_.start()
        sys_.run_until(5.0)
        assert "HostError" in failures_of(sys_)
        sys_.shutdown()

    def test_host_take_still_advances_logical_time(self):
        times = []

        def h(ctx):
            times.append(ctx.now)
            ctx.take(0.5)

        sys_ = single_junction(
            "host H; host After", engine=RealtimeEngine(time_scale=SCALE)
        )
        sys_.bind_host("T", "H", h)
        sys_.bind_host("T", "After", lambda ctx: times.append(ctx.now))
        sys_.start()
        # the horizon counts from now: the clock runs from its creation,
        # so the build has already spent part of an absolute one
        sys_.run_until(sys_.now + 5.0)
        assert len(times) == 2 and times[1] - times[0] >= 0.5
        sys_.shutdown()

    def test_host_raise_mid_run_leaves_no_pending_work(self):
        # the block raises after its first, modelled-time sleep: nothing
        # the failed strand scheduled outlives it, and run() quiesces
        sys_ = single_junction(
            "host Slow; host Boom", engine=RealtimeEngine(time_scale=SCALE)
        )
        sys_.bind_host("T", "Slow", lambda ctx: ctx.take(0.5))
        sys_.bind_host("T", "Boom", lambda ctx: 1 / 0)
        sys_.start()
        sys_.run()
        assert failures_of(sys_) == ["HostError"]
        assert sys_.engine.pending_work() == 0
        sys_.shutdown()


class TestWireCodec:
    def test_update_round_trip(self):
        m = Message(
            src="a::j", dst="b::j", kind="update",
            payload=Update(key="K[i]", value=True, src="a::j"), msg_id=41,
        )
        out = decode_message(encode_message(m))
        assert (out.src, out.dst, out.kind, out.msg_id) == (m.src, m.dst, m.kind, m.msg_id)
        assert isinstance(out.payload, Update)
        assert (out.payload.key, out.payload.value, out.payload.src) == ("K[i]", True, "a::j")

    def test_saved_data_round_trip(self):
        sd = SavedData("Snap", b"\x00\x01 blob \xff")
        m = Message(
            src="a::j", dst="b::j", kind="update",
            payload=Update(key="d", value=sd, src="a::j"), msg_id=7,
        )
        out = decode_message(encode_message(m))
        assert isinstance(out.payload.value, SavedData)
        assert out.payload.value.schema == "Snap"
        assert out.payload.value.blob == sd.blob

    def test_ack_round_trip(self):
        m = Message(src="b::j", dst="a::j", kind="ack", payload=17, msg_id=17)
        out = decode_message(encode_message(m))
        assert out.kind == "ack" and out.payload == 17


class TestTcpMalformedFrame:
    """realtime-tcp rejects a bad frame body alone; only a corrupt length
    prefix gives the stream up, and the next send reconnects."""

    @staticmethod
    def _service():
        from repro.arch.sharding import ShardedRedis

        with default_engine(lambda: RealtimeEngine(time_scale=0.02, transport="tcp")):
            return ShardedRedis(n_shards=2, seed=0)

    @staticmethod
    def _call(svc, cmd):
        replies = []
        svc.submit(cmd, replies.append)
        give_up = time.monotonic() + 20.0
        while not replies and time.monotonic() < give_up:
            svc.system.run_until(svc.system.now + 0.5)
        return replies

    def _survives(self, monkeypatch, attr, corrupt):
        # the first message sent after the patch goes out corrupted; the
        # sender's retransmission carries the request through
        from repro.runtime import realtime

        svc = self._service()
        system = svc.system
        try:
            assert [r.ok for r in self._call(svc, Command("SET", "k", b"v0"))] == [True]
            rejected = system.network.stats.get("wire_rejected", 0)
            real, sent = getattr(realtime, attr), []

            def once(arg):
                if sent:
                    return real(arg)
                sent.append(arg)
                return corrupt(real, arg)

            monkeypatch.setattr(realtime, attr, once)
            assert [r.ok for r in self._call(svc, Command("SET", "k", b"v1"))] == [True]
            assert sent
            assert system.network.stats["wire_rejected"] == rejected + 1
            reply = self._call(svc, Command("GET", "k"))
            assert [(r.ok, r.value) for r in reply] == [(True, b"v1")]
            system.run_until(system.now + 1.0)
            assert system.engine.pending_work() == 0
            assert system.failures == []
        finally:
            system.shutdown()

    def test_undecodable_body_is_rejected_alone(self, monkeypatch):
        self._survives(monkeypatch, "encode_message", lambda real, msg: b"\xff garbage")

    def test_corrupt_prefix_drops_the_stream_and_the_next_send_reconnects(self, monkeypatch):
        self._survives(
            monkeypatch, "frame",
            lambda real, body: LEN_PREFIX.pack(MAX_FRAME_LEN + 1) + body,
        )


class TestQuiescence:
    def test_run_drains_to_quiescence(self):
        fired = []
        eng = RealtimeEngine(time_scale=SCALE)
        eng.clock.call_after(0.3, lambda: fired.append("a"))
        eng.clock.call_after(0.6, lambda: fired.append("b"))
        eng.run()
        assert fired == ["a", "b"]
        assert eng.pending_work() == 0
        eng.close()

    def test_close_is_idempotent(self):
        eng = RealtimeEngine(time_scale=SCALE)
        eng.close()
        eng.close()
