"""Cluster engine tests: real worker processes, crash supervision,
heartbeats, restart-with-backoff, and backend parity with the sim.

Wall-clock costs are kept low with aggressive time compression, but
every test here spawns *real* OS processes and kills some of them —
the supervision machinery under test is the real thing, not a mock.
"""

import os
import random
import signal
import subprocess
import sys
import threading
import time
from types import SimpleNamespace

import pytest

from repro.redislite import Command
from repro.arch.failover import FailoverRedis
from repro.core.errors import StartStopFailure
from repro.runtime import FaultPlan, default_engine
from repro.runtime.chaos import ChaosConfig, ChaosEngine
from repro.runtime.realtime import RealtimeEngine
from repro.runtime.cluster import (
    ClusterEngine,
    ClusterSupervisor,
    live_worker_pgids,
    reap_orphan_workers,
)
from repro.runtime.engine import ENGINE_NAMES, create_engine
from repro.runtime.supervisor import Backoff, BackoffPolicy, WorkerState
from repro.runtime import cluster_worker
from repro.runtime.wire import LEN_PREFIX, MAX_FRAME_LEN

from ..runtime.helpers import pair, single_junction
from .test_parity import SCALE, final_state, observable, sim_run

#: logical-seconds supervision knobs shared by the tests: generous
#: enough that CI scheduling jitter cannot produce false positives
HB = dict(heartbeat_interval=0.5, heartbeat_timeout=2.0)


def _alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    return True


def _exit_code(pid: int, timeout: float) -> int | None:
    """The exit code of child ``pid`` once it has exited within
    ``timeout`` wall seconds (reaping it), else None."""
    give_up = time.monotonic() + timeout
    while True:
        done, status = os.waitpid(pid, os.WNOHANG)
        if done:
            return os.waitstatus_to_exitcode(status)
        if time.monotonic() >= give_up:
            return None
        time.sleep(0.01)


def _dies_before_its_hello(monkeypatch):
    """Every worker forked from here on exits with code 1 before its
    hello."""
    monkeypatch.setattr(cluster_worker, "run", lambda host, port, name: 1)


# ---------------------------------------------------------------------------
# Protocol / policy units
# ---------------------------------------------------------------------------


class TestWorkerProtocol:
    def test_frame_constants_match_wire(self):
        # cluster_worker.py duplicates the wire constants to stay
        # stdlib-only; they must never drift apart
        assert cluster_worker.LEN_PREFIX.format == LEN_PREFIX.format
        assert cluster_worker.LEN_PREFIX.size == LEN_PREFIX.size
        assert cluster_worker.MAX_FRAME_LEN == MAX_FRAME_LEN

    def test_worker_rejects_oversized_frame(self):
        # a hostile coordinator cannot make the worker allocate: the
        # length check precedes the body read and exits with code 2
        import socket

        srv = socket.socket()
        srv.bind(("127.0.0.1", 0))
        srv.listen(1)
        srv.settimeout(10.0)
        port = srv.getsockname()[1]
        pid = os.fork()
        if pid == 0:  # the worker: it must never return into pytest
            code = 1
            try:
                code = cluster_worker.run("127.0.0.1", port, "w")
            finally:
                os._exit(code)
        code = None
        try:
            conn, _ = srv.accept()
            hello = cluster_worker.recv_frame(conn)
            assert hello == cluster_worker.OP_HELLO + b"w"
            conn.sendall(LEN_PREFIX.pack(MAX_FRAME_LEN + 1))
            code = _exit_code(pid, timeout=10.0)
            assert code == 2
        finally:
            srv.close()
            if code is None:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)


class TestBackoffPolicy:
    def test_exponential_with_cap(self):
        pol = BackoffPolicy(base=0.5, factor=2.0, cap=3.0, jitter=0.0)
        rng = random.Random(0)
        assert [pol.delay(n, rng) for n in range(5)] == [0.5, 1.0, 2.0, 3.0, 3.0]

    def test_jitter_bounded(self):
        pol = BackoffPolicy(base=1.0, factor=1.0, cap=1.0, jitter=0.5)
        rng = random.Random(7)
        for n in range(50):
            assert 1.0 <= pol.delay(n, rng) <= 1.5

    def test_budget_exhaustion_and_reset(self):
        b = Backoff(BackoffPolicy(base=1.0, jitter=0.0, max_restarts=2), random.Random(0))
        assert b.next_delay() == 1.0
        assert b.next_delay() == 2.0
        assert b.next_delay() is None  # budget spent
        b.reset()
        assert b.next_delay() == 1.0  # stability resets the ladder

    def test_group_assignment(self):
        insts = ["c", "a", "b"]
        assert ClusterSupervisor.assign_groups(insts, None) == [
            ("a", ("a",)), ("b", ("b",)), ("c", ("c",))
        ]
        assert ClusterSupervisor.assign_groups(insts, 2) == [
            ("w0", ("a", "c")), ("w1", ("b",))
        ]
        assert ClusterSupervisor.assign_groups(insts, 5) == [
            ("a", ("a",)), ("b", ("b",)), ("c", ("c",))
        ]
        with pytest.raises(ValueError):
            ClusterSupervisor.assign_groups(insts, 0)

    def test_bad_heartbeat_config_rejected(self):
        with pytest.raises(ValueError, match="heartbeat_timeout"):
            ClusterEngine(time_scale=SCALE, heartbeat_interval=1.0,
                          heartbeat_timeout=0.5).close()


# ---------------------------------------------------------------------------
# Deployment
# ---------------------------------------------------------------------------


class TestDeployment:
    def test_engine_registered(self):
        assert "cluster" in ENGINE_NAMES
        eng = create_engine("cluster", time_scale=SCALE, **HB)
        assert isinstance(eng, ClusterEngine) and eng.name == "cluster"
        eng.close()

    def test_one_process_per_instance(self):
        eng = ClusterEngine(time_scale=SCALE, **HB)
        sys_ = single_junction("skip", engine=eng)
        sys_.start()
        eng.run_until(1.0)
        status = eng.supervisor.status()
        assert set(status) == {"x"}
        pid = status["x"]["pid"]
        assert pid is not None and pid != os.getpid() and _alive(pid)
        assert pid in live_worker_pgids()
        eng.close()
        assert not _alive(pid)
        assert pid not in live_worker_pgids()

    def test_sharded_workers(self):
        with default_engine(lambda: ClusterEngine(time_scale=SCALE, workers=2, **HB)):
            svc = FailoverRedis(timeout=2.0, seed=0)
        eng = svc.system.engine
        status = eng.supervisor.status()
        assert set(status) == {"w0", "w1"}
        hosted = sorted(i for st in status.values() for i in st["instances"])
        assert hosted == sorted(svc.system.instances)
        pids = {st["pid"] for st in status.values()}
        assert len(pids) == 2
        svc.system.run_until(svc.system.now + 3.0)
        assert not svc.system.failures
        svc.system.shutdown()

    def test_close_is_idempotent(self):
        eng = ClusterEngine(time_scale=SCALE, **HB)
        sys_ = single_junction("skip", engine=eng)
        sys_.start()
        eng.run_until(0.5)
        eng.close()
        eng.close()


class TestDeadSpawn:
    """A worker that exits before its hello fails its launch at once,
    naming the exit code; it used to hold the launch for the 30 s
    handshake budget.  Each wall-clock bound below fails at the
    parent."""

    def test_attach_fails_fast_and_leaks_no_worker(self, monkeypatch):
        before = live_worker_pgids()
        _dies_before_its_hello(monkeypatch)
        eng = ClusterEngine(time_scale=SCALE, **HB)
        t0 = time.monotonic()
        try:
            with pytest.raises(RuntimeError, match="exited with code 1"):
                pair("skip", "skip", engine=eng)
            assert time.monotonic() - t0 < 5.0
            assert live_worker_pgids() <= before
            assert eng.supervisor.statuses == {} and eng.transport.owner == {}
        finally:
            eng.close()

    def test_deploy_fails_fast_and_leaves_nothing_behind(self, monkeypatch):
        eng = ClusterEngine(time_scale=SCALE, **HB)
        sys_ = single_junction("skip", engine=eng)
        try:
            sys_.start()
            eng.run_until(0.5)
            before = live_worker_pgids()
            _dies_before_its_hello(monkeypatch)
            t0 = time.monotonic()
            with pytest.raises(RuntimeError, match="exited with code 1"):
                eng.prepare_instances(["y"])
            assert time.monotonic() - t0 < 5.0
            assert "y" not in eng.supervisor.statuses
            assert "y" not in eng.transport.owner
            assert live_worker_pgids() == before
            assert eng.supervisor.statuses["x"].state is WorkerState.RUNNING
        finally:
            eng.close()

    def test_a_restart_that_exits_before_its_hello_is_one_failed_attempt(self, monkeypatch):
        eng = ClusterEngine(
            time_scale=SCALE,
            backoff=BackoffPolicy(max_restarts=1, base=0.05, jitter=0.0),
            **HB,
        )
        sys_ = single_junction("skip", engine=eng)
        try:
            sys_.start()
            eng.run_until(1.0)
            st = eng.supervisor.statuses["x"]
            _dies_before_its_hello(monkeypatch)
            eng.supervisor.kill("x")
            t0 = time.monotonic()
            while st.state is not WorkerState.FAILED and time.monotonic() - t0 < 5.0:
                eng.run_until(eng.clock.now + 0.5)
            assert st.state is WorkerState.FAILED
            assert time.monotonic() - t0 < 5.0
            assert st.crashes == 1 and st.restarts == 0
            assert "exited with code 1" in st.last_crash_reason
            assert sys_.instances["x"].crashed
        finally:
            eng.close()


class TestForkedWorker:
    """A worker is a fork of the coordinator.  Each test fails when its
    step of the child's set-up (``cluster._detach``) or of the parent's
    handle is removed."""

    @staticmethod
    def _up(eng):
        sys_ = single_junction("skip", engine=eng)
        sys_.start()
        eng.run_until(0.5)
        return sys_

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc")
    def test_a_worker_holds_only_stdio_and_its_link(self):
        eng = ClusterEngine(time_scale=SCALE, **HB)
        caught = signal.signal(signal.SIGUSR1, lambda signum, frame: None)
        try:
            self._up(eng)
            pid = eng.supervisor.worker_pid("x")
            fds = {int(fd): os.readlink(f"/proc/{pid}/fd/{fd}") for fd in os.listdir(f"/proc/{pid}/fd")}
            assert sorted(fds) == [0, 1, 2, 3]
            assert fds[0] == fds[1] == os.devnull
            assert fds[3].startswith("socket:")
            # no handler of the coordinator's is left in the worker
            with open(f"/proc/{pid}/status") as status:
                cgt = next(int(line.split()[1], 16) for line in status if line.startswith("SigCgt:"))
            for sig in (signal.SIGINT, signal.SIGUSR1):
                assert not cgt & (1 << (sig - 1)), sig
        finally:
            signal.signal(signal.SIGUSR1, caught)
            eng.close()

    def test_closing_a_link_ends_its_worker_alone(self):
        # B is forked while the coordinator holds A's link: had B kept a
        # copy of that descriptor, closing A's link would not reach A
        eng = ClusterEngine(time_scale=SCALE, **HB)
        try:
            self._up(eng)
            eng.prepare_instances(["y"])
            sup = eng.supervisor
            a, b = sup.statuses["x"].proc, sup.statuses["y"].proc
            sup.stop()  # the link going down is then no crash to reap
            eng.transport.close_link("x")
            give_up = time.monotonic() + 5.0
            while a.poll() is None and time.monotonic() < give_up:
                eng.run_until(eng.clock.now + 0.5)
            assert a.returncode == 0
            assert b.poll() is None
        finally:
            eng.close()

    def test_a_worker_reaped_before_its_hello_leaves_no_process_group(self, monkeypatch):
        # the group exists once _spawn returns, so the SIGKILL cannot
        # miss a child that has not yet run its own setpgid
        eng = ClusterEngine(time_scale=SCALE, **HB)
        try:
            self._up(eng)
            monkeypatch.setattr(cluster_worker, "run", lambda host, port, name: time.sleep(2.0) or 0)
            for _ in range(5):
                proc = eng.supervisor._spawn("ghost")
                t0 = time.monotonic()
                ClusterSupervisor._reap(SimpleNamespace(proc=proc))
                assert proc.returncode == -signal.SIGKILL
                assert time.monotonic() - t0 < 1.0
                with pytest.raises(ProcessLookupError):
                    os.killpg(proc.pid, 0)
                assert proc.pid not in live_worker_pgids()
        finally:
            eng.close()

    def test_a_worker_reaped_elsewhere_reads_as_exited(self):
        eng = ClusterEngine(time_scale=SCALE, **HB)
        try:
            self._up(eng)
            proc = eng.supervisor.statuses["x"].proc
            assert proc.poll() is None
            assert reap_orphan_workers() == [proc.pid]
            assert proc.poll() is not None
        finally:
            eng.close()  # neither hangs nor signals a pid it no longer owns

    def test_no_other_thread_is_alive_at_a_fork(self, monkeypatch):
        # a fork copies one thread: a lock another thread held stays
        # held in the worker
        threads, fork = [], os.fork

        def counted():
            threads.append(threading.active_count())
            return fork()

        monkeypatch.setattr(os, "fork", counted)
        eng = ClusterEngine(time_scale=SCALE, **HB)
        try:
            self._up(eng)
            eng.prepare_instances(["y"])
            st = eng.supervisor.statuses["x"]
            eng.supervisor.kill("x")
            give_up = time.monotonic() + 10.0
            while not st.restarts and time.monotonic() < give_up:
                eng.run_until(eng.clock.now + 0.5)
            assert st.restarts == 1
        finally:
            eng.close()
        assert threads == [1, 1, 1]


# ---------------------------------------------------------------------------
# Parity with the sim engine
# ---------------------------------------------------------------------------


class TestParity:
    def test_sharding_state_parity(self):
        # strict tier: the same seeded workload through real worker
        # processes lands in the same final KV state as the sim
        from repro.explore.scenarios import arch_scenario

        sim_state, _, sim_obs, sim_failures = sim_run("sharding")
        with default_engine(lambda: ClusterEngine(time_scale=SCALE, **HB)):
            sc = arch_scenario("sharding")
            system = sc.run()
        assert len(system.failures) == sim_failures == 0
        assert final_state(system) == sim_state
        assert observable(sc.observe(system)) == sim_obs
        system.shutdown()


class TestDescriptorCeiling:
    def test_sixteen_workers_in_a_process_past_fd_setsize(self, many_descriptors):
        # select() cannot name a descriptor >= 1024; the clock's wait
        # hands it the epoll descriptor alone, so a coordinator whose
        # 16 worker sockets (and its epoll descriptor: the fallback to
        # millisecond waits) are all numbered past the ceiling serves
        from repro.arch.sharding import ShardedRedis

        many_descriptors()
        with default_engine(lambda: ClusterEngine(time_scale=SCALE, workers=16, **HB)):
            svc = ShardedRedis(n_shards=16, seed=0)
        system = svc.system
        try:
            assert len(system.engine.supervisor.statuses) == 16
            assert system.clock.loop._selector.fileno() > 1024
            replies = []
            for i in range(32):
                svc.submit(Command("SET", f"k{i}", b"v%d" % i), replies.append)
            give_up = time.monotonic() + 20.0
            while len(replies) < 32 and time.monotonic() < give_up:
                system.run_until(system.now + 1.0)
            assert [r.ok for r in replies] == [True] * 32
            assert sum(svc.shard_sizes()) == 32
            assert system.failures == []
        finally:
            system.shutdown()


# ---------------------------------------------------------------------------
# The framed stream both socket transports share
# ---------------------------------------------------------------------------

SOCKET_ENGINES = ("cluster", "realtime-tcp")


def _socket_engine(name, time_scale=1.0):
    if name == "cluster":
        return ClusterEngine(time_scale=time_scale, **HB)
    return RealtimeEngine(time_scale=time_scale, transport="tcp")


def _sharded(engine):
    from repro.arch.sharding import ShardedRedis

    with default_engine(lambda: _socket_engine(engine, SCALE)):
        return ShardedRedis(n_shards=2, seed=0)


def _call(svc, cmd):
    replies = []
    svc.submit(cmd, replies.append)
    give_up = time.monotonic() + 20.0
    while not replies and time.monotonic() < give_up:
        svc.system.run_until(svc.system.now + 0.5)
    return replies


def _corrupt_once(monkeypatch, engine, attr, corrupt, admits=lambda arg: True):
    """Make the next call the engine's transport makes to its module's
    ``attr`` (``encode_message`` or ``frame``) with an argument that
    ``admits`` accepts return ``corrupt(real, arg)``.  Returns the list
    that argument is recorded in."""
    from repro.runtime import cluster, realtime

    module = cluster if engine == "cluster" else realtime
    real, sent = getattr(module, attr), []

    def once(arg):
        if sent or not admits(arg):
            return real(arg)
        sent.append(arg)
        return corrupt(real, arg)

    monkeypatch.setattr(module, attr, once)
    return sent


def _relayed(body):
    """A cluster frame body that carries a message (not a ping)."""
    return body[:1] == cluster_worker.OP_MSG


def _shape_invalid(real, msg):
    # decodes, but its saved-data tag is not [schema, blob]
    from repro.serde.framing import encode_generic

    return encode_generic({
        "s": msg.src, "d": msg.dst, "k": msg.kind, "i": msg.msg_id,
        "p": {"\x00saved": [1, 2, 3]},
    })


def _assert_no_worker_restarted(system):
    if system.engine.name != "cluster":
        return
    sup, transport = system.engine.supervisor, system.engine.transport
    assert all(link.alive for link in transport.links.values())
    assert len(transport.links) == len(sup.statuses)
    assert [st.crashes for st in sup.statuses.values()] == [0] * len(sup.statuses)
    assert [st.restarts for st in sup.statuses.values()] == [0] * len(sup.statuses)


class TestMalformedFrame:
    """A body that does not decode is rejected alone on both socket
    engines.  A corrupt length prefix keeps per-engine expectations:
    realtime-tcp reconnects (``test_engine.py::TestTcpMalformedFrame``),
    and on the cluster the link drop is a worker crash that restarts."""

    def _rejected_alone(self, monkeypatch, engine, corrupt):
        svc = _sharded(engine)
        system = svc.system
        try:
            assert [r.ok for r in _call(svc, Command("SET", "k", b"v0"))] == [True]
            rejected = system.network.stats.get("wire_rejected", 0)
            sent = _corrupt_once(monkeypatch, engine, "encode_message", corrupt)
            assert [r.ok for r in _call(svc, Command("SET", "k", b"v1"))] == [True]
            assert sent
            assert system.network.stats["wire_rejected"] == rejected + 1
            _assert_no_worker_restarted(system)
            reply = _call(svc, Command("GET", "k"))
            assert [(r.ok, r.value) for r in reply] == [(True, b"v1")]
            assert system.failures == []
        finally:
            system.shutdown()

    def test_one_bad_body_is_rejected_alone(self, monkeypatch):
        # a relayed body that decodes but is shape-invalid is counted and
        # dropped; it used to escape the read loop as ValueError, close
        # the link and have the supervisor restart a healthy worker
        self._rejected_alone(monkeypatch, "cluster", _shape_invalid)

    def test_one_bad_body_is_rejected_alone_on_realtime_tcp(self, monkeypatch):
        self._rejected_alone(monkeypatch, "realtime-tcp", _shape_invalid)

    def test_undecodable_body_is_rejected_alone_on_cluster(self, monkeypatch):
        self._rejected_alone(monkeypatch, "cluster", lambda real, msg: b"\xff garbage")

    def test_corrupt_prefix_on_cluster_is_a_worker_crash_that_restarts(self, monkeypatch):
        # the worker refuses the oversized length and exits; the
        # supervisor sees the link drop and restarts it
        svc = _sharded("cluster")
        system = svc.system
        sup = system.engine.supervisor
        try:
            assert [r.ok for r in _call(svc, Command("SET", "k", b"v0"))] == [True]
            sent = _corrupt_once(
                monkeypatch, "cluster", "frame",
                lambda real, body: LEN_PREFIX.pack(MAX_FRAME_LEN + 1) + body, _relayed,
            )
            svc.submit(Command("SET", "k", b"v1"), lambda reply: None)
            give_up = time.monotonic() + 20.0
            while time.monotonic() < give_up and not (
                sent and any(st.restarts for st in sup.statuses.values()) and not sup.degraded
            ):
                system.run_until(system.now + 0.5)
            crashed = [st for st in sup.statuses.values() if st.crashes]
            assert len(crashed) == 1 and crashed[0].restarts == 1
            assert crashed[0].state is WorkerState.RUNNING
            assert [r.ok for r in _call(svc, Command("SET", "k2", b"v2"))] == [True]
        finally:
            system.shutdown()


class TestDuplicatedFrame:
    """A frame the wire delivers twice comes back with no due entry
    left: it is counted as ``wire_rejected`` and dropped, and the stream
    stays up (receiver-side msg-id dedup already makes a repeated body
    harmless).  It used to raise ``IndexError`` out of the read loop:
    the cluster restarted the worker and lost the update, and
    realtime-tcp lost its stream for good."""

    @pytest.mark.parametrize("engine", SOCKET_ENGINES)
    def test_a_duplicated_frame_is_rejected_and_the_stream_stays_up(self, monkeypatch, engine):
        svc = _sharded(engine)
        system = svc.system
        try:
            assert [r.ok for r in _call(svc, Command("SET", "k", b"v0"))] == [True]
            rejected = system.network.stats.get("wire_rejected", 0)
            sent = _corrupt_once(
                monkeypatch, engine, "frame", lambda real, body: real(body) * 2,
                _relayed if engine == "cluster" else (lambda body: True),
            )
            assert [r.ok for r in _call(svc, Command("SET", "k", b"v1"))] == [True]
            assert sent
            system.run_until(system.now + 1.0)  # the copy is back by now
            assert system.network.stats["wire_rejected"] == rejected + 1
            _assert_no_worker_restarted(system)
            for i in range(4):
                assert [r.ok for r in _call(svc, Command("SET", f"k{i}", b"v"))] == [True]
            reply = _call(svc, Command("GET", "k"))
            assert [(r.ok, r.value) for r in reply] == [(True, b"v1")]
            system.run_until(system.now + 1.0)
            assert system.engine.transport.in_flight == 0
            assert system.failures == []
        finally:
            system.shutdown()


class TestLatencyFloor:
    """A message leaves at once and is dispatched at ``max(send +
    latency, arrival)``: never before its due instant, and always to the
    message whose frame it was (the per-stream FIFO stays aligned)."""

    LATENCY = 0.005

    @pytest.mark.parametrize("engine", ("cluster", "realtime-tcp"))
    def test_no_message_is_dispatched_before_send_plus_latency(self, engine):
        from repro.arch.sharding import ShardedRedis

        with default_engine(lambda: _socket_engine(engine)):
            svc = ShardedRedis(n_shards=2, latency=self.LATENCY, seed=0)
        system = svc.system
        clock, transport = system.clock, system.engine.transport
        real_deliver, early, matched = transport.deliver, [], []

        def deliver(msg, latency, dispatch, **kw):
            due = clock.now + latency

            def checked(m):
                matched.append((m.msg_id, m.kind, m.dst) == (msg.msg_id, msg.kind, msg.dst))
                if clock.now < due:
                    early.append((msg.kind, due - clock.now))
                dispatch(m)

            real_deliver(msg, latency, checked, **kw)

        transport.deliver = deliver
        try:
            replies = []
            for i in range(25):
                svc.submit(Command("SET", f"k{i}", b"v%d" % i), replies.append)
                svc.submit(Command("GET", f"k{i}"), replies.append)
            give_up = time.monotonic() + 30.0
            while len(replies) < 50 and time.monotonic() < give_up:
                system.run_until(system.now + 0.1)
            assert [r.ok for r in replies] == [True] * 50
            assert len(matched) >= 4 * 50 and all(matched)
            assert early == []
            assert system.failures == []
        finally:
            system.shutdown()


class TestCrashWindow:
    """The bytes of a frame can be back long before its due instant; a
    worker that dies in that window still loses the message."""

    LATENCY = 0.2

    def _system(self):
        eng = ClusterEngine(
            time_scale=1.0, backoff=BackoffPolicy(base=60.0, jitter=0.0), **HB
        )
        sys_ = pair("assert[g] Done", "skip", g_decls="| init prop !Done",
                    engine=eng, latency=self.LATENCY)
        seen = {"sent": [], "dispatched": [], "drops": []}
        real_drop, real_deliver = sys_.network._drop, eng.transport.deliver

        def drop(msg, src, dst, reason):
            seen["drops"].append((msg.msg_id, msg.kind, reason))
            real_drop(msg, src, dst, reason)

        def deliver(msg, latency, dispatch, **kw):
            if msg.kind == "update" and msg.dst.startswith("g::") and not seen["sent"]:
                seen["sent"].append(msg)
                inner = dispatch

                def dispatch(m):
                    seen["dispatched"].append(m.msg_id)
                    inner(m)

            real_deliver(msg, latency, dispatch, **kw)

        sys_.network._drop = drop
        eng.transport.deliver = deliver
        return eng, sys_, seen

    @staticmethod
    def _run_until(eng, done):
        give_up = time.monotonic() + 10.0
        while not done() and time.monotonic() < give_up:
            eng.run_until(eng.clock.now + 0.002)
        assert done()

    @pytest.mark.parametrize("victim", ("g", "f"))
    def test_kill_after_the_bytes_are_back_drops_the_message(self, victim):
        # victim g is the destination's worker, f the source's
        eng, sys_, seen = self._system()
        try:
            sys_.start(t=1.0)
            link = eng.transport.links["g"]
            self._run_until(eng, lambda: seen["sent"] and not link.outstanding)
            msg = seen["sent"][0]
            assert seen["dispatched"] == [] and eng.transport.in_flight >= 1
            eng.supervisor.kill(victim)
            eng.run_until(eng.clock.now + 2 * self.LATENCY)
            assert (msg.msg_id, "update", "worker_down") in seen["drops"]
            assert seen["dispatched"] == []
            assert sys_.instances[victim].crashed
        finally:
            eng.close()

    def test_kill_with_frames_inside_the_worker_releases_them(self):
        eng, sys_, seen = self._system()
        try:
            # a stopped worker holds every frame sent to it
            os.killpg(eng.supervisor.worker_pid("g"), signal.SIGSTOP)
            sys_.start(t=1.0)
            link = eng.transport.links["g"]
            self._run_until(eng, lambda: seen["sent"])
            assert link.outstanding and eng.transport.in_flight >= len(link.outstanding)
            eng.supervisor.kill("g")
            eng.run_until(eng.clock.now + 2 * self.LATENCY)
            assert sys_.instances["g"].crashed and seen["dispatched"] == []
            # the transport's share of pending_work() is back to 0 (the
            # heartbeat keeps the clock's share above it)
            assert eng.transport.in_flight == 0
            assert eng.pending_work() == eng.clock.pending_events()
        finally:
            eng.close()


# ---------------------------------------------------------------------------
# Crash supervision
# ---------------------------------------------------------------------------

#: deterministic restart schedule for the failover drills: first retry
#: 12 logical seconds after detection, no jitter.  The delay is chosen
#: so every client op completes *before* the restarted replica can
#: re-register — a fresh b1 rejoining mid-workload would race its empty
#: replies against b2's, and the two arms restart apart (the worker's
#: fork and handshake consume wall time the cluster clock also counts)
DRILL_BACKOFF = BackoffPolicy(base=12.0, jitter=0.0)

#: the client workload both failover arms run: two ops before the
#: fault, three during the backoff window (degraded mode), matching the
#: exploration scenario's shape
DRILL_OPS = (
    ("SET", "a", b"1"),
    ("SET", "b", b"x"),
    ("SET", "a", b"2"),
    ("GET", "a", None),
    ("GET", "b", None),
)


def _drive_failover(svc, *, kill_after_op=2, kill=None):
    """Run DRILL_OPS with 2-logical-second gaps, invoking ``kill``
    after ``kill_after_op`` completed ops; returns the client history."""
    history = []
    clock = svc.system.clock

    def submit(kind, key, value):
        cmd = Command(kind, key, value) if kind == "SET" else Command(kind, key)
        svc.submit(
            cmd,
            lambda r, k=kind, ky=key, v=value: history.append(
                (k, ky, v if k == "SET" else r.value, bool(r.ok))
            ),
        )

    for i, (kind, key, value) in enumerate(DRILL_OPS):
        if i == kill_after_op and kill is not None:
            kill()
            svc.system.run_until(clock.now + 2.0)
        submit(kind, key, value)
        svc.system.run_until(clock.now + 2.0)
    svc.system.run_until(clock.now + 25.0)  # backoff + restart + settle
    return history


class TestCrashSupervision:
    def test_sigkill_failover_parity_with_sim(self):
        """The acceptance drill: SIGKILL one replica's worker mid-load.
        The surviving replica keeps serving (degraded mode), the
        supervisor restarts the worker after backoff, and the client
        history matches a sim run with the equivalent simulated fault."""
        # sim arm: simulated crash + scheduled restart at the same
        # logical offsets the supervisor will produce
        svc_sim = FailoverRedis(timeout=2.0, seed=0)
        plan = FaultPlan(svc_sim.system)

        def sim_kill():
            plan.crash("b1")
            plan.restart_at(svc_sim.system.now + 12.0, "b1")

        sim_hist = _drive_failover(svc_sim, kill=sim_kill)
        assert svc_sim.system.instances["b1"].alive

        # cluster arm: a real SIGKILL, recovered by the supervisor
        with default_engine(
            lambda: ClusterEngine(time_scale=SCALE, backoff=DRILL_BACKOFF, **HB)
        ):
            svc = FailoverRedis(timeout=2.0, seed=0)
        sup = svc.system.engine.supervisor
        cl_hist = _drive_failover(svc, kill=lambda: sup.kill("b1"))

        st = sup.statuses["b1"]
        assert st.state is WorkerState.RUNNING and st.crashes == 1 and st.restarts == 1
        assert svc.system.instances["b1"].alive
        assert sup.report().recovered()
        assert not svc.system.failures and not svc_sim.system.failures
        # observable parity: client-visible results match the sim run
        assert cl_hist == sim_hist
        assert [ok for (_, _, _, ok) in cl_hist] == [True] * len(DRILL_OPS)
        svc.system.shutdown()

    def test_worker_kill_crashes_instance_immediately(self):
        eng = ClusterEngine(
            time_scale=SCALE, backoff=BackoffPolicy(base=2.0, jitter=0.0), **HB
        )
        sys_ = single_junction("skip", engine=eng)
        sys_.start()
        eng.run_until(1.0)
        old_pid = eng.supervisor.worker_pid("x")
        killed_at = eng.clock.now
        eng.supervisor.kill("x")
        eng.run_until(eng.clock.now + 3.0)
        # EOF detection: the crash is recorded well before any heartbeat
        # timeout could have fired (a forked restart may already have
        # landed 2.0 s after it, so the record is what is asserted)
        st = eng.supervisor.statuses["x"]
        assert st.crashes == 1
        assert st.last_crash_reason in ("connection lost", "process exit (code -9)")
        crashes = [e for e in sys_.telemetry.events if e.kind == "worker_crash"]
        assert [e.attrs["reason"] for e in crashes] == [st.last_crash_reason]
        assert crashes[0].time - killed_at < HB["heartbeat_timeout"]
        eng.run_until(eng.clock.now + 12.0)  # backoff 2.0 + fork + handshake
        assert st.restarts == 1 and st.state is WorkerState.RUNNING
        assert sys_.instances["x"].alive
        assert eng.supervisor.worker_pid("x") != old_pid
        assert not eng.supervisor.degraded
        eng.close()

    def test_heartbeat_detects_wedged_worker(self):
        # SIGSTOP wedges the process without killing it: the socket
        # stays open, so only the heartbeat timeout can catch this
        eng = ClusterEngine(
            time_scale=SCALE, backoff=BackoffPolicy(base=1.0, jitter=0.0), **HB
        )
        sys_ = single_junction("skip", engine=eng)
        sys_.start()
        eng.run_until(1.0)
        os.killpg(eng.supervisor.worker_pid("x"), signal.SIGSTOP)
        eng.run_until(eng.clock.now + 12.0)
        st = eng.supervisor.statuses["x"]
        assert st.heartbeat_timeouts >= 1
        assert st.last_crash_reason == "missed heartbeats"
        assert st.state is WorkerState.RUNNING and st.restarts >= 1
        eng.close()

    def test_restart_budget_exhaustion_fails_worker(self):
        eng = ClusterEngine(
            time_scale=SCALE,
            backoff=BackoffPolicy(base=0.5, jitter=0.0, max_restarts=0),
            **HB,
        )
        sys_ = single_junction("skip", engine=eng)
        sys_.start()
        eng.run_until(1.0)
        eng.supervisor.kill("x")
        eng.run_until(eng.clock.now + 6.0)
        st = eng.supervisor.statuses["x"]
        assert st.state is WorkerState.FAILED
        assert sys_.instances["x"].crashed  # stays down: budget spent
        assert eng.supervisor.degraded
        assert not eng.supervisor.report().recovered()
        eng.close()

    def test_a_link_lost_after_its_loop_closed_schedules_no_restart(self):
        # at interpreter exit a reader task's finally can run after its
        # loop was closed without the engine's close(): the crash is
        # recorded, and no restart is scheduled on the closed loop
        eng = ClusterEngine(time_scale=SCALE, **HB)
        sys_ = single_junction("skip", engine=eng)
        sys_.start()
        eng.run_until(1.0)
        link = eng.transport.links["x"]
        eng.clock.loop.close()
        eng.transport._link_closed(link)  # the reader's finally
        st = eng.supervisor.statuses["x"]
        assert st.state is WorkerState.DOWN and st.crashes == 1
        assert st.last_crash_reason == "connection lost"
        assert st.backoff.attempt == 0
        kinds = [e.kind for e in sys_.telemetry.events]
        assert "worker_crash" in kinds and "worker_restart_scheduled" not in kinds
        eng.close()
        assert st.proc.poll() is not None  # _declare_crash reaped it

    def test_architecture_revival_wins_restart_race(self):
        # if the architecture restarts the instance before the worker
        # handshake completes, restart_instance raises and the
        # supervisor must yield rather than crash
        eng = ClusterEngine(time_scale=SCALE, backoff=DRILL_BACKOFF, **HB)
        sys_ = single_junction("skip", engine=eng)
        sys_.start()
        eng.run_until(1.0)
        eng.supervisor.kill("x")
        eng.run_until(eng.clock.now + 3.0)
        assert sys_.instances["x"].crashed
        sys_.restart_instance("x")  # the architecture revives it first
        eng.run_until(eng.clock.now + 16.0)
        assert sys_.instances["x"].alive
        assert eng.supervisor.statuses["x"].state is WorkerState.RUNNING
        eng.close()

    def test_scheduled_fault_drills(self):
        eng = ClusterEngine(
            time_scale=SCALE, backoff=DRILL_BACKOFF, drills=[(2.0, "x")], **HB
        )
        sys_ = single_junction("skip", engine=eng)
        sys_.start()
        eng.run_until(25.0)
        st = eng.supervisor.statuses["x"]
        assert st.crashes == 1 and st.restarts == 1
        assert st.state is WorkerState.RUNNING
        eng.close()


# ---------------------------------------------------------------------------
# Fault-plan / chaos integration
# ---------------------------------------------------------------------------


class TestFaultSurface:
    def test_kill_process_on_cluster_uses_supervisor(self):
        eng = ClusterEngine(time_scale=SCALE, backoff=DRILL_BACKOFF, **HB)
        sys_ = single_junction("skip", engine=eng)
        sys_.start()
        eng.run_until(1.0)
        plan = FaultPlan(sys_)
        plan.kill_process("x")
        eng.run_until(eng.clock.now + 3.0)
        assert sys_.instances["x"].crashed
        assert eng.supervisor.statuses["x"].crashes == 1
        assert any(k == "kill_process" for (_, k, _) in plan.injected)
        eng.close()

    def test_kill_process_degrades_to_crash_on_sim(self):
        sys_ = single_junction("skip")
        sys_.start()
        sys_.run_until(1.0)
        plan = FaultPlan(sys_)
        plan.kill_process("x")
        assert sys_.instances["x"].crashed
        detail = next(d for (_, k, d) in plan.injected if k == "kill_process")
        assert "no supervisor" in detail
        sys_.restart_instance("x")
        assert sys_.instances["x"].alive
        with pytest.raises(StartStopFailure):
            sys_.restart_instance("x")  # not crashed any more

    def test_chaos_schedules_process_kills(self):
        sys_ = single_junction("skip")
        sys_.start()
        chaos = ChaosEngine(
            sys_, seed=3,
            config=ChaosConfig(horizon=10.0, crash_storms=0, process_kills=2,
                               link_flaps=0, loss_bursts=0),
        )
        events = chaos.schedule(kills=["x"])
        kills = [e for e in events if e[1] == "kill_process"]
        restarts = [e for e in events if e[1] == "restart"]
        # unsupervised engine: each kill degrades to crash + restart
        assert len(kills) == 2 and len(restarts) == 2
        sys_.run_until(12.0)
        assert sys_.instances["x"].alive
        assert not sys_.failures

    def test_chaos_leaves_recovery_to_supervisor_on_cluster(self):
        eng = ClusterEngine(
            time_scale=SCALE, backoff=BackoffPolicy(base=0.5, jitter=0.0), **HB
        )
        sys_ = single_junction("skip", engine=eng)
        sys_.start()
        chaos = ChaosEngine(
            sys_, seed=3,
            config=ChaosConfig(horizon=6.0, crash_storms=0, process_kills=1,
                               link_flaps=0, loss_bursts=0),
        )
        events = chaos.schedule(kills=["x"])
        assert [e[1] for e in events] == ["kill_process"]  # no paired restart
        eng.run_until(20.0)
        assert sys_.instances["x"].alive  # the supervisor recovered it
        assert eng.supervisor.statuses["x"].restarts >= 1
        eng.close()


# ---------------------------------------------------------------------------
# Drain / shutdown
# ---------------------------------------------------------------------------


class TestDrain:
    def test_drain_stops_workers_cleanly(self):
        eng = ClusterEngine(time_scale=SCALE, **HB)
        sys_ = single_junction("skip", engine=eng)
        sys_.start()
        eng.run_until(1.0)
        pid = eng.supervisor.worker_pid("x")
        assert eng.drain(grace=2.0) is True
        assert eng.supervisor.statuses["x"].state is WorkerState.STOPPED
        assert not _alive(pid)
        eng.close()

    def test_repro_run_realtime_sigterm_drains(self):
        self.sigterm_drains("failover")

    @pytest.mark.parametrize("arch", ("elastic", "checkpointing", "remote_snapshot"))
    def test_sigterm_drains_architectures_that_are_not_request_ports(self, arch):
        # their scenarios used to hide the system from the signal
        # handler ("before the system came up", exit 130)
        self.sigterm_drains(arch)

    def sigterm_drains(self, arch):
        # the graceful-shutdown satellite, end to end: SIGTERM a live
        # `repro run --engine realtime` and expect a drained summary
        # and exit code 0 instead of a mid-write death
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in ("src", env.get("PYTHONPATH", "")) if p
        )
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "run", arch,
             "--engine", "realtime,time_scale=1.0", "--until", "300"],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True, env=env,
        )
        try:
            time.sleep(3.0)  # mid-workload (horizon is 300 logical s)
            proc.send_signal(signal.SIGTERM)
            out, _ = proc.communicate(timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        assert proc.returncode == 0, out
        assert "drained=clean" in out
        assert "engine=realtime" in out

    def test_repro_cluster_cli_fault_drill(self):
        # the CLI drill the cluster-smoke CI job runs, in-process
        from repro.cli import main

        import io
        from contextlib import redirect_stdout

        buf = io.StringIO()
        with redirect_stdout(buf):
            # 20x compression (not 50x): the first op's cold-start wall
            # latency through the double-socket relay must stay inside
            # the failover timeout budget
            rc = main([
                "cluster", "failover", "--engine", "cluster,time_scale=0.05",
                "--kill", "b1", "--kill-at", "4", "--until", "20",
            ])
        out = buf.getvalue()
        assert rc == 0, out
        assert "recovered=True" in out
        assert "crashes=1" in out

    def test_repro_cluster_takes_heartbeat_options_from_the_spec(self):
        # the heartbeat is set through the engine spec, the one way
        from repro.cli import main

        import io
        from contextlib import redirect_stdout

        with redirect_stdout(io.StringIO()) as buf:
            rc = main([
                "cluster", "sharding",
                "--engine", "cluster,heartbeat_interval=0.4", "--until", "2",
            ])
        assert rc == 0, buf.getvalue()
        assert reap_orphan_workers() == []
