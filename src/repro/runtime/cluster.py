"""The cluster execution engine: multi-process deployment with crash
supervision, heartbeats and restart-with-backoff.

The paper's deployment model (libcompart) runs one OS process per
component instance and wires them over TCP.  :class:`ClusterEngine`
realizes that behind the Clock/Transport seam: at ``attach``
time it spawns one **worker process** per instance (or per shard
group when ``workers=N`` is given) from the stdlib-only
:mod:`repro.runtime.cluster_worker` module, and every runtime message
addressed to an instance physically transits that instance's worker
over a framed TCP link (``coordinator → worker → coordinator →
dispatch``).  The frame leaves at send time and the message is
dispatched at ``max(send + link latency, the frame's return)``: the
modelled latency is a floor under the relay, not added to it.  A
worker's death *is* the instance's failure:
messages to it stop flowing immediately, and the
:class:`ClusterSupervisor` turns the detected crash into a real
``crash_instance`` — the same fault surface the PR 1 delivery/failover
machinery and the chaos engine already react to.

Supervision model (Erlang/systemd shaped):

* **heartbeats** — the supervisor pings every worker each
  ``heartbeat_interval`` logical seconds; a worker that has not ponged
  within ``heartbeat_timeout`` is declared crashed even if its process
  is technically alive (wedged/SIGSTOPped).
* **crash detection** — process exit (``poll()``), socket EOF/reset
  (fast path: a SIGKILL is usually noticed within one loop iteration),
  or missed heartbeats.
* **restart with backoff** — capped exponential delay plus seeded
  jitter (:class:`~repro.runtime.supervisor.BackoffPolicy`); the
  attempt counter resets after the worker stays up ``stable_after``
  logical seconds, and an optional ``max_restarts`` budget turns a
  crash-looping worker into a permanent ``failed`` state.
* **degraded mode** — while a worker is down the rest of the system
  keeps serving; the architecture's own failover logic (deregistration,
  warm replicas) sees the crash through the normal liveness surface.
* **graceful drain** — ``drain()`` stops supervision, asks workers to
  shut down, and runs the engine until in-flight work settles before
  force-killing stragglers (wired to SIGTERM by ``repro cluster``).

Honest scoping: junction scheduling, guard evaluation and host blocks
still execute in the coordinator, on its loop thread, as on the
realtime engine (host functions are arbitrary Python closures and
cannot cross a process boundary without pickling them); the worker
processes embody each instance's *compartment* — its network identity
and its crash unit.  What is real: OS processes,
kernel sockets, serde wire framing, SIGKILL-able instances,
heartbeat-based failure detection, supervised restart.
"""

from __future__ import annotations

import asyncio
import os
import signal
import subprocess
import sys
from collections import deque
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Iterable, Sequence

from ..core.errors import SerdeError, StartStopFailure
from .cluster_worker import OP_DELIVER, OP_HELLO, OP_MSG, OP_PING, OP_PONG, OP_SHUTDOWN
from .engine import ExecutionEngine, Transport
from .realtime import RealtimeClock
from .supervisor import (
    Backoff,
    BackoffPolicy,
    SupervisorReport,
    WorkerState,
    WorkerStatus,
)
from .wire import decode_message, encode_message, frame, read_frame

if TYPE_CHECKING:  # pragma: no cover
    from .system import System

__all__ = [
    "ClusterEngine",
    "ClusterSupervisor",
    "ClusterTransport",
    "live_worker_pgids",
    "reap_orphan_workers",
]

_WORKER_PATH = Path(__file__).with_name("cluster_worker.py")

#: wall-clock budget for a spawned worker to dial back and say hello
_SPAWN_TIMEOUT_WALL = 30.0

# ---------------------------------------------------------------------------
# Worker-process hygiene registry
#
# Every spawned worker is its own session leader (start_new_session), so
# its pid doubles as a process-group id.  The registry lets test
# fixtures (tests/engine/conftest.py) verify that no worker survives a
# test and reap any that do — a failing test must never leave orphaned
# processes on CI.
# ---------------------------------------------------------------------------

_LIVE_WORKER_PGIDS: set[int] = set()


def live_worker_pgids() -> set[int]:
    """Process-group ids of cluster workers believed to be alive."""
    return set(_LIVE_WORKER_PGIDS)


def reap_orphan_workers() -> list[int]:
    """Kill any worker process groups still registered; returns the
    pgids that were actually alive (i.e. leaked)."""
    leaked: list[int] = []
    for pgid in sorted(_LIVE_WORKER_PGIDS):
        _LIVE_WORKER_PGIDS.discard(pgid)
        try:  # collect an already-dead direct child without counting it
            done, _ = os.waitpid(pgid, os.WNOHANG)
            if done == pgid:
                continue
        except ChildProcessError:
            continue
        try:
            os.killpg(pgid, signal.SIGKILL)
        except ProcessLookupError:
            continue
        leaked.append(pgid)
        try:
            os.waitpid(pgid, 0)
        except ChildProcessError:
            pass
    return leaked


# ---------------------------------------------------------------------------
# Transport
# ---------------------------------------------------------------------------


class _WorkerLink:
    """One live worker connection."""

    __slots__ = ("name", "reader", "writer", "outstanding", "alive", "closed", "task")

    def __init__(self, name: str, reader, writer):
        self.name = name
        self.reader = reader
        self.writer = writer
        #: ``(due, dispatch)`` per M frame sent whose D frame has not
        #: returned yet — the stream is FIFO, so the head is the next D
        self.outstanding: deque[tuple[float, Callable]] = deque()
        self.alive = True
        self.closed = False
        self.task: asyncio.Task | None = None


class ClusterTransport(Transport):
    """Per-instance worker routing over framed TCP.

    ``deliver`` encodes the message and writes it at once through the
    *destination instance's* worker process (an ``M`` frame the worker
    returns as ``D``).  The modelled link latency is a floor, not an
    addend: the message is dispatched at ``max(send + latency, the D
    frame's return)`` — from the read loop when the bytes come back
    late, else from one timer armed at the due instant.  Dispatch
    re-enters :meth:`~repro.runtime.channels.Network.dispatch`, so
    liveness and partition policy are re-checked at arrival exactly as
    on every other engine.  A message whose source or destination
    worker is dead at the due instant is dropped at the transport
    (``worker_down``) — sender-side retransmission and ``otherwise``
    deadlines see the loss, exactly as with a crashed remote process.
    """

    inproc = False

    def __init__(self):
        super().__init__()
        self.port: int | None = None
        self._server: asyncio.base_events.Server | None = None
        self.links: dict[str, _WorkerLink] = {}
        self._expected: dict[str, asyncio.Future] = {}
        #: instance name -> worker (group) name, set by the supervisor
        self.owner: dict[str, str] = {}
        #: supervisor hooks
        self.on_pong = None
        self.on_link_down = None
        self._closing = False

    # -- wiring -------------------------------------------------------------

    def bind(self, network, clock) -> None:
        super().bind(network, clock)
        loop = clock.loop
        self._server = loop.run_until_complete(
            asyncio.start_server(self._on_connect, "127.0.0.1", 0)
        )
        self.port = self._server.sockets[0].getsockname()[1]

    def expect(self, name: str) -> asyncio.Future:
        """Register interest in a worker's hello; returns a future
        resolved with its :class:`_WorkerLink`."""
        fut = self.clock.loop.create_future()
        self._expected[name] = fut
        return fut

    def unexpect(self, name: str) -> None:
        self._expected.pop(name, None)

    async def _on_connect(self, reader, writer):
        link = None
        try:
            hello = await asyncio.wait_for(read_frame(reader), timeout=_SPAWN_TIMEOUT_WALL)
            if hello[:1] != OP_HELLO:
                writer.close()
                return
            name = hello[1:].decode("utf-8", errors="replace")
            fut = self._expected.pop(name, None)
            if fut is None or fut.done():
                writer.close()  # unsolicited / stale connection
                return
            link = _WorkerLink(name, reader, writer)
            link.task = asyncio.current_task()
            self.links[name] = link
            fut.set_result(link)
            await self._read_loop(link)
        except (asyncio.TimeoutError, asyncio.IncompleteReadError,
                ConnectionError, OSError):
            writer.close()
        except SerdeError:
            # a corrupt length prefix poisons the rest of the stream —
            # drop the link; supervision treats it as a worker crash
            self.network.count("wire_rejected")
            writer.close()
        except asyncio.CancelledError:
            pass  # engine close() cancels the reader mid-await
        finally:
            if link is not None:
                self._link_closed(link)

    async def _read_loop(self, link: _WorkerLink) -> None:
        while True:
            body = await read_frame(link.reader)
            op, payload = body[:1], body[1:]
            if op == OP_DELIVER:
                due, dispatch = link.outstanding.popleft()
                try:
                    msg = decode_message(payload)
                except SerdeError:
                    self.in_flight -= 1
                    self.network.count("wire_rejected")
                    continue
                if self.clock.now >= due:
                    self._arrive(msg, dispatch)
                else:
                    self.clock.call_at(due, lambda m=msg, d=dispatch: self._arrive(m, d))
            elif op == OP_PONG:
                if self.on_pong is not None:
                    self.on_pong(link.name)
            # unknown opcodes ignored (forward compatibility)

    def _link_closed(self, link: _WorkerLink) -> None:
        """Idempotent teardown accounting for one dead connection."""
        if link.closed:
            return
        link.closed = True
        link.alive = False
        # frames swallowed by the dead worker will never come back
        self.in_flight -= len(link.outstanding)
        link.outstanding.clear()
        try:
            link.writer.close()
        except RuntimeError:
            pass  # event loop already closed (interpreter teardown)
        if self.links.get(link.name) is link:
            del self.links[link.name]
        if not self._closing and self.on_link_down is not None:
            self.on_link_down(link.name)

    def close_link(self, name: str) -> None:
        """Force a worker's connection down (the read loop finishes the
        accounting on the next loop iteration)."""
        link = self.links.get(name)
        if link is not None and not link.closed:
            link.alive = False
            link.writer.close()

    # -- delivery -----------------------------------------------------------

    def deliver(self, msg, latency, dispatch, *, label=None, footprint=None):
        self.in_flight += 1
        due = self.clock.now + latency
        owner = self.owner.get(msg.dst.split("::", 1)[0])
        if owner is None:
            # instances without a worker (the __init__ start-up
            # pseudo-instance) deliver locally
            self.clock.call_at(due, lambda m=msg: self._arrive(m, dispatch))
            return
        link = self.links.get(owner)
        if link is None or not link.alive:
            self.clock.call_at(due, lambda m=msg: self._drop(m))
            return
        # frames on the stream stay in order; a dead link is seen, and
        # its entries released, by the read loop
        link.writer.write(frame(OP_MSG + encode_message(msg)))
        link.outstanding.append((due, dispatch))

    def _arrive(self, msg, dispatch) -> None:
        """The due instant has passed and the bytes are back: dispatch,
        unless either end's worker died meanwhile — the sender's
        outbound halts the moment its link is seen down, not at
        heartbeat time."""
        if self._worker_down(msg.src) or self._worker_down(msg.dst):
            self._drop(msg)
        else:
            self.in_flight -= 1
            dispatch(msg)

    def _worker_down(self, endpoint: str) -> bool:
        owner = self.owner.get(endpoint.split("::", 1)[0])
        if owner is None:
            return False
        link = self.links.get(owner)
        return link is None or not link.alive

    def _drop(self, msg) -> None:
        self.in_flight -= 1
        self.network._drop(
            msg, msg.src.split("::", 1)[0], msg.dst.split("::", 1)[0], "worker_down"
        )

    # -- supervision plumbing -----------------------------------------------

    def ping(self, name: str) -> None:
        link = self.links.get(name)
        if link is not None and link.alive:
            link.writer.write(frame(OP_PING))

    def request_shutdown(self, name: str) -> None:
        link = self.links.get(name)
        if link is not None and link.alive:
            link.writer.write(frame(OP_SHUTDOWN))

    def close(self) -> None:
        self._closing = True
        for link in list(self.links.values()):
            self._link_closed(link)
        if self._server is not None:
            self._server.close()
            self._server = None


# ---------------------------------------------------------------------------
# Supervisor
# ---------------------------------------------------------------------------


class ClusterSupervisor:
    """Spawns, monitors and restarts the cluster's worker processes."""

    def __init__(
        self,
        transport: ClusterTransport,
        clock: RealtimeClock,
        *,
        workers: int | None = None,
        heartbeat_interval: float = 0.5,
        heartbeat_timeout: float = 2.0,
        backoff: BackoffPolicy | None = None,
        seed: int = 0,
        python: str | None = None,
    ):
        if heartbeat_timeout <= heartbeat_interval:
            raise ValueError(
                "heartbeat_timeout must exceed heartbeat_interval "
                f"({heartbeat_timeout} <= {heartbeat_interval})"
            )
        self.transport = transport
        self.clock = clock
        self.workers = workers
        self.heartbeat_interval = heartbeat_interval
        self.heartbeat_timeout = heartbeat_timeout
        self.policy = backoff or BackoffPolicy()
        self.python = python or sys.executable
        import random as _random

        self._rng = _random.Random(seed)
        self.system: "System | None" = None
        self.statuses: dict[str, WorkerStatus] = {}
        self._procs: dict[str, subprocess.Popen] = {}
        self._backoffs: dict[str, Backoff] = {}
        self._hb_handle = None
        self._stopping = False
        transport.on_pong = self._note_pong
        transport.on_link_down = self._link_lost

    # -- deployment ---------------------------------------------------------

    @staticmethod
    def assign_groups(
        instances: Sequence[str], workers: int | None
    ) -> list[tuple[str, tuple[str, ...]]]:
        """Shard ``instances`` across ``workers`` processes.  ``None``
        (or a count >= the instance count) means one worker per
        instance, named after it; otherwise round-robin groups named
        ``w0..wN-1``."""
        names = sorted(instances)
        if workers is None or workers >= len(names):
            return [(n, (n,)) for n in names]
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        groups: list[list[str]] = [[] for _ in range(workers)]
        for i, n in enumerate(names):
            groups[i % workers].append(n)
        return [(f"w{i}", tuple(g)) for i, g in enumerate(groups)]

    def attach(self, system: "System") -> None:
        self.system = system
        loop = self.clock.loop
        futures = []
        for name, insts in self.assign_groups(list(system.instances), self.workers):
            st = WorkerStatus(name=name, instances=insts)
            self.statuses[name] = st
            self._backoffs[name] = Backoff(self.policy, self._rng)
            for inst in insts:
                self.transport.owner[inst] = name
            self._procs[name] = self._spawn(st)
            futures.append(self.transport.expect(name))
        try:
            loop.run_until_complete(
                asyncio.wait_for(asyncio.gather(*futures), timeout=_SPAWN_TIMEOUT_WALL)
            )
        except (asyncio.TimeoutError, TimeoutError):
            self.shutdown()
            raise RuntimeError(
                "cluster: worker handshake timed out — see worker stderr"
            ) from None
        now = self.clock.now
        for name, st in self.statuses.items():
            st.pid = self._procs[name].pid
            st.state = WorkerState.RUNNING
            st.last_pong = now
            st.started_at = now
            system.telemetry.emit(
                "worker_spawn", name, pid=st.pid, instances=list(st.instances)
            )
        # the spawn+handshake burst consumed wall time before the first
        # logical event — rebase so it doesn't eat into the horizon
        self.clock.rebase()
        self._arm_heartbeat()

    def deploy(self, instances: Sequence[str]) -> None:
        """Spawn and handshake workers for instances added by a live
        reconfiguration (one worker per new instance, named after it).
        Blocking; must be called while the event loop is idle — the
        reconfiguration executor calls it in the prepare phase, before
        the transition starts pumping the engine."""
        fresh = [n for n in sorted(instances) if n not in self.transport.owner]
        if not fresh or self._stopping:
            return
        loop = self.clock.loop
        futures = []
        for inst in fresh:
            # RESTARTING until the handshake lands: unlike attach, the
            # heartbeat monitor is already ticking, and a RUNNING status
            # with last_pong=0 would be condemned mid-handshake (and its
            # auto-restart would steal this expect future)
            st = WorkerStatus(
                name=inst,
                instances=(inst,),
                state=WorkerState.RESTARTING,
                last_pong=self.clock.now,
            )
            self.statuses[inst] = st
            self._backoffs[inst] = Backoff(self.policy, self._rng)
            self.transport.owner[inst] = inst
            self._procs[inst] = self._spawn(st)
            futures.append(self.transport.expect(inst))
        try:
            loop.run_until_complete(
                asyncio.wait_for(asyncio.gather(*futures), timeout=_SPAWN_TIMEOUT_WALL)
            )
        except (asyncio.TimeoutError, TimeoutError):
            for name in fresh:
                self.transport.unexpect(name)
                self._reap(name)
                self.statuses.pop(name, None)
                self._procs.pop(name, None)
                self._backoffs.pop(name, None)
                self.transport.owner.pop(name, None)
            raise RuntimeError(
                "cluster: worker handshake timed out during reconfiguration"
            ) from None
        now = self.clock.now
        for name in fresh:
            st = self.statuses[name]
            st.pid = self._procs[name].pid
            st.state = WorkerState.RUNNING
            st.last_pong = now
            st.started_at = now
            if self.system is not None:
                self.system.telemetry.emit(
                    "worker_spawn", name, pid=st.pid, instances=list(st.instances)
                )
        # same rationale as attach: don't let the spawn burst's wall
        # time advance the logical clock past in-flight deadlines
        self.clock.rebase()

    def retire(self, instances: Sequence[str]) -> None:
        """Shut down workers whose hosted instances were all removed by
        a live reconfiguration; grouped workers that still host a
        surviving instance just shed the removed ones.  Blocking; call
        while the event loop is idle (after the transition completes)."""
        targets: dict[str, list[str]] = {}
        for inst in instances:
            w = self.transport.owner.get(inst)
            if w is not None:
                targets.setdefault(w, []).append(inst)
        for wname, insts in sorted(targets.items()):
            st = self.statuses.get(wname)
            if st is None:
                continue
            for i in insts:
                self.transport.owner.pop(i, None)
            remaining = tuple(i for i in st.instances if i not in insts)
            if remaining:
                st.instances = remaining
                continue
            # mark STOPPED *before* closing the link so the link-down
            # callback doesn't declare a crash and schedule a restart
            st.state = WorkerState.STOPPED
            if self.system is not None:
                self.system.telemetry.emit(
                    "worker_retire", wname, pid=st.pid, instances=list(st.instances)
                )
            self.transport.request_shutdown(wname)
            try:
                self.clock.loop.run_until_complete(asyncio.sleep(0.05))
            except RuntimeError:  # pragma: no cover - loop unexpectedly running
                pass
            self.transport.close_link(wname)
            self._reap(wname)
            self.statuses.pop(wname, None)
            self._procs.pop(wname, None)
            self._backoffs.pop(wname, None)

    def _spawn(self, st: WorkerStatus) -> subprocess.Popen:
        proc = subprocess.Popen(
            [
                self.python,
                str(_WORKER_PATH),
                "--connect",
                f"127.0.0.1:{self.transport.port}",
                "--name",
                st.name,
            ],
            stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL,
            start_new_session=True,  # own process group: killable as a unit
        )
        _LIVE_WORKER_PGIDS.add(proc.pid)
        return proc

    def _reap(self, name: str) -> None:
        proc = self._procs.get(name)
        if proc is None:
            return
        if proc.poll() is None:
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        try:
            proc.wait(timeout=10.0)
        except subprocess.TimeoutExpired:  # pragma: no cover - kernel lag
            pass
        _LIVE_WORKER_PGIDS.discard(proc.pid)

    # -- liveness -----------------------------------------------------------

    def _arm_heartbeat(self) -> None:
        if self._stopping:
            return
        self._hb_handle = self.clock.call_after(
            self.heartbeat_interval, self._heartbeat_tick
        )

    def _heartbeat_tick(self) -> None:
        if self._stopping:
            return
        now = self.clock.now
        for name, st in self.statuses.items():
            if st.state is not WorkerState.RUNNING:
                continue
            proc = self._procs.get(name)
            if proc is not None and proc.poll() is not None:
                self._declare_crash(name, f"process exit (code {proc.returncode})")
            elif now - st.last_pong > self.heartbeat_timeout:
                if st.suspect:
                    st.heartbeat_timeouts += 1
                    self._telemetry_counter("cluster_heartbeat_timeouts", name)
                    self._declare_crash(name, "missed heartbeats")
                else:
                    # first stale observation: give buffered pongs one
                    # more tick to be processed before condemning
                    st.suspect = True
                    self.transport.ping(name)
            else:
                st.suspect = False
                self.transport.ping(name)
        self._arm_heartbeat()

    def _note_pong(self, name: str) -> None:
        st = self.statuses.get(name)
        if st is not None:
            st.last_pong = self.clock.now
            st.suspect = False

    def _link_lost(self, name: str) -> None:
        st = self.statuses.get(name)
        if st is not None and st.state is WorkerState.RUNNING:
            self._declare_crash(name, "connection lost")

    # -- crash / restart ------------------------------------------------------

    def _telemetry_counter(self, counter: str, name: str) -> None:
        if self.system is not None:
            self.system.telemetry.counter(counter, worker=name).inc()

    def _declare_crash(self, name: str, reason: str) -> None:
        st = self.statuses[name]
        if st.state is not WorkerState.RUNNING or self._stopping:
            return
        st.state = WorkerState.DOWN
        st.crashes += 1
        st.last_crash_reason = reason
        self._telemetry_counter("cluster_worker_crashes", name)
        sys_ = self.system
        ev = sys_.telemetry.emit(
            "worker_crash", name, reason=reason, instances=list(st.instances)
        )
        self.transport.close_link(name)
        self._reap(name)
        # the real fault enters the runtime here: every hosted instance
        # crashes, and the PR 1 failover machinery takes over
        for inst in st.instances:
            runtime = sys_.instances.get(inst)
            if runtime is not None and runtime.alive:
                sys_.crash_instance(inst)
        delay = self._backoffs[name].next_delay()
        if delay is None:
            st.state = WorkerState.FAILED
            sys_.telemetry.emit("worker_gave_up", name, parent=ev)
            self._update_degraded()
            return
        sys_.telemetry.emit(
            "worker_restart_scheduled", name, parent=ev, delay=round(delay, 6)
        )
        self.clock.call_after(delay, lambda: self._restart(name))
        self._update_degraded()

    def _restart(self, name: str) -> None:
        if self._stopping:
            return
        st = self.statuses.get(name)
        if st is None or st.state is not WorkerState.DOWN:
            # gone: a live reconfiguration retired the worker while its
            # restart was pending
            return
        st.state = WorkerState.RESTARTING
        self._procs[name] = self._spawn(st)
        fut = self.transport.expect(name)
        self.clock.loop.create_task(self._complete_restart(name, fut))

    async def _complete_restart(self, name: str, fut: asyncio.Future) -> None:
        st = self.statuses.get(name)
        if st is None:  # retired before the handshake wait even began
            self.transport.unexpect(name)
            self._reap(name)
            return
        try:
            await asyncio.wait_for(fut, timeout=_SPAWN_TIMEOUT_WALL)
        except asyncio.CancelledError:
            self.transport.unexpect(name)
            self._reap(name)
            return
        except (asyncio.TimeoutError, TimeoutError):
            self.transport.unexpect(name)
            self._reap(name)
            if self.statuses.get(name) is not st:
                return  # retired while the spawn was in flight
            st.state = WorkerState.DOWN
            delay = self._backoffs[name].next_delay()
            if delay is None:
                st.state = WorkerState.FAILED
                self.system.telemetry.emit("worker_gave_up", name)
                self._update_degraded()
                return
            self.clock.call_after(delay, lambda: self._restart(name))
            return
        if self.statuses.get(name) is not st:
            # a live reconfiguration retired the worker while its
            # replacement process was handshaking: it is no longer ours
            self.transport.close_link(name)
            self._reap(name)
            return
        now = self.clock.now
        st.state = WorkerState.RUNNING
        st.pid = self._procs[name].pid
        st.last_pong = now
        st.suspect = False
        st.started_at = now
        st.restarts += 1
        self._telemetry_counter("cluster_worker_restarts", name)
        self.system.telemetry.emit("worker_restart", name, pid=st.pid)
        for inst in st.instances:
            runtime = self.system.instances.get(inst)
            if runtime is not None and runtime.crashed:
                try:
                    self.system.restart_instance(inst)
                except StartStopFailure:
                    pass  # the architecture revived it first — it wins
        self.clock.call_after(
            self.policy.stable_after,
            lambda started=now: self._maybe_reset_backoff(name, started),
        )
        self._update_degraded()

    def _maybe_reset_backoff(self, name: str, started_at: float) -> None:
        st = self.statuses.get(name)
        if (
            st is not None
            and st.state is WorkerState.RUNNING
            and st.started_at == started_at
        ):
            self._backoffs[name].reset()

    def _update_degraded(self) -> None:
        if self.system is not None:
            self.system.telemetry.gauge("cluster_workers_down").set(
                sum(1 for s in self.statuses.values() if s.state is not WorkerState.RUNNING)
            )

    # -- operator surface ----------------------------------------------------

    @property
    def degraded(self) -> bool:
        """True while any worker is down, restarting or failed."""
        return any(
            s.state is not WorkerState.RUNNING for s in self.statuses.values()
        )

    def worker_of(self, target: str) -> str:
        """Resolve an instance or worker name to the worker name."""
        if target in self.statuses:
            return target
        name = self.transport.owner.get(target)
        if name is None:
            raise KeyError(f"no cluster worker hosts {target!r}")
        return name

    def worker_pid(self, target: str) -> int | None:
        return self.statuses[self.worker_of(target)].pid

    def kill(self, target: str, sig: int = signal.SIGKILL) -> str:
        """Operator fault drill: signal the worker hosting ``target``
        (an instance or worker name).  Returns the worker name."""
        name = self.worker_of(target)
        proc = self._procs.get(name)
        if proc is not None and proc.poll() is None:
            try:
                os.killpg(proc.pid, sig)
            except ProcessLookupError:
                pass
        if self.system is not None:
            self.system.telemetry.emit("worker_kill", name, signal=int(sig))
        return name

    def status(self) -> dict[str, dict]:
        return {name: st.as_dict() for name, st in self.statuses.items()}

    def report(self) -> SupervisorReport:
        sts = list(self.statuses.values())
        return SupervisorReport(
            workers=len(sts),
            crashes=sum(s.crashes for s in sts),
            restarts=sum(s.restarts for s in sts),
            heartbeat_timeouts=sum(s.heartbeat_timeouts for s in sts),
            degraded=self.degraded,
            statuses=sts,
        )

    # -- shutdown ------------------------------------------------------------

    def drain(self, grace: float = 5.0) -> bool:
        """Graceful shutdown: stop supervision, ask workers to exit,
        run the engine until in-flight messages settle (or ``grace``
        logical seconds elapse), then force-kill any straggler.
        Returns True when fully drained."""
        self._stopping = True
        if self._hb_handle is not None:
            self._hb_handle.cancel()
            self._hb_handle = None
        for name in list(self.statuses):
            self.transport.request_shutdown(name)

        deadline = self.clock.now + max(grace, 0.0)
        while self.transport.in_flight > 0 and self.clock.now < deadline:
            self.clock.run_until(min(self.clock.now + 0.1, deadline))
        drained = self.transport.in_flight == 0
        self.shutdown()
        return drained

    def shutdown(self) -> None:
        """Force-stop every worker process group and reap it."""
        self._stopping = True
        if self._hb_handle is not None:
            self._hb_handle.cancel()
            self._hb_handle = None
        for name, st in self.statuses.items():
            self._reap(name)
            if st.state is not WorkerState.FAILED:
                st.state = WorkerState.STOPPED


# ---------------------------------------------------------------------------
# Engine
# ---------------------------------------------------------------------------


class ClusterEngine(ExecutionEngine):
    """Multi-process deployment behind the engine seam.

    ``workers`` shards instances across that many worker processes
    (default: one per instance); ``time_scale`` compresses logical time
    exactly as on the realtime engine; ``heartbeat_interval`` /
    ``heartbeat_timeout`` / ``backoff`` tune supervision (all in
    logical seconds); ``drills`` is a sequence of ``(logical_time,
    instance)`` SIGKILL fault drills scheduled at attach (the
    ``repro cluster --kill`` surface).

    Architectures with self-re-arming poll loops never quiesce — and
    the heartbeat timer alone keeps the clock busy — so drive a cluster
    system with ``run_until``, not ``run``.
    """

    supports_controlled_scheduling = False

    def __init__(
        self,
        *,
        workers: int | None = None,
        time_scale: float = 1.0,
        heartbeat_interval: float = 0.5,
        heartbeat_timeout: float = 2.0,
        backoff: BackoffPolicy | None = None,
        seed: int = 0,
        python: str | None = None,
        drills: Iterable[tuple[float, str]] = (),
    ):
        clock = RealtimeClock(time_scale=time_scale)
        transport = ClusterTransport()
        super().__init__(clock, transport)
        self.name = "cluster"
        clock.extra_pending = lambda: transport.in_flight
        self.supervisor = ClusterSupervisor(
            transport,
            clock,
            workers=workers,
            heartbeat_interval=heartbeat_interval,
            heartbeat_timeout=heartbeat_timeout,
            backoff=backoff,
            seed=seed,
            python=python,
        )
        self._drills = tuple(drills)
        self._closed = False

    def attach(self, system: "System") -> None:
        super().attach(system)
        self.supervisor.attach(system)
        for t, inst in self._drills:
            self.clock.call_at(t, lambda i=inst: self.supervisor.kill(i))

    def prepare_instances(self, names) -> None:
        self.supervisor.deploy(names)

    def retire_instances(self, names) -> None:
        self.supervisor.retire(names)

    def drain(self, grace: float = 5.0) -> bool:
        return self.supervisor.drain(grace)

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        self.supervisor.shutdown()
        self.transport.close()
        self.clock.close()
