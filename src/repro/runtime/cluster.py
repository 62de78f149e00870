"""The cluster execution engine: multi-process deployment with crash
supervision, heartbeats and restart-with-backoff.

The paper's deployment model (libcompart) runs one OS process per
component instance and wires them over TCP.  :class:`ClusterEngine`
realizes that behind the Clock/Transport seam: at ``attach``
time it forks one **worker process** per instance (or per shard
group when ``workers=N`` is given), which runs
:func:`repro.runtime.cluster_worker.run`, and every runtime message
addressed to an instance physically transits that instance's worker
over a framed TCP link (``coordinator → worker → coordinator →
dispatch``).  The link is a :class:`_Stream`, the one framed-stream
relay realtime-tcp's connection uses too: the frame leaves at send time
and the message is dispatched at ``max(send + link latency, the frame's
return)``, so the modelled latency is a floor under the relay, not
added to it.  A worker's death *is* the instance's failure:
messages to it stop flowing immediately, and the
:class:`ClusterSupervisor` turns the detected crash into a real
``crash_instance`` — the same fault surface the PR 1 delivery/failover
machinery and the chaos engine already react to.

Supervision model (Erlang/systemd shaped).  Every lifecycle decision
below is :func:`repro.runtime.supervisor.step`'s; this module feeds it
events and carries out the actions it returns:

* **launch** — attach, a live reconfiguration's ``deploy`` and every
  restart bring a process up one way: fork, then wait for its hello
  *or its exit*.  A worker that exits first fails its launch at once,
  naming the exit code; at restart that is one failed attempt.  The
  fork pays no interpreter start or import, and the worker stays a
  child of the coordinator: ``waitpid`` gives its exit code, and its
  CPU time is the coordinator's ``RUSAGE_CHILDREN``.
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
import gc
import os
import random
import signal
import time
from collections import deque
from dataclasses import replace
from typing import TYPE_CHECKING, Callable, Iterable, Sequence

from ..core.errors import SerdeError, StartStopFailure
from . import cluster_worker
from .cluster_worker import OP_DELIVER, OP_HELLO, OP_MSG, OP_PING, OP_PONG, OP_SHUTDOWN
from .engine import ExecutionEngine
from .realtime import RealtimeClock, _StreamServer
from .supervisor import FORK, BackoffPolicy, SupervisorReport, WorkerState, step
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

#: wall-clock budget for a forked worker to dial back and say hello
_SPAWN_TIMEOUT_WALL = 30.0
#: how often (wall seconds) a launch waiting for a hello checks whether
#: the process has exited instead
_EXIT_POLL_WALL = 0.05

# ---------------------------------------------------------------------------
# Worker-process hygiene registry
#
# Every forked worker leads its own process group (set on both sides of
# the fork), so its pid doubles as a process-group id.  The registry lets test
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


class _Child:
    """The coordinator's handle on a forked worker.  A child that
    something else reaped (``reap_orphan_workers``) reads as exited, with
    code 0: its status is lost."""

    __slots__ = ("pid", "returncode")

    def __init__(self, pid: int):
        self.pid = pid
        self.returncode: int | None = None

    def poll(self) -> int | None:
        return self._wait(os.WNOHANG)

    def wait(self) -> int:
        return self._wait(0)

    def _wait(self, flags: int) -> int | None:
        if self.returncode is None:
            try:
                pid, status = os.waitpid(self.pid, flags)
            except ChildProcessError:
                self.returncode = 0
            else:
                if pid:
                    self.returncode = os.waitstatus_to_exitcode(status)
        return self.returncode


def _detach() -> None:
    """A forked worker's first steps, before it opens its link: its own
    process group; stdin and stdout on /dev/null; no descriptor but 0-2
    (one kept open would hold another worker's link up); default signal
    dispositions and no wakeup fd (a signal must not write into a reused
    descriptor); no gc, which would copy every page the fork shares."""
    os.setpgid(0, 0)
    signal.set_wakeup_fd(-1)
    for sig in signal.valid_signals():
        if callable(signal.getsignal(sig)):
            signal.signal(sig, signal.SIG_DFL)
    gc.disable()
    null = os.open(os.devnull, os.O_RDWR)
    os.dup2(null, 0)
    os.dup2(null, 1)
    os.closerange(3, os.sysconf("SC_OPEN_MAX"))


def _killpg(proc: _Child | None, sig: int) -> None:
    """Signal a worker's process group unless it has already exited."""
    if proc is not None and proc.poll() is None:
        try:
            os.killpg(proc.pid, sig)
        except ProcessLookupError:
            pass


# ---------------------------------------------------------------------------
# Framed streams and the transport
# ---------------------------------------------------------------------------


class _Stream:
    """A framed TCP stream whose frames come back in send order:
    realtime-tcp's client connection, and each cluster worker's link.
    One ``(due, dispatch)`` entry is queued per frame sent and popped
    per frame back; a body that does not decode, or a frame with no
    entry left (one the wire duplicated), is rejected alone.  It lives
    here because the tracer wraps this module's codec names and charges
    arrival callbacks by ``__module__``."""

    __slots__ = ("transport", "writer", "outstanding")

    def __init__(self, transport, writer):
        self.transport = transport
        self.writer = writer
        self.outstanding: deque[tuple[float, Callable]] = deque()

    def send(self, data: bytes, due: float, dispatch: Callable) -> None:
        self.writer.write(data)
        self.outstanding.append((due, dispatch))

    def returned(self, body: bytes) -> None:
        """Dispatch the next frame's message at ``max(due, now)``."""
        tr = self.transport
        if not self.outstanding:
            tr.network.count("wire_rejected")
            return
        due, dispatch = self.outstanding.popleft()
        try:
            msg = decode_message(body)
        except SerdeError:
            tr.in_flight -= 1
            tr.network.count("wire_rejected")
            return
        if tr.clock.now >= due:
            tr._arrive(msg, dispatch)
        else:
            tr.clock.call_at(due, lambda: tr._arrive(msg, dispatch))

    def release(self) -> None:
        """The stream is torn down: give back its entries' ``in_flight``."""
        self.transport.in_flight -= len(self.outstanding)
        self.outstanding.clear()


class _WorkerLink(_Stream):
    """A worker's stream, with the worker's name and liveness."""

    __slots__ = ("name", "alive", "closed")

    def __init__(self, transport, name: str, writer):
        super().__init__(transport, writer)
        self.name = name
        self.alive = True
        self.closed = False


class ClusterTransport(_StreamServer):
    """Per-instance worker routing over framed TCP.

    ``deliver`` encodes the message and writes it at once through the
    *destination instance's* worker process (an ``M`` frame the worker
    returns as ``D``) on that worker's :class:`_Stream`.  The modelled
    link latency is a floor, not an addend: the message is dispatched at
    ``max(send + latency, the D frame's return)``.  Dispatch re-enters
    :meth:`~repro.runtime.channels.Network.dispatch`, so liveness and
    partition policy are re-checked at arrival exactly as on every other
    engine.  A message whose source or destination worker is dead at the
    due instant is dropped at the transport (``worker_down``) —
    sender-side retransmission and ``otherwise`` deadlines see the loss,
    exactly as with a crashed remote process.
    """

    def __init__(self):
        super().__init__()
        self.links: dict[str, _WorkerLink] = {}
        self._expected: dict[str, asyncio.Future] = {}
        #: instance name -> worker (group) name, set by the supervisor
        self.owner: dict[str, str] = {}
        #: supervisor hooks
        self.on_pong = None
        self.on_link_down = None

    # -- wiring -------------------------------------------------------------

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
            name = hello[1:].decode("utf-8", errors="replace")
            fut = self._expected.pop(name, None) if hello[:1] == OP_HELLO else None
            if fut is None or fut.done():
                return  # not a hello, or an unsolicited / stale connection
            link = self.links[name] = _WorkerLink(self, name, writer)
            fut.set_result(link)
            while True:
                body = await read_frame(reader)
                op = body[:1]
                if op == OP_DELIVER:
                    link.returned(body[1:])
                elif op == OP_PONG and self.on_pong is not None:
                    self.on_pong(name)
                # unknown opcodes ignored (forward compatibility)
        except SerdeError:
            # a corrupt length prefix poisons the rest of the stream —
            # drop the link; supervision treats it as a worker crash
            self.network.count("wire_rejected")
        except (asyncio.TimeoutError, asyncio.IncompleteReadError, OSError, asyncio.CancelledError):
            pass  # the worker went away, or engine close() cancelled the read
        finally:
            if link is None:
                writer.close()
            else:
                self._link_closed(link)

    def _link_closed(self, link: _WorkerLink) -> None:
        """Idempotent teardown accounting for one dead connection."""
        if link.closed:
            return
        link.closed = True
        link.alive = False
        link.release()  # frames swallowed by the dead worker never return
        try:
            link.writer.close()
        except RuntimeError:
            pass  # event loop already closed (interpreter teardown)
        if self.links.get(link.name) is link:
            del self.links[link.name]
        if self.on_link_down is not None:
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
        # a dead link is seen, and its entries released, by the read loop
        link.send(frame(OP_MSG + encode_message(msg)), due, dispatch)

    def _arrive(self, msg, dispatch) -> None:
        """The due instant has passed and the bytes are back: dispatch,
        unless either end's worker died meanwhile — the sender's
        outbound halts the moment its link is seen down, not at
        heartbeat time."""
        if self._worker_down(msg.src) or self._worker_down(msg.dst):
            self._drop(msg)
        else:
            super()._arrive(msg, dispatch)

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

    def send_op(self, name: str, op: bytes) -> None:
        """Send worker ``name`` a control frame, if its link is up."""
        link = self.links.get(name)
        if link is not None and link.alive:
            link.writer.write(frame(op))

    def close(self) -> None:
        self.on_link_down = None  # a link closed now is no crash
        for link in list(self.links.values()):
            self._link_closed(link)
        super().close()


# ---------------------------------------------------------------------------
# Supervisor
# ---------------------------------------------------------------------------


class _Worker:
    """One supervised worker: its lifecycle status, which only
    :func:`~repro.runtime.supervisor.step` replaces, and what serves it:
    its current process, the future its hello resolves and the task
    awaiting a restart's hello (the loop holds tasks weakly).  The
    status's fields read through it."""

    __slots__ = ("status", "proc", "hello", "relaunch")

    def __init__(self):
        self.status = self.proc = self.hello = self.relaunch = None

    def __getattr__(self, attr):
        return getattr(self.status, attr)


class ClusterSupervisor:
    """Forks, monitors and restarts the cluster's worker processes.
    Every lifecycle decision is :func:`~repro.runtime.supervisor.step`'s:
    the supervisor feeds it events (a hello, an exit, a pong, a
    heartbeat tick, a timer) and carries out the actions it returns."""

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
        self._rng = random.Random(seed)
        self.system: "System | None" = None
        self.statuses: dict[str, _Worker] = {}
        self._hb_handle = None
        self._stopped = False
        transport.on_pong = lambda name: self._event(name, "pong")
        transport.on_link_down = lambda name: self._event(name, "eof")

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
        self._launch_all(self.assign_groups(list(system.instances), self.workers))
        self._arm_heartbeat()

    def deploy(self, instances: Sequence[str]) -> None:
        """Fork and handshake workers for instances added by a live
        reconfiguration (one worker per new instance, named after it).
        Blocking; must be called while the event loop is idle — the
        reconfiguration executor calls it in the prepare phase, before
        the transition starts pumping the engine."""
        fresh = [(n, (n,)) for n in sorted(instances) if n not in self.transport.owner]
        if fresh:
            self._launch_all(fresh)

    def _launch_all(self, groups: list[tuple[str, tuple[str, ...]]]) -> None:
        """Deploy a worker per ``(name, instances)`` group, every process
        forked before the first wait, and block until all have ended;
        if any fork or launch failed, discard them all and raise the
        first failure."""
        workers: list[_Worker] = []
        try:
            for name, insts in groups:
                w = self.statuses[name] = _Worker()
                workers.append(w)
                for inst in insts:
                    self.transport.owner[inst] = name
                self._apply(w, "deploy", name=name, instances=insts, stopped=self._stopped)
            loop, forked = self.clock.loop, [w for w in workers if w.proc is not None]
            launches = [loop.create_task(self._launch(w)) for w in forked]
            results = loop.run_until_complete(asyncio.gather(*launches, return_exceptions=True))
            failed = [r for r in results if r is not None]
            if failed:
                raise failed[0]
        except BaseException:
            for w in workers:
                self._discard(w)
            raise
        for w in forked:
            self._apply(w, "hello", pid=w.proc.pid)
        # the fork+handshake burst consumed wall time before the next
        # logical event — rebase so it doesn't eat into the horizon or
        # into in-flight deadlines
        self.clock.rebase()

    async def _launch(self, w: _Worker) -> None:
        """Wait for ``w``'s forked process to say hello or to exit.  A
        dead or silent process is un-expected and reaped, and raises
        ``RuntimeError``."""
        proc, hello = w.proc, w.hello
        give_up = time.monotonic() + _SPAWN_TIMEOUT_WALL
        try:
            while not hello.done():
                if proc.poll() is not None or time.monotonic() > give_up:
                    why = ("handshake timed out" if proc.returncode is None else
                           f"exited with code {proc.returncode} before its hello")
                    raise RuntimeError(f"cluster: worker {w.name} {why}")
                # a hello ends the wait at once; the timeout only paces
                # the exit check
                await asyncio.wait((hello,), timeout=_EXIT_POLL_WALL)
        except BaseException:
            self.transport.unexpect(w.name)
            self._reap(w)
            raise

    async def _relaunch(self, w: _Worker) -> None:
        try:
            await self._launch(w)
        except RuntimeError as exc:
            self._apply(w, "spawn_failed", reason=str(exc))
        else:
            self._apply(w, "hello", pid=w.proc.pid)

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
            w = self.statuses.get(wname)
            if w is None:
                continue
            for i in insts:
                self.transport.owner.pop(i, None)
            remaining = tuple(i for i in w.instances if i not in insts)
            if remaining:
                w.status = replace(w.status, instances=remaining)
                continue
            # STOPPED before the link closes, so that neither the link
            # going down nor a restart's hello landing meanwhile revives it
            self._apply(w, "retire")
            self.transport.send_op(wname, OP_SHUTDOWN)
            try:
                self.clock.loop.run_until_complete(asyncio.sleep(0.05))
            except RuntimeError:  # pragma: no cover - loop unexpectedly running
                pass
            self._discard(w)

    def _discard(self, w: _Worker) -> None:
        # the record goes first, so the link going down is no crash
        if self.statuses.get(w.name) is w:
            del self.statuses[w.name]
        for inst in w.instances:
            self.transport.owner.pop(inst, None)
        self.transport.unexpect(w.name)
        self.transport.close_link(w.name)
        self._reap(w)

    def _spawn(self, name: str) -> _Child:
        port = self.transport.port
        pid = os.fork()
        if pid == 0:  # the worker: it never returns into this stack
            code = 1
            try:
                _detach()
                code = cluster_worker.run("127.0.0.1", port, name)
            finally:
                os._exit(code)
        try:  # as the child does: killable as a group from here on
            os.setpgid(pid, pid)
        except OSError:
            pass  # it has exited already
        _LIVE_WORKER_PGIDS.add(pid)
        return _Child(pid)

    @staticmethod
    def _reap(w: _Worker) -> None:
        proc = w.proc
        if proc is None:
            return
        _killpg(proc, signal.SIGKILL)
        proc.wait()
        _LIVE_WORKER_PGIDS.discard(proc.pid)

    # -- the lifecycle: step's events in, its actions out ---------------------

    def _apply(self, w: _Worker, event: str, **data) -> tuple:
        """Feed ``event`` to :func:`step` and carry out the actions it
        returns, in order; returns them."""
        w.status, actions = step(
            w.status, event, self.policy, rng=self._rng, now=self.clock.now,
            timeout=self.heartbeat_timeout, live=not self.clock.loop.is_closed(), **data,
        )
        sys_, parent = self.system, None
        for op, *args in actions:
            if op == "fork":
                w.proc = self._spawn(w.name)
                w.hello = self.transport.expect(w.name)
            elif op == "kill":
                self._reap(w)
            elif op == "close_link":
                self.transport.close_link(w.name)
            elif op == "emit":
                parent = sys_.telemetry.emit(args[0], w.name, parent=parent, **args[1])
            elif op == "count":
                sys_.telemetry.counter(args[0], worker=w.name).inc()
            elif op == "gauge":
                down = sum(s.state is not WorkerState.RUNNING for s in self.statuses.values())
                sys_.telemetry.gauge("cluster_workers_down").set(down)
            elif op == "arm":  # the timer's event names this incarnation
                self.clock.call_after(args[1], lambda t=args[0], n=w.restarts: self._due(w, t, n))
            else:  # crash_instances / restart_instances
                for inst in w.instances:
                    runtime = sys_.instances.get(inst)
                    if op == "crash_instances" and runtime is not None and runtime.alive:
                        sys_.crash_instance(inst)
                    elif op == "restart_instances" and runtime is not None and runtime.crashed:
                        try:
                            sys_.restart_instance(inst)
                        except StartStopFailure:
                            pass  # the architecture revived it first — it wins
        return actions

    def _event(self, name: str, event: str) -> None:
        w = self.statuses.get(name)
        if w is not None:
            self._apply(w, event)

    def _due(self, w: _Worker, timer: str, stamp: int) -> None:
        """An armed timer fires.  A restart it forks is awaited by a
        task; a fork that raises made no process, and is one failed
        attempt like a process that dies before its hello."""
        try:
            forked = FORK in self._apply(w, timer, stamp=stamp)
        except OSError as exc:
            self._apply(w, "spawn_failed", reason=f"fork failed: {exc}")
            return
        if forked:
            w.relaunch = self.clock.loop.create_task(self._relaunch(w))

    def _arm_heartbeat(self) -> None:
        if not self._stopped:
            self._hb_handle = self.clock.call_after(
                self.heartbeat_interval, self._heartbeat_tick
            )

    def _heartbeat_tick(self) -> None:
        for w in self.statuses.values():
            code = w.proc.poll()
            self._apply(w, "tick" if code is None else "exited", code=code)
            self.transport.send_op(w.name, OP_PING)  # if its link is up
        self._arm_heartbeat()

    # -- operator surface ----------------------------------------------------

    @property
    def degraded(self) -> bool:
        """True while any worker is down, restarting or failed."""
        return any(s.state is not WorkerState.RUNNING for s in self.statuses.values())

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
        _killpg(self.statuses[name].proc, sig)
        self.system.telemetry.emit("worker_kill", name, signal=int(sig))
        return name

    def status(self) -> dict[str, dict]:
        return {name: w.as_dict() for name, w in self.statuses.items()}

    def report(self) -> SupervisorReport:
        sts = [w.status for w in self.statuses.values()]
        return SupervisorReport(
            workers=len(sts),
            crashes=sum(s.crashes for s in sts),
            restarts=sum(s.restarts for s in sts),
            heartbeat_timeouts=sum(s.heartbeat_timeouts for s in sts),
            degraded=self.degraded,
            statuses=sts,
        )

    # -- shutdown ------------------------------------------------------------

    def stop(self) -> None:
        """Stop supervising: every worker that has not failed is
        STOPPED, so no heartbeat, crash or restart follows."""
        self._stopped = True
        if self._hb_handle is not None:
            self._hb_handle.cancel()
            self._hb_handle = None
        for w in self.statuses.values():
            self._apply(w, "stop")

    def shutdown(self) -> None:
        """Force-stop every worker process group and reap it."""
        self.stop()
        for w in self.statuses.values():
            self._reap(w)


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
        )
        self._drills = tuple(drills)

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
        """Stop supervision, ask every worker to exit, settle in-flight
        work as every engine does, then force-kill any straggler."""
        sup = self.supervisor
        sup.stop()
        for name in sup.statuses:
            self.transport.send_op(name, OP_SHUTDOWN)
        drained = super().drain(grace)
        sup.shutdown()
        return drained

    def close(self) -> None:  # every step is idempotent
        self.supervisor.shutdown()
        self.transport.close()
        self.clock.close()
