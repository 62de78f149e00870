"""The worker lifecycle of the cluster engine, as one transition function.

The mechanics of running worker processes (forking, reaping, socket
plumbing, frame routing, timers) live in :mod:`repro.runtime.cluster`;
this module decides.  Classic process supervisors (Erlang/OTP, systemd,
s6) separate restart policy from process plumbing; here the whole
policy is one function:

* :func:`step` — ``(status, event) -> (status, actions)``: every change
  of a worker's :class:`WorkerState`, and every fork, kill, crash,
  restart, timer and telemetry record that follows from one.  It starts
  no process and reads no socket or clock, so a test can explore every
  state it reaches.  ``deploy`` makes a worker ``restarting`` (forked,
  hello pending); it then moves ``running → down → restarting →
  running``, to ``failed`` once its restart budget is spent, or to
  ``stopped`` when it is retired or drained.  ``failed`` and
  ``stopped`` are absorbing.
* :class:`BackoffPolicy` — capped exponential restart backoff with
  seeded jitter.  Delays are in **logical seconds** (the engine clock's
  unit), so a compressed ``time_scale`` compresses supervision the same
  way it compresses the workload.
* :class:`WorkerStatus` — one worker's lifecycle record.
* :class:`SupervisorReport` — the operator-facing digest printed by
  ``repro cluster`` and asserted by the recovery tests.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from enum import Enum

__all__ = ["EVENTS", "BackoffPolicy", "SupervisorReport", "WorkerState", "WorkerStatus", "step"]


@dataclass(frozen=True)
class BackoffPolicy:
    """Capped exponential backoff with jitter, in logical seconds.

    Attempt *n* (0-based) waits ``min(base * factor**n, cap)`` plus a
    uniform jitter of up to ``jitter`` times that delay.  ``max_restarts``
    bounds *consecutive* restart attempts; a worker that stays up for
    ``stable_after`` logical seconds resets its attempt counter (the
    standard supervisor convention, so a flapping worker escalates but
    an occasional crash does not).  ``max_restarts=None`` retries
    forever.
    """

    base: float = 0.5
    factor: float = 2.0
    cap: float = 8.0
    jitter: float = 0.1
    max_restarts: int | None = None
    stable_after: float = 10.0

    def delay(self, attempt: int, rng: random.Random) -> float:
        try:
            d = min(self.base * (self.factor ** attempt), self.cap)
        except OverflowError:  # a retry-forever ladder far past its cap
            d = self.cap
        if self.jitter > 0.0:
            d += rng.uniform(0.0, self.jitter * d)
        return d


class WorkerState(str, Enum):
    """Lifecycle of one supervised worker process."""

    RUNNING = "running"
    DOWN = "down"            # crash detected, restart scheduled
    RESTARTING = "restarting"  # process forked, hello pending
    FAILED = "failed"        # restart budget exhausted — gave up
    STOPPED = "stopped"      # deliberately shut down (retire/drain/close)


@dataclass(frozen=True)
class WorkerStatus:
    """Supervision record of one worker; :func:`step` makes the next."""

    name: str
    instances: tuple[str, ...]
    state: WorkerState = WorkerState.RESTARTING
    pid: int | None = None
    restarts: int = 0
    crashes: int = 0
    heartbeat_timeouts: int = 0
    last_pong: float = 0.0       # logical time of the last heartbeat reply
    last_crash_reason: str = ""
    started_at: float = 0.0      # logical time the current process came up
    #: consecutive restart attempts since the worker was last stable
    attempt: int = 0
    #: a stale pong was observed on the last heartbeat tick; a crash is
    #: declared only when staleness persists across *two* consecutive
    #: ticks, so a coordinator stall (e.g. the blocking process spawn of
    #: another worker's restart) cannot condemn a healthy worker whose
    #: pong is sitting unprocessed in a socket buffer
    suspect: bool = False

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "instances": list(self.instances),
            "state": self.state.value,
            "pid": self.pid,
            "restarts": self.restarts,
            "crashes": self.crashes,
            "heartbeat_timeouts": self.heartbeat_timeouts,
            "last_crash_reason": self.last_crash_reason,
        }


#: every event :func:`step` takes
EVENTS = ("deploy", "hello", "spawn_failed", "exited", "eof", "pong", "tick",
          "backoff_due", "stable_due", "retire", "stop")
FORK, KILL, CLOSE_LINK, GAUGE = ("fork",), ("kill",), ("close_link",), ("gauge",)


def step(status: WorkerStatus | None, event: str, policy: BackoffPolicy, *, rng: random.Random,
         now: float, timeout: float, live: bool = True, **data) -> tuple[WorkerStatus | None, tuple]:
    """One transition of a worker's lifecycle (docs/RUNTIME.md tabulates it).

    ``status`` is ``None`` before ``deploy``; ``now`` is the logical
    time and ``timeout`` the heartbeat timeout; ``rng`` draws the
    backoff jitter; ``live`` is False once nothing could run a restart
    (the event loop is closed), so a crash is recorded but no backoff
    decided.  Event data: ``deploy`` takes ``name``, ``instances`` and
    ``stopped`` (supervision has ended); ``hello`` the new ``pid``;
    ``spawn_failed`` a ``reason``; ``exited`` the exit ``code``; a timer
    event the ``stamp`` (``restarts`` when it was armed).

    Returns the next status (``status`` itself is unchanged) and the
    actions to carry out, in order: ``fork``; ``kill`` (reap the current
    process); ``close_link``; ``crash_instances``/``restart_instances``
    (the hosted runtime instances); ``("arm", timer, delay)``, which
    delivers the event ``timer`` after ``delay`` logical seconds;
    ``("emit", kind, attrs)``, whose causal parent is the previous emit
    of the same step; ``("count", counter)``; and ``gauge`` (refresh
    ``cluster_workers_down``).
    """
    s = status
    if s is None:  # only deploy makes a record; a second one changes nothing
        if event != "deploy":
            return None, ()
        if data["stopped"]:
            return WorkerStatus(data["name"], data["instances"], WorkerState.STOPPED), ()
        return WorkerStatus(data["name"], data["instances"]), (FORK,)
    state = s.state
    if event == "stop":
        return (s if state in (WorkerState.FAILED, WorkerState.STOPPED) else replace(s, state=WorkerState.STOPPED)), ()
    if event == "retire":
        if state is WorkerState.STOPPED:
            return s, ()
        retired = ("emit", "worker_retire", {"pid": s.pid, "instances": list(s.instances)})
        return (s if state is WorkerState.FAILED else replace(s, state=WorkerState.STOPPED)), (retired,)
    if event == "hello":
        if state is not WorkerState.RESTARTING:  # retired or stopped meanwhile
            return s, (CLOSE_LINK, KILL)
        up = replace(s, state=WorkerState.RUNNING, pid=data["pid"], started_at=now, last_pong=now, suspect=False)
        if s.pid is None:  # the first process of this worker
            return up, (("emit", "worker_spawn", {"pid": up.pid, "instances": list(s.instances)}),)
        return replace(up, restarts=s.restarts + 1), (
            ("count", "cluster_worker_restarts"), ("emit", "worker_restart", {"pid": up.pid}),
            ("restart_instances",), ("arm", "stable_due", policy.stable_after), GAUGE,
        )
    if event == "spawn_failed" and state is WorkerState.RESTARTING:
        # a process that dies before its hello is one failed attempt
        return _back_off(replace(s, state=WorkerState.DOWN, last_crash_reason=data["reason"]), (), policy, rng, live)
    if event == "backoff_due" and state is WorkerState.DOWN:
        return replace(s, state=WorkerState.RESTARTING), (FORK,)
    if event == "stable_due" and state is WorkerState.RUNNING and data["stamp"] == s.restarts:
        return replace(s, attempt=0), ()  # up for stable_after since this restart
    if state is not WorkerState.RUNNING or event not in ("pong", "tick", "exited", "eof"):
        return s, ()
    if event == "pong":
        return replace(s, last_pong=now, suspect=False), ()
    actions = ()
    if event == "tick":
        stale = now - s.last_pong > timeout
        if not (stale and s.suspect):
            # a first stale observation gives buffered pongs one more
            # tick to be processed before condemning
            return replace(s, suspect=stale), ()
        s = replace(s, heartbeat_timeouts=s.heartbeat_timeouts + 1)
        actions, reason = (("count", "cluster_heartbeat_timeouts"),), "missed heartbeats"
    else:
        reason = "connection lost" if event == "eof" else f"process exit (code {data['code']})"
    # a crash: the process goes, every hosted instance crashes (the
    # runtime's failover machinery takes over), and a restart follows
    s = replace(s, state=WorkerState.DOWN, crashes=s.crashes + 1, last_crash_reason=reason)
    return _back_off(s, actions + (
        ("count", "cluster_worker_crashes"),
        ("emit", "worker_crash", {"reason": reason, "instances": list(s.instances)}),
        CLOSE_LINK, KILL, ("crash_instances",),
    ), policy, rng, live)


def _back_off(s, actions, policy, rng, live):
    """Schedule the next restart attempt of a DOWN worker, or give up
    (FAILED) once its restart budget is spent."""
    if not live:
        return s, actions
    if policy.max_restarts is not None and s.attempt >= policy.max_restarts:
        return replace(s, state=WorkerState.FAILED), actions + (("emit", "worker_gave_up", {}), GAUGE)
    delay = policy.delay(s.attempt, rng)
    return replace(s, attempt=s.attempt + 1), actions + (
        ("emit", "worker_restart_scheduled", {"delay": round(delay, 6)}), ("arm", "backoff_due", delay), GAUGE,
    )


@dataclass
class SupervisorReport:
    """Aggregate supervision digest (``ClusterSupervisor.report()``)."""

    workers: int
    crashes: int
    restarts: int
    heartbeat_timeouts: int
    degraded: bool
    statuses: list[WorkerStatus] = field(default_factory=list)

    def recovered(self, names: tuple[str, ...] = ()) -> bool:
        """True when every named worker (default: all) is running."""
        targets = [s for s in self.statuses if not names or s.name in names]
        return bool(targets) and all(
            s.state is WorkerState.RUNNING for s in targets
        )

    def render(self) -> str:
        lines = [
            f"cluster: workers={self.workers} crashes={self.crashes} "
            f"restarts={self.restarts} heartbeat_timeouts={self.heartbeat_timeouts} "
            f"degraded={self.degraded}"
        ]
        for s in self.statuses:
            lines.append(
                f"  worker {s.name} [{','.join(s.instances)}] state={s.state.value} "
                f"pid={s.pid} restarts={s.restarts} crashes={s.crashes}"
            )
        return "\n".join(lines)
