"""The worker lifecycle as a state graph.

:func:`repro.runtime.supervisor.step` is pure, so every status it
reaches from a worker's ``deploy``, under every event, can be listed
without a process, a socket or a clock.  The harness plays the world
``step`` acts on: whether the worker has a live child process (a
``fork`` makes one; a ``kill``, an ``exited`` or a failed launch ends
it) and how long ago the last pong came (a tick is fresh or stale).

The graph is infinite (the counters grow), so it is explored up to a
small bound: no status with more than ``BOUND`` crashes or ``BOUND``
consecutive restart attempts is expanded.  That is enough for a
``max_restarts=2`` worker to spend its budget.
Each edge that once went wrong is pinned as an event sequence below the
exploration.
"""

import random
from dataclasses import replace

import pytest

from repro.runtime.supervisor import EVENTS, BackoffPolicy, WorkerState, step

RUNNING, DOWN, RESTARTING, FAILED, STOPPED = (
    WorkerState.RUNNING, WorkerState.DOWN, WorkerState.RESTARTING,
    WorkerState.FAILED, WorkerState.STOPPED,
)
#: heartbeat timeout, and the instants of a fresh and a stale tick (the
#: harness keeps every pong and hello at time 0)
TIMEOUT, FRESH, STALE = 2.0, 0.0, 10.0
BOUND = 3
BUDGETS = (0, 1, 2, None)
KNOWN_ACTIONS = {
    "fork", "kill", "close_link", "crash_instances", "restart_instances",
    "arm", "emit", "count", "gauge",
}


def variants(s):
    """Every event ``s`` can be fed, as ``(event, now, data)``: both
    deploy flavours, a fresh and a stale tick, and a stable timer of
    this incarnation and of the one before."""
    restarts = s.restarts if s is not None else 0
    out = []
    for event in EVENTS:
        if event == "deploy":
            out += [(event, FRESH, dict(name="w", instances=("a", "b"), stopped=stopped))
                    for stopped in (False, True)]
        elif event == "tick":
            out += [(event, FRESH, {}), (event, STALE, {})]
        elif event == "stable_due":
            out += [(event, FRESH, dict(stamp=restarts)), (event, FRESH, dict(stamp=restarts - 1))]
        else:
            data = dict(hello=dict(pid=7), spawn_failed=dict(reason="exited with code 1"),
                        exited=dict(code=-9), backoff_due=dict(stamp=restarts)).get(event, {})
            out.append((event, FRESH, data))
    return out


def run(policy, s, event, now=FRESH, live=True, **data):
    return step(s, event, policy, rng=random.Random(0), now=now, timeout=TIMEOUT,
                live=live, **data)


def explore(max_restarts):
    """Breadth-first over ``(status, child alive, restarts since the
    attempt counter last reset)``; returns every edge as ``(node, event,
    now, data, status, actions)`` after checking the per-edge
    invariants."""
    policy = BackoffPolicy(max_restarts=max_restarts)
    start = (None, False, 0)
    seen, frontier, edges = {start}, [start], []
    while frontier:
        nxt = []
        for node in frontier:
            s, child, ladder = node
            if s is not None and max(s.crashes, s.attempt) > BOUND:
                continue
            for event, now, data in variants(s):
                new, actions = run(policy, s, event, now, **data)
                edges.append((node, event, now, data, new, actions))
                alive, climb = child, ladder
                if event in ("exited", "spawn_failed"):
                    alive = False  # it exited, or its failed launch reaped it
                for op, *_ in actions:
                    assert op in KNOWN_ACTIONS, op
                    if op == "fork":
                        assert not alive, f"a second live child: {node} --{event}-->"
                        alive = True
                    elif op == "kill":
                        alive = False
                if new is not None and s is not None:
                    climb += new.restarts - s.restarts
                    if new.attempt < s.attempt:
                        climb = 0
                    if max_restarts is not None:
                        assert climb <= max_restarts, (node, event)
                        assert new.attempt <= max_restarts, (node, event)
                key = (new, alive, climb)
                if key not in seen:
                    seen.add(key)
                    nxt.append(key)
        frontier = nxt
    return edges


@pytest.fixture(scope="module", params=BUDGETS, ids=lambda m: f"max_restarts={m}")
def graph(request):
    return request.param, explore(request.param)


class TestStateGraph:
    def test_every_state_is_reached_but_failed_without_a_budget_and_down_with_none(self, graph):
        max_restarts, edges = graph
        reached = {new.state for *_, new, _ in edges if new is not None}
        unreachable = {None: {FAILED}, 0: {DOWN}}.get(max_restarts, set())
        assert reached == set(WorkerState) - unreachable

    def test_failed_and_stopped_are_absorbing(self, graph):
        for (s, *_), event, _, _, new, actions in graph[1]:
            if s is not None and s.state in (FAILED, STOPPED):
                assert new.state is s.state, (s, event)
                assert ("fork",) not in actions, (s, event)

    def test_a_retired_or_stopped_worker_never_forks_or_runs_again(self, graph):
        for (s, *_), event, _, data, new, actions in graph[1]:
            if new is None:  # no record, nothing happens
                continue
            stopped = s.state is STOPPED if s is not None else data["stopped"]
            if stopped or event in ("retire", "stop"):
                assert ("fork",) not in actions, (s, event)
                assert new.state is not RUNNING, (s, event)

    def test_a_drain_stops_every_state_but_failed(self, graph):
        for (s, *_), event, _, _, new, actions in graph[1]:
            if event == "stop" and s is not None:
                assert new.state is (FAILED if s.state is FAILED else STOPPED), s
                assert actions == ()

    def test_stable_due_resets_only_the_running_incarnation(self, graph):
        for (s, *_), event, _, data, new, actions in graph[1]:
            if event != "stable_due" or s is None:
                continue
            same = s.state is RUNNING and data["stamp"] == s.restarts
            assert new == (replace(s, attempt=0) if same else s), (s, data)
            assert actions == ()

    def test_a_stale_pong_condemns_only_on_the_second_tick(self, graph):
        for (s, *_), event, now, _, new, actions in graph[1]:
            if s is None or s.state is not RUNNING or new.state is RUNNING:
                continue
            if event == "tick":
                assert now == STALE and s.suspect, s
                assert new.heartbeat_timeouts == s.heartbeat_timeouts + 1
                assert new.last_crash_reason == "missed heartbeats"
            else:
                assert event in ("exited", "eof", "retire", "stop"), event
        for (s, *_), event, now, _, new, _ in graph[1]:
            if event == "tick" and s is not None and s.state is RUNNING and not s.suspect:
                assert new.state is RUNNING and new.suspect is (now == STALE)

    def test_every_crash_reaps_its_process_before_crashing_its_instances(self, graph):
        for (s, *_), event, _, _, new, actions in graph[1]:
            ops = [a[0] for a in actions]
            if "crash_instances" in ops:
                assert s.state is RUNNING and new.crashes == s.crashes + 1
                assert ops.index("close_link") < ops.index("kill") < ops.index("crash_instances")


def walk(policy, *events, live=True):
    """Apply ``events`` (names, or ``(name, now, data)``) from no record;
    returns the final status and the last step's actions."""
    s, actions = None, ()
    defaults = dict(deploy=dict(name="w", instances=("a",), stopped=False),
                    hello=dict(pid=7), spawn_failed=dict(reason="exited with code 1"),
                    exited=dict(code=-9), backoff_due=dict(stamp=0))
    for ev in events:
        name, now, data = ev if isinstance(ev, tuple) else (ev, FRESH, defaults.get(ev, {}))
        s, actions = run(policy, s, name, now, live=live, **data)
    return s, actions


UP = ("deploy", "hello")
RESTART = ("eof", "backoff_due")


class TestPinnedEdges:
    def test_a_hello_after_retire_is_reaped_and_revives_nothing(self):
        s, actions = walk(BackoffPolicy(), *UP, *RESTART, "retire", "hello")
        assert s.state is STOPPED and s.restarts == 0
        assert actions == (("close_link",), ("kill",))

    @pytest.mark.parametrize("max_restarts, state", ((None, DOWN), (1, FAILED)))
    def test_a_failed_spawn_at_restart_is_one_failed_attempt(self, max_restarts, state):
        s, actions = walk(BackoffPolicy(max_restarts=max_restarts, jitter=0.0),
                          *UP, *RESTART, "spawn_failed")
        assert s.state is state and s.crashes == 1 and s.restarts == 0
        kinds = [a[1] for a in actions if a[0] == "emit"]
        assert kinds == (["worker_restart_scheduled"] if state is DOWN else ["worker_gave_up"])
        if state is DOWN:
            assert ("arm", "backoff_due", 1.0) in actions  # the second rung

    def test_a_deploy_after_stop_forks_nothing(self):
        s, actions = walk(BackoffPolicy(), ("deploy", FRESH, dict(name="w", instances=("a",), stopped=True)))
        assert s.state is STOPPED and actions == ()

    def test_a_deploy_of_a_deployed_worker_changes_nothing(self):
        for prefix in ((), ("hello",), ("hello", "eof")):
            s, _ = walk(BackoffPolicy(), "deploy", *prefix)
            assert run(BackoffPolicy(), s, "deploy", name="w", instances=("a",), stopped=False) == (s, ())

    def test_two_stale_ticks_in_a_row_condemn_and_a_pong_between_saves(self):
        stale = ("tick", STALE, {})
        s, _ = walk(BackoffPolicy(), *UP, stale, "pong", stale)
        assert s.state is RUNNING and s.suspect
        s, actions = walk(BackoffPolicy(), *UP, stale, stale)
        assert s.state is DOWN and s.heartbeat_timeouts == 1
        assert actions[:2] == (("count", "cluster_heartbeat_timeouts"), ("count", "cluster_worker_crashes"))

    def test_a_stable_timer_of_an_older_incarnation_resets_nothing(self):
        pol = BackoffPolicy()
        s, _ = walk(pol, *UP, *RESTART, "hello", *RESTART, "hello")
        assert s.restarts == 2 and s.attempt == 2
        assert run(pol, s, "stable_due", stamp=1)[0] == s
        assert run(pol, s, "stable_due", stamp=2)[0].attempt == 0

    def test_a_crash_after_the_loop_closed_decides_no_backoff(self):
        s, actions = walk(BackoffPolicy(), *UP, "eof", live=False)
        assert s.state is DOWN and s.crashes == 1 and s.attempt == 0
        assert [a[0] for a in actions if a[0] in ("arm", "gauge")] == []

    def test_a_retry_forever_ladder_stays_at_its_cap(self):
        # found by the exploration: factor ** attempt overflowed a float
        # after ~1,024 consecutive failed attempts
        pol = BackoffPolicy(jitter=0.0)
        assert pol.delay(5000, random.Random(0)) == pol.cap
        s, _ = walk(pol, *UP, *RESTART)
        s, actions = run(pol, replace(s, attempt=5000), "spawn_failed", reason="exited")
        assert s.attempt == 5001 and ("arm", "backoff_due", pol.cap) in actions

    def test_the_first_hello_spawns_and_a_later_one_restarts(self):
        pol = BackoffPolicy()
        s, actions = walk(pol, *UP)
        assert s.state is RUNNING and s.pid == 7 and s.restarts == 0
        assert actions == (("emit", "worker_spawn", {"pid": 7, "instances": ["a"]}),)
        s, actions = walk(pol, *UP, *RESTART, "hello")
        assert s.restarts == 1 and [a[0] for a in actions] == [
            "count", "emit", "restart_instances", "arm", "gauge",
        ]
