"""The transition plan is what runs.

``ReconfigReport.steps`` is the executor's own record of what it did;
``ReconfigReport.plan`` is what the planner said.  They must be the same
list — on every engine, for every kind of transition, and up to the
failed step when a transition rolls back — and what ``repro reconfigure
--plan-only`` prints must be the plan a live run of the same targets
executes.

The fault-point matrix has one row per ``plan.KINDS`` entry: that kind's
handler raises once, and the transition must end complete-or-rolled-back
— no junction left paused, the system not stuck ``_reconfiguring``, the
next request answered.  A new step kind without a row fails collection.
"""

import pytest

from repro import cli
from repro.arch.broker import ShardedBroker
from repro.arch.failover import FailoverRedis, swap_backend_source
from repro.arch.loader import load_program, start_bare
from repro.arch.sharding import ParallelShardedRedis, ShardedRedis
from repro.core.compiler import compile_program
from repro.reconfig import executor
from repro.reconfig.plan import KINDS
from repro.redislite import Command
from repro.runtime import RealtimeEngine, default_engine
from repro.runtime.cluster import ClusterEngine

SCALE = 0.02
HB = dict(heartbeat_interval=0.5, heartbeat_timeout=2.0)


def _failover():
    svc = FailoverRedis(seed=0, timeout=1.0)
    svc.system.run_until(1.0)
    return svc


#: name → (build the service, run the transition) on the ambient engine
TRANSITIONS = {
    "sharding-4-5": (lambda: ShardedRedis(n_shards=4), lambda s: s.reconfigure_shards(5)),
    "sharding-5-4": (lambda: ShardedRedis(n_shards=5), lambda s: s.reconfigure_shards(4)),
    "broker-4-5": (
        lambda: ShardedBroker(n_partitions=4), lambda s: s.reconfigure_partitions(5),
    ),
    "parallel-3-4": (
        lambda: ParallelShardedRedis(n_backends=3), lambda s: s.reconfigure_backends(4),
    ),
    "failover-swap": (_failover, lambda s: s.swap_backend("b2", "b3", quiesce_grace=10.0)),
    "parameter-only": (
        _failover, lambda s: s.system.reconfigure(main_args={"t": 2.0}, quiesce_grace=10.0),
    ),
}


def ran(report):
    return [step_id for step_id, _, _ in report.steps]


def planned(report):
    return [s.step_id for s in report.plan.ordered()]


def check_plan_ran(report):
    assert report.ok, report.render()
    assert ran(report) == planned(report)
    # the steps of one kind run together and share their times
    begans, endeds = ([step[i] for step in report.steps] for i in (1, 2))
    assert begans == sorted(begans) and endeds == sorted(endeds)
    assert all(began <= ended for began, ended in zip(begans, endeds))
    assert report.started_at <= begans[0] and endeds[-1] <= report.finished_at
    # what ``closure("cutover")`` used to say of the plan, of the run
    cut = ran(report).index("cutover")
    for i, step_id in enumerate(ran(report)):
        if step_id.split(":")[0] in ("spawn", "quiesce", "snapshot"):
            assert i < cut, f"{step_id} ran after the cutover"


@pytest.mark.parametrize("name", sorted(TRANSITIONS))
def test_plan_is_execution_sim(name):
    build, transition = TRANSITIONS[name]
    svc = build()
    report = transition(svc)
    check_plan_ran(report)
    assert not svc.system.failures


@pytest.mark.parametrize(
    "engine",
    (
        pytest.param(lambda: RealtimeEngine(time_scale=SCALE), id="realtime"),
        pytest.param(lambda: ClusterEngine(time_scale=SCALE, **HB), id="cluster"),
    ),
)
def test_plan_is_execution_wall_clock(engine):
    build, transition = TRANSITIONS["sharding-4-5"]
    with default_engine(engine):
        svc = build()
    try:
        check_plan_ran(transition(svc))
    finally:
        svc.system.shutdown()


def test_drain_timeout_runs_the_plan_up_to_quiesce():
    """A watchdog that never goes idle inside the grace: the executed
    steps are the plan's prefix through ``quiesce`` and nothing after."""
    svc = _failover()
    report = svc.swap_backend("b2", "b3", quiesce_grace=0.0)
    assert report.rolled_back and not report.ok
    order = planned(report)
    last_quiesce = max(i for i, s in enumerate(order) if s.startswith("quiesce:"))
    assert ran(report) == order[: last_quiesce + 1]
    assert_serving(svc)


# ----------------------------------------------------------------------
# the printed plan is the executed plan
# ----------------------------------------------------------------------

@pytest.mark.parametrize(
    "name,sizes",
    (
        ("sharding", (4, 5)),
        ("sharding", (5, 4)),
        ("broker_sharded", (4, 5)),
        ("parallel_sharding", (3, 4)),
        ("failover", None),  # b2 -> b3
    ),
    ids=("sharding-4-5", "sharding-5-4", "broker-4-5", "parallel-3-4", "failover-swap"),
)
def test_plan_only_prints_what_a_live_run_executes(name, sizes, tmp_path, capsys):
    if sizes is None:
        target = tmp_path / "swapped.csaw"
        target.write_text(swap_backend_source("b2", "b3", program_name=name))
        argv = [name, str(target)]
        old, new = load_program(name), compile_program(target.read_text())
    else:
        argv = [name, name, "--old-backends", str(sizes[0]), "--new-backends", str(sizes[1])]
        old, new = (load_program(name, n_backends=n) for n in sizes)

    assert cli.main(["reconfigure", *argv, "--plan-only"]) == 0
    printed = capsys.readouterr().out

    system = start_bare(old)
    system.run_until(1.0)
    report = system.reconfigure(new, quiesce_grace=10.0)
    check_plan_ran(report)
    assert printed.endswith(report.plan.render() + "\n")


# ----------------------------------------------------------------------
# failing a step
# ----------------------------------------------------------------------

def assert_serving(svc):
    """Complete-or-rolled-back: nothing paused, not stuck, and the next
    request is answered."""
    system = svc.system
    paused = [jr.node for i in system.instances.values() for jr in i.junctions.values() if jr.paused]
    assert not paused, f"left paused: {paused}"
    assert not system._reconfiguring
    replies = []
    svc.submit(Command("SET", "after", b"1"), replies.append)
    svc.submit(Command("GET", "after", b""), replies.append)
    system.run_until(system.now + 5.0)
    assert [bool(r.ok) for r in replies] == [True, True]
    assert not system.failures


def _events(system, kind):
    return [e for e in system.telemetry.events if e.kind == kind]


def test_a_raise_after_the_cutover_resumes_the_service():
    """The wedge this executor used to have: ``move`` raising inside the
    transfer step left ``Fnt::junction`` paused forever."""
    svc = ShardedRedis(n_shards=4)

    def move(sources, targets):
        raise RuntimeError("move failed")

    with pytest.raises(RuntimeError, match="move failed"):
        svc._resize(5, move, lambda: None, quiesce_grace=5.0)
    assert _events(svc.system, "reconfig_resume") and not _events(svc.system, "reconfig_rollback")
    assert_serving(svc)


def test_a_raise_before_the_cutover_rolls_back():
    svc = ShardedRedis(n_shards=4)
    old = svc.system.program

    def bind(system):
        raise RuntimeError("bind failed")

    with pytest.raises(RuntimeError, match="bind failed"):
        svc.system.reconfigure(load_program("sharding", n_backends=5), bind=bind)
    assert svc.system.program is old and "Bck5" not in svc.system.instances
    assert _events(svc.system, "reconfig_rollback")
    assert_serving(svc)


#: kind → (shards before, shards after, how the transition must end when
#: that kind's handler raises).  4→5 has a step of every kind but
#: ``stop``, which 5→4 supplies.
FAULT_POINTS = {
    "spawn": (4, 5, "rolled back"),
    "quiesce": (4, 5, "rolled back"),
    "snapshot": (4, 5, "rolled back"),
    "cutover": (4, 5, "rolled back"),
    "stop": (5, 4, "resumed"),
    "rebind": (4, 5, "resumed"),
    "start": (4, 5, "resumed"),
    "transfer": (4, 5, "resumed"),
    "resume": (4, 5, "resumed"),
}
assert set(FAULT_POINTS) == set(KINDS), set(FAULT_POINTS) ^ set(KINDS)


@pytest.mark.parametrize("kind", KINDS)
def test_fault_point(kind, monkeypatch):
    before, after, outcome = FAULT_POINTS[kind]
    svc = ShardedRedis(n_shards=before)
    svc.submit(Command("SET", "k", b"v"), lambda reply: None)
    svc.system.run_until(1.0)
    old = svc.system.program
    real, fired = executor.HANDLERS[kind], []

    def raise_once(tr, names):
        if not fired:
            fired.append(names)
            raise RuntimeError(f"injected at {kind}")
        return real(tr, names)

    monkeypatch.setitem(executor.HANDLERS, kind, raise_once)
    with pytest.raises(RuntimeError, match=f"injected at {kind}"):
        svc.reconfigure_shards(after)
    assert fired, f"{before}->{after} has no {kind} step"

    if outcome == "rolled back":
        assert svc.system.program is old and svc.n_shards == before
        assert _events(svc.system, "reconfig_rollback")
        assert not _events(svc.system, "reconfig_cutover")
    else:
        assert svc.system.program is not old
        assert _events(svc.system, "reconfig_resume")
        assert not _events(svc.system, "reconfig_rollback")
    assert_serving(svc)
    if outcome == "rolled back":
        # nothing was mutated: the same transition now goes through
        check_plan_ran(svc.reconfigure_shards(after))
        assert_serving(svc)
