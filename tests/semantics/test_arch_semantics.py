"""The formal semantics applied to the real architecture library:
every shipped architecture denotes into valid event structures."""

import pytest

from repro.arch.loader import ARCHITECTURES, load_program
from repro.semantics import Sched, Unsched, denote_program, to_text


CASES = [
    ("remote_snapshot", {}, {"t": 1.0}),
    ("caching", {}, {"t": 1.0}),
    ("checkpointing", {}, {"t": 1.0}),
    ("watched_failover", {}, {"t": 1.0}),
    ("sharding", {"n_backends": 4}, {"t": 1.0}),
    ("parallel_sharding", {"n_backends": 3}, {"t": 1.0}),
]


@pytest.mark.parametrize("name,kwargs,env", CASES, ids=[c[0] for c in CASES])
def test_architecture_denotes_validly(name, kwargs, env):
    prog = load_program(name, **kwargs)
    sem = denote_program(prog, env, max_unfold=1)
    assert sem.total_events() > 10
    for es in sem.all_structures():
        es.validate()
    # every started instance's junction has Sched/Unsched bracketing
    for node, es in sem.junctions.items():
        scheds = [e for e in es.events if isinstance(e.label, Sched)]
        unscheds = [e for e in es.events if isinstance(e.label, Unsched)]
        assert scheds, f"{node} lacks a Sched event"
        assert unscheds, f"{node} lacks an Unsched event"


def test_failover_denotes_validly():
    prog = load_program("failover")
    sem = denote_program(prog, {"t": 1.0}, max_unfold=1)
    assert sem.total_events() > 500
    for es in sem.all_structures():
        es.validate()


@pytest.mark.parametrize("name", ARCHITECTURES)
def test_every_shipped_junction_denotes(name):
    """No ``unbound(node)`` stub: every junction closes under the
    arguments ``main`` itself starts it with, and can be printed."""
    sem = denote_program(load_program(name))
    for node, es in sem.junctions.items():
        assert not es.find(lambda e: str(e.label).startswith("unbound(")), node
        assert "Sched_" in to_text(es)


def test_at_guard_becomes_opaque_read():
    """Guards observing other junctions (b::startup's
    ``me::instance::serve@!Active``) denote as opaque literal reads."""
    from repro.core.compiler import compile_program
    from repro.semantics import denote_program as dp

    prog = compile_program(
        """
        instance_types { B }
        instances { b: B }
        def main() = start b a() c()
        def B::a() = | init prop !P
          skip
        def B::c() =
          | guard b::a@!P
          skip
        """
    )
    sem = dp(prog)
    es = sem.junctions["b::c"]
    reads = [e for e in es.events if "b::a@!P" in str(e.label)]
    assert reads
