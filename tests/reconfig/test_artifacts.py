"""A transition reads the artifacts the system holds.

A live reconfiguration uses the two compiled programs and the closures
already bound to them: the new ``main``'s start groups come from the
closure ``System.start`` binds (so a ``main`` a fresh start refuses is
refused live, before anything is paused), a warm transition closes
nothing afresh, and a resize recompiles the text the system runs rather
than the file it was once read from.
"""

import pytest

import repro.core.elaborate
import repro.runtime.system
from repro.arch.loader import compile_sized, load_source
from repro.arch.sharding import ShardedRedis
from repro.core.errors import ValidationError
from repro.redislite import Command
from repro.runtime.system import System

#: ``sharding`` with a ``main`` that writes data nobody declares
BAD = load_source("sharding").replace(
    "start b(t)\n", "start b(t) + write(zz, Fnt)\n", 1
)


def bad_program():
    return compile_sized(BAD, 5, what="bad")


def test_a_main_a_fresh_start_refuses_is_refused_live():
    with pytest.raises(ValidationError) as fresh:
        System(bad_program()).start(t=1.0)
    assert "write of undeclared data 'zz'" in str(fresh.value)

    svc = ShardedRedis(4)
    sys_ = svc.system
    old = sys_.program
    with pytest.raises(ValidationError) as live:
        sys_.reconfigure(bad_program())
    assert str(live.value) == str(fresh.value)
    # refused before quiesce: nothing changed and nothing is paused
    assert sys_.program is old and not sys_._reconfiguring
    assert not any(
        jr.paused for inst in sys_.instances.values() for jr in inst.junctions.values()
    )

    replies = []
    for cmd in (Command("SET", "k", b"v"), Command("GET", "k")):
        svc.submit(cmd, replies.append)
        sys_.run_until(sys_.now + 2.0)
    assert [r.ok for r in replies] == [True, True] and replies[1].value == b"v"
    assert not sys_.failures


def test_a_warm_transition_specialises_nothing(monkeypatch):
    svc = ShardedRedis(4)
    for n in (5, 4):
        assert svc.reconfigure_shards(n).ok
    calls = []
    for module in (repro.runtime.system, repro.core.elaborate):
        real = module.specialize

        def counted(*args, real=real, **kw):
            calls.append(args)
            return real(*args, **kw)

        monkeypatch.setattr(module, "specialize", counted)
    for n in (5, 4) * 5:
        assert svc.reconfigure_shards(n).ok
    assert svc.system.program.family("Bck") == ("Bck1", "Bck2", "Bck3", "Bck4")
    assert len(calls) == 0


def test_a_resize_does_not_read_the_file_on_disk(monkeypatch, tmp_path):
    svc = ShardedRedis(4)
    text = svc.system.program.source_text
    monkeypatch.setattr("repro.arch.loader._DSL_DIR", tmp_path)
    rep = svc.reconfigure_shards(5)
    assert rep.ok, rep.reason
    assert len(svc.system.program.family("Bck")) == 5
    assert svc.system.program.source_text == text
