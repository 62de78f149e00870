"""Table mutation and telemetry stay on the runtime thread.

A closed-loop client submits its next request from the completion
callback of the last one.  That callback runs wherever the reply's host
block ran, so if host blocks ran anywhere but the thread that drives
``run_until``, the next ``submit`` — ``System.external_update``, hence
``KVTable.receive`` and ``Telemetry.emit`` — would mutate tables off it
while the loop thread mutates them too.
"""

import threading
import time

import pytest

from repro.arch.sharding import ShardedRedis
from repro.redislite import Command
from repro.runtime import default_engine
from repro.runtime.kvtable import KVTable
from repro.telemetry.facade import Telemetry

SETS = 200
CLIENTS = 2


def _record_threads(monkeypatch, cls, name, seen):
    original = getattr(cls, name)

    def recorded(*args, **kw):
        seen.add(threading.current_thread().name)
        return original(*args, **kw)

    monkeypatch.setattr(cls, name, recorded)


@pytest.mark.parametrize("engine", (
    pytest.param("realtime,time_scale=1.0", id="realtime"),
    pytest.param("cluster,workers=2", id="cluster"),
))
def test_closed_loop_mutates_tables_on_the_runtime_thread(monkeypatch, engine):
    receives, emits = set(), set()
    _record_threads(monkeypatch, KVTable, "receive", receives)
    _record_threads(monkeypatch, Telemetry, "emit", emits)
    with default_engine(engine):
        svc = ShardedRedis(n_shards=4, seed=0)
    system = svc.system
    issued, replies = [0], []

    def issue():
        i = issued[0]
        issued[0] += 1
        svc.submit(Command("SET", f"k{i}", b"v%d" % i), on_reply)

    def on_reply(reply):
        replies.append(bool(reply.ok))
        if issued[0] < SETS:
            issue()

    try:
        for _ in range(CLIENTS):
            issue()
        give_up = time.monotonic() + 60.0
        while len(replies) < SETS and time.monotonic() < give_up:
            system.run_until(system.now + 0.05)
        assert len(replies) == SETS and all(replies)
    finally:
        system.shutdown()
    runtime = threading.current_thread().name
    assert receives == {runtime}
    assert emits == {runtime}
