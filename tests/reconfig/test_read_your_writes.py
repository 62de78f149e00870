"""Read-your-writes across a live reshard.

Zero-drop (``test_zero_drop.py``) says every request completes; this
says the completed writes are *findable*.  A stream of ``SET``s is
staggered so that some land before the transition, some inside the
quiesce window (buffered, then replayed at resume) and some after.
Every acknowledged one must afterwards be returned by a ``GET`` and
must be stored on exactly the shard a fresh deployment of the new size
chooses — which only holds if the wrapper's routing switches at the
cutover, before the buffered requests are replayed, and not after
``System.reconfigure`` returns.
"""

import pytest

from repro.arch.sharding import ShardedRedis, key_hash_chooser
from repro.redislite import Command
from repro.runtime import default_engine

#: SETs staggered across the transition, one every half millisecond
WRITES = 40
GAP = 0.0005


def held_by(svc, key):
    return [
        i for i in range(svc.n_shards)
        if key in svc.backend_app(i).payload.store.keys()
    ]


@pytest.mark.parametrize("engine", ("sim", "realtime"))
@pytest.mark.parametrize("old,new", ((4, 5), (5, 4)))
def test_reshard_read_your_writes(engine, old, new):
    with default_engine(engine):
        svc = ShardedRedis(n_shards=old, seed=0)
    system = svc.system
    acked: dict[str, bool] = {}

    def write(key):
        svc.submit(
            Command("SET", key, key.encode()),
            lambda reply: acked.__setitem__(key, bool(reply.ok)),
        )

    try:
        for i in range(WRITES):
            system.clock.call_after(GAP * i, lambda i=i: write(f"k{i}"))
        # a quarter of the stream is in before the transition starts;
        # the rest fires while reconfigure_shards() blocks, and after
        system.run_until(system.now + GAP * WRITES / 4)
        report = svc.reconfigure_shards(new)
        assert report.ok, report.reason
        for i in range(WRITES, WRITES + 4):
            write(f"k{i}")
        system.run_until(system.now + 3.0)

        assert len(acked) == WRITES + 4 and all(acked.values()), acked
        assert svc.n_shards == new
        fresh = key_hash_chooser(new)
        misplaced = {
            key: (held_by(svc, key), fresh({"key": key}))
            for key in acked
            if held_by(svc, key) != [fresh({"key": key})]
        }
        assert not misplaced, f"key: (stored on, fresh deployment picks) {misplaced}"

        got: dict[str, bytes | None] = {}
        for key in acked:
            svc.submit(
                Command("GET", key),
                lambda reply, key=key: got.__setitem__(key, reply.value),
            )
        system.run_until(system.now + 5.0)
        wrong = {key: value for key, value in got.items() if value != key.encode()}
        assert len(got) == len(acked) and not wrong, wrong
        assert not system.failures
    finally:
        system.shutdown()
