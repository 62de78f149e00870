"""Read-your-writes across a live resize.

Zero-drop (``test_zero_drop.py``) says every request completes; this
says the completed writes are *findable*.  A stream of writes is
staggered so that some land before the transition, some inside the
quiesce window (buffered, then replayed at resume) and some after.
Every acknowledged one must afterwards be stored exactly where a fresh
deployment of the new size puts it — which only holds if the wrapper's
routing switches at the cutover, before the buffered requests are
replayed, and not after ``System.reconfigure`` returns — and, where the
protocol can ask, be returned by a ``GET``.

One row per resizable architecture: the three live resizes are one
routine (``arch.ports.FamilyService._resize``), and each row pins what
its ``move`` and ``switch`` owe.
"""

from typing import Callable, NamedTuple

import pytest

from repro.arch.broker import ShardedBroker
from repro.arch.sharding import ParallelShardedRedis, ShardedRedis, key_hash_chooser
from repro.brokerlite import BrokerRequest, partition_for
from repro.redislite import Command
from repro.runtime import default_engine

#: writes staggered across the transition, one every half millisecond
WRITES = 40
GAP = 0.0005


class Row(NamedTuple):
    build: Callable[[int], object]
    resize: str  #: the wrapper's live-resize method
    write: Callable  #: (svc, key, ack) — ``ack(ok)`` hears the reply
    held_by: Callable  #: (svc, key) -> back-end numbers storing ``key``
    fresh: Callable  #: (key, n) -> where a fresh ``n`` deployment stores it
    readable: bool  #: whether a ``GET`` can ask for the value back


def _set(svc, key, ack):
    svc.submit(Command("SET", key, key.encode()), lambda reply: ack(bool(reply.ok)))


def _pub(svc, key, ack):
    svc.submit(
        BrokerRequest(op="PUB", partition=0, key=key, value=key.encode()),
        lambda reply: ack(bool(reply.ok)),
    )


def _stores_holding(svc, key):
    return [
        i for i in range(len(svc.backends))
        if key in svc.backend_app(i).payload.store.keys()
    ]


def _logs_holding(svc, key):
    return [
        i for i in range(len(svc.backends))
        for log in svc.server(i).partitions.values()
        if any(rec.key == key for rec in log.records)
    ]


ROWS = {
    "sharding": Row(
        lambda n: ShardedRedis(n_shards=n, seed=0), "reconfigure_shards",
        _set, _stores_holding, lambda key, n: [key_hash_chooser(n)({"key": key})], True,
    ),
    # warm replication: every replica, the ones added live included
    "parallel_sharding": Row(
        lambda n: ParallelShardedRedis(n_backends=n, seed=0), "reconfigure_backends",
        _set, _stores_holding, lambda key, n: list(range(n)), True,
    ),
    "broker_sharded": Row(
        lambda n: ShardedBroker(n_partitions=n, seed=0), "reconfigure_partitions",
        _pub, _logs_holding, lambda key, n: [partition_for(key, n)], False,
    ),
}


#: (row, old size, new size, id prefix, engines)
CASES = (
    ("sharding", 4, 5, "4-5", ("sim", "realtime", "cluster")),
    ("sharding", 5, 4, "5-4", ("sim", "realtime", "cluster")),
    ("parallel_sharding", 3, 4, "parallel_sharding-3-4", ("sim", "realtime")),
    ("parallel_sharding", 4, 3, "parallel_sharding-4-3", ("sim", "realtime")),
    ("broker_sharded", 4, 5, "broker_sharded-4-5", ("sim", "realtime")),
    ("broker_sharded", 5, 4, "broker_sharded-5-4", ("sim", "realtime")),
)


@pytest.mark.parametrize(
    "row,old,new,engine",
    [
        pytest.param(row, old, new, engine, id=f"{prefix}-{engine}")
        for row, old, new, prefix, engines in CASES
        for engine in engines
    ],
)
def test_reshard_read_your_writes(engine, row, old, new):
    row = ROWS[row]
    with default_engine(engine):
        svc = row.build(old)
    system = svc.system
    acked: dict[str, bool] = {}

    def write(key):
        row.write(svc, key, lambda ok: acked.__setitem__(key, ok))

    try:
        for i in range(WRITES):
            system.clock.call_after(GAP * i, lambda i=i: write(f"k{i}"))
        # a quarter of the stream is in before the transition starts;
        # the rest fires while the resize blocks, and after
        system.run_until(system.now + GAP * WRITES / 4)
        report = getattr(svc, row.resize)(new)
        assert report.ok, report.reason
        for i in range(WRITES, WRITES + 4):
            write(f"k{i}")
        system.run_until(system.now + 3.0)

        assert len(acked) == WRITES + 4 and all(acked.values()), acked
        assert len(svc.backends) == new
        misplaced = {
            key: (row.held_by(svc, key), row.fresh(key, new))
            for key in acked
            if row.held_by(svc, key) != row.fresh(key, new)
        }
        assert not misplaced, f"key: (stored on, fresh deployment picks) {misplaced}"

        if row.readable:
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
