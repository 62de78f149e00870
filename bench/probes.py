"""Isolated layer probes: micro-loops on one layer with no system
around it.  They run before the tracer is installed (a wrapped method
would time the wrapper), so their numbers do not depend on the
workload; the traced run prints them next to the span-derived metrics.
"""

from __future__ import annotations

import time

from repro.runtime.kvtable import KVTable, Update
from repro.runtime.wire import decode_message, encode_message, frame

#: a table shaped like the failover junctions (a dozen declared keys)
KEYS = [f"K{i}" for i in range(12)]
BACKLOG = 64
N = 20_000


def _table(executing: bool) -> KVTable:
    t = KVTable("bench::j")
    for k in KEYS:
        t.declare(k, False)
    t.executing = executing
    return t


def kvtable_probes() -> dict:
    out = {}
    # set_local under a pending backlog (local priority must discard)
    t = _table(executing=True)
    for i in range(BACKLOG):
        t.receive(Update(KEYS[1 + i % (len(KEYS) - 1)], True, "peer::j"))
    t0 = time.perf_counter()
    for i in range(N):
        t.set_local("K0", i & 1 == 0)
    out["kvtable.set_local_ns"] = (time.perf_counter() - t0) / N * 1e9

    # idle receive + apply_pending cycles
    t = _table(executing=False)
    ups = [Update(KEYS[i % len(KEYS)], True, "peer::j") for i in range(8)]
    rounds = N // 8
    t0 = time.perf_counter()
    for _ in range(rounds):
        for u in ups:
            t.receive(u)
        t.apply_pending()
    out["kvtable.receive_apply_ns"] = (time.perf_counter() - t0) / (rounds * 8) * 1e9

    # transaction: begin, two writes, rollback
    t = _table(executing=True)
    rounds = N // 4
    t0 = time.perf_counter()
    for _ in range(rounds):
        t.tx_begin()
        t.set_local("K0", True)
        t.set_local("K1", True)
        t.tx_rollback()
    out["kvtable.tx_rollback_ns"] = (time.perf_counter() - t0) / rounds * 1e9

    # snapshot + by-name restore into a fresh table (the reconfiguration
    # cutover's state carry-over, minus the serde round trip)
    src = _table(executing=True)
    for i in range(8):
        src.receive(Update(KEYS[i], True, "peer::j"))
    rounds = N // 20
    t0 = time.perf_counter()
    for _ in range(rounds):
        values, pending = src.snapshot(), src.pending_updates()
        dst = _table(executing=False)
        for key, value in values.items():
            dst.values[key] = value
        dst.enqueue_pending(pending)
    out["kvtable.snapshot_restore_us"] = (time.perf_counter() - t0) / rounds * 1e6
    return out


def wire_replay(messages: list, rounds: int = 20) -> dict:
    """Encode/frame/decode cost of a sample of the workload's own
    messages, through the untraced codec."""
    if not messages:
        return {"wire.encode_us": 0.0, "wire.decode_us": 0.0}
    t0 = time.perf_counter()
    for _ in range(rounds):
        bodies = [frame(encode_message(m)) for m in messages]
    t1 = time.perf_counter()
    prefix = len(frame(b""))
    for _ in range(rounds):
        for body in bodies:
            decode_message(body[prefix:])
    t2 = time.perf_counter()
    n = rounds * len(messages)
    return {"wire.encode_us": (t1 - t0) / n * 1e6, "wire.decode_us": (t2 - t1) / n * 1e6}
