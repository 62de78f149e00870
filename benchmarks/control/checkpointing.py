"""Direct (non-DSL) checkpointing: the control arm of Table 2.

A checkpoint manager periodically snapshots the protected server,
ships the snapshot to a storage endpoint over the message bus, tracks
acknowledgements and re-sends on timeout, and on recovery fetches the
last acknowledged snapshot back — state-machine plumbing the DSL
version expresses declaratively.
"""

from __future__ import annotations

from typing import Callable

from repro.runtime.sim import Simulator
from .messaging import Envelope, MessageBus


class DirectCheckpointManager:
    """Checkpoint/restore for any substrate with ``checkpoint()`` /
    ``restore(snapshot)`` (same protocol as the DSL version)."""

    def __init__(
        self,
        sim: Simulator,
        target,
        stall: Callable[[float], None],
        *,
        latency: float = 200e-6,
        timeout: float = 2.0,
        max_resends: int = 1,
    ):
        self.sim = sim
        self.target = target
        self.stall = stall
        self.timeout = timeout
        self.max_resends = max_resends
        self.bus = MessageBus(sim, latency)
        self.agent = self.bus.endpoint("agent")
        self.storage = self.bus.endpoint("storage")
        self.stored_snapshot: dict | None = None
        self.stored_seq = -1
        self.checkpoints = 0
        self.acked = 0
        self.restores = 0
        self.lost = 0
        self._seq = 0

        def store_handler(env: Envelope):
            _topic, (seq, snap) = env.body
            if seq > self.stored_seq:
                self.stored_seq = seq
                self.stored_snapshot = snap
            return {"ack": seq}

        def fetch_handler(env: Envelope):
            return {"seq": self.stored_seq, "snapshot": self.stored_snapshot}

        self.storage.on("store", store_handler)
        self.storage.on("fetch", fetch_handler)

    # -- checkpointing ---------------------------------------------------------

    def checkpoint_now(self) -> None:
        snap, cost = self.target.checkpoint()
        self.stall(cost)
        self.checkpoints += 1
        seq = self._seq
        self._seq += 1

        def on_reply(body):
            self.acked += 1

        def on_timeout():
            self.lost += 1

        self.agent.request(
            "storage",
            "store",
            (seq, snap),
            on_reply,
            timeout=self.timeout,
            on_timeout=on_timeout,
            retries=self.max_resends,
        )

    def schedule_checkpoints(self, interval: float, until: float, first: float | None = None) -> None:
        t = first if first is not None else interval
        while t <= until:
            self.sim.call_at(t, self.checkpoint_now)
            t += interval

    # -- recovery ------------------------------------------------------------------

    def recover(self, on_done: Callable[[bool], None] | None = None) -> None:
        def on_reply(body):
            if body["snapshot"] is None:
                if on_done:
                    on_done(False)
                return
            cost = self.target.restore(body["snapshot"])
            self.stall(cost)
            self.restores += 1
            if on_done:
                on_done(True)

        def on_timeout():
            if on_done:
                on_done(False)

        self.agent.request(
            "storage", "fetch", (), on_reply, timeout=self.timeout, on_timeout=on_timeout
        )
