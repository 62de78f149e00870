"""Direct (non-DSL) remote auditing: the control arm for
``arch/snapshot.py``.

The transfer client's audit hook ships each snapshot to a remote audit
endpoint and holds the transfer's barrier until the log acknowledges —
the same integrity contract as the DSL architecture (the download may
not outrun its audit trail), with the shipping, correlation and timeout
handling written by hand.
"""

from __future__ import annotations

from typing import Callable

from repro.curlite.client import AuditHook
from repro.runtime.sim import Simulator
from .messaging import Envelope, MessageBus

#: latencies for the two placements (seconds, one-way) — same constants
#: as the DSL arm
SAME_VM_LATENCY = 25e-6
CROSS_VM_LATENCY = 300e-6


class DirectRemoteAuditor:
    """A hand-rolled remote audit log; produces curlite hooks."""

    def __init__(
        self,
        sim: Simulator,
        *,
        placement: str = "cross-vm",  # 'same-vm' | 'cross-vm'
        timeout: float = 2.0,
    ):
        if placement == "same-vm":
            latency = SAME_VM_LATENCY
        elif placement == "cross-vm":
            latency = CROSS_VM_LATENCY
        else:
            raise ValueError(f"unknown placement {placement!r}")
        self.placement = placement
        self.sim = sim
        self.timeout = timeout
        self.bus = MessageBus(sim, latency)
        self.act = self.bus.endpoint("act")
        self.aud = self.bus.endpoint("aud")
        self.audit_log: list[dict] = []
        self.snapshots_sent = 0
        self.complaints = 0

        def record(env: Envelope):
            _topic, state = env.body
            self.audit_log.append(dict(state))
            return True

        self.aud.on("record", record)

    def audit_hook(self) -> AuditHook:
        """An :data:`~repro.curlite.client.AuditHook` logging remotely
        (barrier released by the audit log's ack)."""

        def hook(state: dict, done: Callable[[], None]) -> None:
            def acked(_reply):
                self.snapshots_sent += 1
                done()

            def failed():
                self.complaints += 1
                # release the transfer even when auditing failed, so
                # the experiment observes the failure rather than hangs
                done()

            self.act.request(
                "aud", "record", dict(state), acked,
                timeout=self.timeout, on_timeout=failed,
            )

        return hook
