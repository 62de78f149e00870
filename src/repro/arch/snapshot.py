"""Remote snapshots (Fig. 4) wired to curlite — the remote-auditing
re-architecture of cURL (use-cases ② and ③, evaluated in Figs. 25a/b
and 26a).

``Act`` is the transfer client's side; ``Aud`` the remote audit log.
The curlite client's audit hook asserts ``SnapDue`` with the transfer
state; the DSL ships the snapshot to ``Aud`` and the ``H3`` host block
releases the transfer's barrier (integrity: the download does not
outrun its audit trail).

Same-VM vs cross-VM placement is a latency configuration: instances in
one VM exchange messages at ``same_vm_latency``; across VMs at
``cross_vm_latency`` (the paper ran both placements, Fig. 25a).
"""

from __future__ import annotations

from typing import Callable

from ..curlite.client import AuditHook
from ..runtime.engine import SimEngine
from ..runtime.system import System
from .loader import load_program
from .ports import Service

#: latencies for the two placements (seconds, one-way)
SAME_VM_LATENCY = 25e-6
CROSS_VM_LATENCY = 300e-6


class _ActApp:
    def __init__(self):
        self.pending_state: dict | None = None
        self.done_cb: Callable[[], None] | None = None
        self.snapshots_sent = 0
        self.complaints = 0


class _AudApp:
    def __init__(self):
        self.log: list[dict] = []

    def record(self, state: dict) -> None:
        self.log.append(state)


class RemoteAuditor(Service):
    """A running remote-snapshot architecture; produces curlite hooks."""

    def __init__(
        self,
        *,
        placement: str = "cross-vm",  # 'same-vm' | 'cross-vm'
        timeout: float = 2.0,
        seed: int = 0,
        snapshot_cost: float = 15e-6,
        sim=None,
    ):
        if placement == "same-vm":
            latency = SAME_VM_LATENCY
        elif placement == "cross-vm":
            latency = CROSS_VM_LATENCY
        else:
            raise ValueError(f"unknown placement {placement!r}")
        self.placement = placement
        self.snapshot_cost = snapshot_cost
        self.program = load_program("remote_snapshot")
        self.system = System(
            self.program, latency=latency, seed=seed,
            engine=SimEngine(sim) if sim is not None else None,
        )
        sys_ = self.system

        self.act = _ActApp()
        self.aud = _AudApp()
        sys_.bind_app("Actual", lambda inst: self.act)
        sys_.bind_app("Auditing", lambda inst: self.aud)

        @sys_.host("Actual", "H1")
        def _h1(ctx):
            ctx.take(self.snapshot_cost)

        @sys_.host("Actual", "H3")
        def _h3(ctx):
            app: _ActApp = ctx.app
            app.snapshots_sent += 1
            cb, app.done_cb = app.done_cb, None
            if cb is not None:
                cb()

        @sys_.host("Actual", "Complain")
        def _complain(ctx):
            app: _ActApp = ctx.app
            app.complaints += 1
            # release the transfer even when auditing failed, so the
            # experiment can observe the failure rather than hang
            cb, app.done_cb = app.done_cb, None
            if cb is not None:
                cb()

        @sys_.host("Auditing", "H2")
        def _h2(ctx):
            ctx.take(5e-6)

        @sys_.host("Auditing", "Complain")
        def _aud_complain(ctx):
            pass

        sys_.bind_state(
            "Actual", data_name="n",
            save=lambda app, inst: app.pending_state,
            restore=lambda app, inst, obj: None,
        )
        sys_.bind_state(
            "Auditing", data_name="n",
            save=lambda app, inst: None,
            restore=lambda app, inst, obj: app.record(obj),
        )

        self._start(t=timeout)

    def audit_hook(self) -> AuditHook:
        """An :data:`~repro.curlite.client.AuditHook` driving this
        architecture (barrier released by Act's H3)."""

        def hook(state: dict, done: Callable[[], None]) -> None:
            self.act.pending_state = state
            self.act.done_cb = done
            self.system.external_update("Act::junction", "SnapDue", True)

        return hook

    @property
    def audit_log(self) -> list[dict]:
        return self.aud.log
