"""The checkpointing architecture applied to redislite and suricatalite.

Wraps any *checkpointable* substrate — something exposing
``checkpoint() -> (snapshot, stall_cost)`` and
``restore(snapshot) -> stall_cost`` — in ``dsl/checkpointing.csaw``:
periodic snapshots are pushed to a remote ``Aud`` instance, and after a
crash the harness asserts ``RestoreReq`` so ``Aud`` pushes the last
snapshot back (push-based restore; junctions cannot pull).

The protected service keeps serving its own clients (e.g. through a
``DirectPort``); the ``Freeze`` host block stalls that service for the
checkpoint's serialization cost, reproducing the single-threaded dips
of Figs. 23a / 24a.
"""

from __future__ import annotations

from typing import Callable, Protocol

from ..runtime.engine import SimEngine
from ..runtime.system import System
from .loader import load_program
from .ports import Service


class Checkpointable(Protocol):
    def checkpoint(self) -> tuple[dict, float]: ...
    def restore(self, snapshot: dict) -> float: ...


class _ActApp:
    def __init__(self, service: "CheckpointedService"):
        self.service = service
        self.pending_snapshot: dict | None = None
        self.freeze_cost = 0.0

    def take_snapshot(self) -> dict:
        snap, cost = self.service.target.checkpoint()
        self.freeze_cost = cost
        return snap

    def apply_snapshot(self, snap: dict) -> None:
        cost = self.service.target.restore(snap)
        self.service._stall(cost)
        self.service.restores += 1


class _AudApp:
    def __init__(self):
        self.last_snapshot: dict | None = None
        self.snapshots_stored = 0

    def store(self, snap: dict) -> None:
        self.last_snapshot = snap
        self.snapshots_stored += 1


class CheckpointedService(Service):
    """Periodic checkpointing + crash recovery for a substrate.

    ``stall`` is how the architecture freezes the protected service —
    e.g. ``DirectPort.stall`` for redislite, or a packet feeder's pause
    for suricatalite.
    """

    def __init__(
        self,
        target: Checkpointable,
        stall: Callable[[float], None],
        *,
        latency: float = 200e-6,
        timeout: float = 5.0,
        seed: int = 0,
        system: System | None = None,
        sim=None,
    ):
        self.target = target
        self._stall_fn = stall
        self.program = load_program("checkpointing")
        self.system = system or System(
            self.program, latency=latency, seed=seed,
            engine=SimEngine(sim) if sim is not None else None,
        )
        self.checkpoints = 0
        self.restores = 0
        self.checkpoint_times: list[float] = []

        sys_ = self.system
        self.act = _ActApp(self)
        self.aud = _AudApp()
        sys_.bind_app("Actual", lambda inst: self.act)
        sys_.bind_app("Auditing", lambda inst: self.aud)

        @sys_.host("Actual", "Freeze")
        def _freeze(ctx):
            # the snapshot is taken by the save provider right after
            # this block; we pre-compute it here so the stall (the
            # single-threaded serialization) is charged before shipping
            ctx.app.pending_snapshot = ctx.app.take_snapshot()
            self._stall(ctx.app.freeze_cost)
            ctx.take(ctx.app.freeze_cost)
            self.checkpoints += 1
            self.checkpoint_times.append(ctx.now)

        @sys_.host("Actual", "Resumed")
        def _resumed(ctx):
            pass

        @sys_.host("Actual", "Complain")
        def _act_complain(ctx):
            pass

        @sys_.host("Auditing", "Complain")
        def _aud_complain(ctx):
            pass

        sys_.bind_state(
            "Actual", data_name="n",
            save=lambda app, inst: app.pending_snapshot,
            restore=lambda app, inst, obj: app.apply_snapshot(obj),
        )
        sys_.bind_state(
            "Auditing", data_name="n",
            save=lambda app, inst: app.last_snapshot,
            restore=lambda app, inst, obj: app.store(obj),
        )

        self._start(t=timeout)

    def _stall(self, cost: float) -> None:
        if cost > 0:
            self._stall_fn(cost)

    # -- harness controls ---------------------------------------------------

    def checkpoint_now(self) -> None:
        self.system.external_update("Act::snap", "SnapDue", True)

    def schedule_checkpoints(self, interval: float, until: float, first: float | None = None) -> None:
        t = first if first is not None else interval
        while t <= until:
            self.system.sim.call_at(t, self.checkpoint_now)
            t += interval

    def crash(self) -> None:
        self.system.crash_instance("Act")

    def recover(self) -> None:
        """Restart the crashed Act and push the last snapshot back."""
        self.system.restart_instance("Act")
        self.system.external_update("Aud::restorer", "RestoreReq", True)
