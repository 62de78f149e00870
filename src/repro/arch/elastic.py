"""Elastic compute workers (extension; see ``dsl/elastic.csaw``).

Stateless jobs are load-balanced over however many worker instances are
currently running; :meth:`ElasticWorkers.scale_out` /
:meth:`scale_in` drive the DSL's ``scale`` junction, which starts or
stops worker instances from inside the architecture description.
"""

from __future__ import annotations

from typing import Callable

from ..core.errors import DslFailure
from ..runtime.system import System
from .ports import BackApp, FrontApp, RequestReply, Roles

WORKERS = ("Wrk1", "Wrk2", "Wrk3", "Wrk4")


class _ElasticFront(FrontApp):
    def __init__(self, system: System, node: str):
        super().__init__(system, node)
        self.active: list[str] = ["Wrk1", "Wrk2"]
        self.rr = 0
        self.scale_plan: tuple[str, bool] | None = None  # (worker, out?)
        self.scale_done: Callable[[bool], None] | None = None
        self.scale_events: list[tuple[float, str, str]] = []
        #: in-flight jobs by id (results are delivered by the worker's
        #: host block — the dispatch is asynchronous)
        self.jobs: dict[int, Callable[[dict | None], None]] = {}
        self.next_id = 0


_ROLES = Roles(
    front="Front", node="Fnt::route", backs=("Worker",),
    first="Choose", respond=None, execute="Exec", request="n", reply=None,
    cost=0.0,
)


class ElasticWorkers(RequestReply):
    """A job service whose worker pool grows and shrinks at runtime."""

    def __init__(
        self,
        *,
        unit_cost: float = 1e-3,
        latency: float = 100e-6,
        timeout: float = 0.5,
        seed: int = 0,
    ):
        self.unit_cost = unit_cost
        super().__init__(
            "elastic", _ROLES, _ElasticFront, lambda inst: BackApp(inst.name),
            self._run_job, latency=latency, seed=seed,
        )
        sys_ = self.system

        @sys_.host("Front", "PlanScale")
        def _plan(ctx):
            worker, out = ctx.app.scale_plan
            ctx.set("which", worker)
            ctx.set("Out", out)

        @sys_.host("Front", "Registered")
        def _registered(ctx):
            worker, _ = ctx.app.scale_plan
            ctx.app.active.append(worker)
            ctx.app.scale_events.append((ctx.now, "out", worker))
            if ctx.app.scale_done is not None:
                cb, ctx.app.scale_done = ctx.app.scale_done, None
                cb(True)

        @sys_.host("Front", "Deregistered")
        def _deregistered(ctx):
            worker, _ = ctx.app.scale_plan
            ctx.app.active.remove(worker)
            ctx.app.scale_events.append((ctx.now, "in", worker))
            if ctx.app.scale_done is not None:
                cb, ctx.app.scale_done = ctx.app.scale_done, None
                cb(True)

        self._start(t=timeout)

    def _route(self, ctx, request: dict) -> None:
        app = ctx.app
        if not app.active:
            raise DslFailure("no running workers")
        app.rr = (app.rr + 1) % len(app.active)
        ctx.set("tgt", app.active[app.rr])
        # dispatch is asynchronous: the route junction does not wait
        # for the result, so the next job can be chosen immediately
        app.current_done = None
        app._dispatched = app.current
        app._rearm()

    def _complain(self, ctx) -> None:
        if ctx.junction == "route":
            # dispatch failed: fail the job that was being shipped
            job_id = (getattr(ctx.app, "_dispatched", None) or {}).get("id")
            cb = ctx.app.jobs.pop(job_id, None)
            if cb is not None:
                cb(None)
            ctx.app.current = None
            ctx.app._rearm()
        elif ctx.app.scale_done is not None:
            cb, ctx.app.scale_done = ctx.app.scale_done, None
            cb(False)

    def _run_job(self, app: BackApp, job: dict, now: float) -> tuple[dict, float]:
        units = job.get("units", 1)
        result = {"worker": app.payload, "units": units}
        # deliver the result out of band (application-level), as
        # dispatch was asynchronous
        cb = self.front.jobs.pop(job.get("id"), None)
        if cb is not None:
            self.system.sim.call_after(0.0, lambda: cb(result))
        return result, units * self.unit_cost

    @property
    def active_workers(self) -> list[str]:
        return list(self.front.active)

    def running_workers(self) -> list[str]:
        return [w for w in WORKERS if self.system.instance(w).alive]

    # -- jobs -----------------------------------------------------------------

    def submit_job(self, units: int, on_done: Callable[[dict | None], None]) -> None:
        job_id = self.front.next_id
        self.front.next_id += 1
        self.front.jobs[job_id] = on_done
        self.front.submit({"units": units, "id": job_id}, lambda _r: None)

    # -- scaling ---------------------------------------------------------------

    def scale_out(self, on_done: Callable[[bool], None] | None = None) -> None:
        """Start the next spare worker (through the DSL)."""
        spare = [w for w in WORKERS if w not in self.front.active]
        if not spare:
            raise ValueError("no spare workers")
        self._scale(spare[0], out=True, on_done=on_done)

    def scale_in(self, on_done: Callable[[bool], None] | None = None) -> None:
        """Stop the most recently added worker (through the DSL)."""
        if len(self.front.active) <= 1:
            raise ValueError("refusing to scale below one worker")
        self._scale(self.front.active[-1], out=False, on_done=on_done)

    def _scale(self, worker: str, out: bool, on_done) -> None:
        self.front.scale_plan = (worker, out)
        self.front.scale_done = on_done
        self.system.external_update("Fnt::scale", "ScaleReq", True)
