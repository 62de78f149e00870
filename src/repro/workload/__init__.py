"""Seeded workload generation: traffic shaped like millions of users.

The ROADMAP's north star asks for workloads "shaped like millions of
distinct users"; this package is the deterministic generator layer that
produces them and the driver that pushes them through any shipped
architecture on any engine (sim, realtime, cluster) via the engine
seam.

* :mod:`~repro.workload.spec` — :class:`WorkloadSpec`, the immutable
  description (seed, user population, arrival pattern, loop mode, …);
* :mod:`~repro.workload.generators` — zipf key skew over the user
  population, arrival curves (steady / diurnal / flash-crowd) realized
  by Lewis-Shedler thinning, and :func:`materialize`, which turns a
  spec into a concrete, digestable event schedule;
* :mod:`~repro.workload.driver` — the adapters (one per
  :data:`~repro.arch.catalog.CATALOG` row that speaks a request
  protocol) and :func:`run_workload`, which builds the service under
  ``default_engine``, drives the schedule open- or closed-loop, and
  returns a :class:`WorkloadReport` (ops/sec, p50/p99, drops, digests).

Everything downstream of the seed is deterministic: the same spec
materializes byte-identical schedules, and on the sim engine the same
(spec, arch) pair reproduces the same telemetry digest run after run.
"""

from .driver import ADAPTERS, WorkloadReport, run_workload
from .generators import ZipfSampler, materialize, schedule_digest
from .spec import PATTERNS, WorkloadSpec

__all__ = [
    "ADAPTERS",
    "PATTERNS",
    "WorkloadReport",
    "WorkloadSpec",
    "ZipfSampler",
    "materialize",
    "run_workload",
    "schedule_digest",
]
