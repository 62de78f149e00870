"""The C-Saw runtime: a deterministic libcompart stand-in.

Public surface::

    from repro.runtime import System, FaultPlan

    system = System(compiled_program, latency=0.05, seed=1)
    system.bind_host("Front", "Choose", choose_fn)
    system.bind_app("Back", lambda inst: BackendApp())
    system.bind_state("Back", save=..., restore=...)
    system.start(t=5.0)
    system.run_until(120.0)

This package loads the sim runtime only.  The wall-clock engines and
chaos stay in their modules (``repro.runtime.realtime``, ``.cluster``,
``.chaos``), which :func:`create_engine` imports when a spec names
them; :mod:`repro.api` re-exports them.
"""

from .channels import LinkConfig, Message, Network
from .delivery import DeliveryPolicy, LinkHealth, ReliableDelivery
from .engine import (
    EngineSpec,
    ExecutionEngine,
    SimEngine,
    create_engine,
    default_engine,
)
from .faults import FaultPlan
from .host import HostContext
from .instance import InstanceRuntime, InstanceTypeRuntime, JunctionRuntime, StateProviders
from .interpreter import JunctionExecution
from .kvtable import KVTable, UNDEF, Update
from .sim import Simulator
from .supervisor import BackoffPolicy
from .system import System

__all__ = [
    "BackoffPolicy",
    "DeliveryPolicy",
    "EngineSpec",
    "ExecutionEngine",
    "FaultPlan",
    "HostContext",
    "LinkHealth",
    "ReliableDelivery",
    "SimEngine",
    "create_engine",
    "default_engine",
    "InstanceRuntime",
    "InstanceTypeRuntime",
    "JunctionExecution",
    "JunctionRuntime",
    "KVTable",
    "LinkConfig",
    "Message",
    "Network",
    "Simulator",
    "StateProviders",
    "System",
    "UNDEF",
    "Update",
]
