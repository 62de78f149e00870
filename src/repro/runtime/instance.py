"""Runtime representations of instance types, instances and junctions.

An :class:`InstanceTypeRuntime` packages a compiled instance type with
its host-language bindings: named host functions (the ``⌊H⌉`` blocks),
an application-object factory, and state save/restore providers used by
the ``save``/``restore`` primitives.

Instances are created up front (they are *declared* in the program) but
only participate once started — by ``main``, by another junction's
``start``, or by the embedding application.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType
from typing import Callable

from ..core import ast as A
from ..core.compiler import CompiledJunction
from ..core.errors import CompileError
from ..core.formula import TRUE
from ..core.validate import DeclaredKeys, declared_keys
from ..semantics.commute import Footprint, key_token, node_token
from .kvtable import KVTable, UNDEF


#: Host function signature: receives a HostContext.
HostFn = Callable[["HostContext"], None]  # noqa: F821  (defined in host.py)


@dataclass
class StateProviders:
    """Host-state capture callbacks for ``save``/``restore``.

    ``save(app, instance)`` returns a picklable/serializable object;
    ``restore(app, instance, obj)`` re-installs it.  ``schema`` names
    the serde schema used to serialize the object (``None`` selects the
    generic object codec).
    """

    save: Callable[[object, "InstanceRuntime"], object] | None = None
    restore: Callable[[object, "InstanceRuntime", object], None] | None = None
    schema: str | None = None


class InstanceTypeRuntime:
    """An instance type with its host-language bindings."""

    def __init__(self, name: str, junctions: list[CompiledJunction]):
        self.name = name
        self.junctions = {j.name: j for j in junctions}
        self.host_fns: dict[str, HostFn] = {}
        self.app_factory: Callable[["InstanceRuntime"], object] | None = None
        self.state = StateProviders()
        #: per-data-name state providers (overrides ``state``)
        self.data_state: dict[str, StateProviders] = {}

    def bind_host(self, name: str, fn: HostFn) -> None:
        self.host_fns[name] = fn

    def host(self, name: str) -> Callable:
        """Decorator form: ``@type_rt.host('H1')``."""

        def deco(fn: HostFn) -> HostFn:
            self.bind_host(name, fn)
            return fn

        return deco


class Closure:
    """One junction template closed for one instance under one
    environment: specialised and validated once, then shared by every
    bind of that key while its program lives
    (:meth:`~repro.runtime.system.System._bind_junction`).

    Everything the closure determines is built with it and copied, not
    rebuilt, per bind: the table image of its declarations and, once
    compiled, the loaded guard and body functions (``emitted``)."""

    __slots__ = ("body", "decls", "guard", "image", "emitted")

    def __init__(self, body: A.Expr, decls: tuple[A.Decl, ...], guard):
        self.body = body
        self.decls = decls
        #: the guard formula (``TRUE`` when the junction declares none)
        self.guard = TRUE if guard is None else guard
        #: what the declarations put in a fresh table (:class:`TableImage`)
        self.image = table_image(decls, self.guard)
        #: what the junction compiler emitted and loaded for this
        #: closure (``repro.compile.codegen.Emission``); None until
        #: first compiled
        self.emitted = None


class TableImage:
    """A bound junction's table as its declarations leave it, built
    once per closure and never changed: its declared keys
    (:class:`~repro.core.validate.DeclaredKeys`), their slot keys and
    index, the initial slot values and the keys its guard reads
    (``None``: an impure guard, untracked)."""

    __slots__ = ("declared", "keys", "index", "values", "guard_keys")

    def __init__(self, declared: DeclaredKeys, guard_keys: frozenset[str] | None):
        self.declared = declared
        self.keys = tuple(declared.initial)
        self.index = MappingProxyType({k: i for i, k in enumerate(self.keys)})
        self.values = tuple(UNDEF if v is None else v for v in declared.initial.values())
        self.guard_keys = guard_keys

    def fill(self, table: KVTable) -> None:
        """Lay ``table``, fresh from its constructor, out as the image:
        it shares the immutable keys and index and copies the values."""
        table.keys = self.keys
        table.index = self.index
        table.slots.extend(self.values)
        table.set_guard_tracking(self.guard_keys)


def table_image(decls: tuple[A.Decl, ...], guard) -> TableImage:
    """Lay a closure's :func:`~repro.core.validate.declared_keys` out
    as its :class:`TableImage`."""
    declared = declared_keys(decls)
    # Guard-footprint tracking: a *pure* guard's verdict depends only
    # on the keys it reads, so the table records them — writes to any
    # of them set ``guard_dirty`` and the scheduler skips re-evaluating
    # a clean guard (dirty-driven scheduling).  Impure guards (@ / S()
    # / idx-indexed props) read state the table cannot observe and stay
    # untracked.  Function-level import: ``repro.compile`` pulls in
    # codegen, which this module must not import at load time.
    from ..compile.formulas import guard_keys, is_pure

    return TableImage(declared, guard_keys(guard) if is_pure(guard, declared.idx) else None)


#: the table of a junction restarted before it was ever bound: empty,
#: tracking its (absent) guard
_UNBOUND = TableImage(declared_keys(()), frozenset())


class JunctionRuntime:
    """A junction of a started instance."""

    def __init__(self, instance: "InstanceRuntime", compiled: CompiledJunction):
        self.instance = instance
        self.compiled = compiled
        self.name = compiled.name
        self.node = f"{instance.name}::{compiled.name}"
        self.table = KVTable(owner=self.node)
        self.params: dict[str, object] = {}
        self.ast_params: dict[str, object] = {}
        self.guard = TRUE  # the bound closure's, set at bind time
        self.body: A.Expr | None = None  # specialized body
        self.decls: tuple[A.Decl, ...] = ()
        #: the closure body and decls were bound from (None until bound)
        self.closure: Closure | None = None
        self.status = "idle"  # 'idle' | 'running'
        self.sched_count = 0
        #: reconfiguration quiesce flag: a paused junction buffers
        #: inbound updates (they still apply/ack through the reliable
        #: delivery layer) but schedules no new executions until resumed
        self.paused = False
        #: has this junction ever been driven from outside the
        #: architecture (external_update/external_data/poke)?  The
        #: reconfiguration executor pauses these *inbound* junctions
        #: first so the rest of the pipeline can drain naturally.
        self.external_inbound = False
        #: the bound closure's declared keys, immutable (:class:`TableImage`)
        self.declared = _UNBOUND.declared
        #: compiled guard/body (``repro.compile.JunctionCode``), set at
        #: instance bind time when compilation is enabled; None runs the
        #: tree-walker (``repro.runtime.treewalk``)
        self.code = None
        # hot-path caches: schedule-replay labels/footprints and
        # telemetry handles are per-junction constants — building them
        # per event dominated the interpreter's scheduling overhead
        self._label_pump = f"pump:{self.node}"
        self._label_sleep = f"sleep-wake:{self.node}"
        self._label_deadline = f"deadline:{self.node}"
        self._label_attempt = f"attempt:{self.node}"
        self._fp_node = Footprint.make(writes=[node_token(self.node)])
        self._fp_strand = Footprint.make(writes=[key_token(self.node, "__strand__")])
        self._m_scheds = None
        self._m_exec_seconds = None
        self._m_unscheds: dict[str, object] = {}
        #: cached causeless attempt callback (System._attempt_soon)
        self._attempt_cb = None
        #: a synchronously-completed JunctionExecution parked for reuse
        #: by the next scheduling (object-churn relief: storms schedule
        #: tens of thousands of one-shot executions per junction)
        self._free_exec = None

    def init_state(self) -> None:
        """(Re)initialize the KV table from the bound closure's image.

        The values reset; the msg-id dedup window carries over — it is
        transport state, and a restarted junction must keep suppressing
        retransmissions its previous incarnation already applied (see
        :meth:`KVTable.adopt_dedup`)."""
        prev = self.table
        self.table = KVTable(owner=self.node)
        self.table.adopt_dedup(prev)
        # the parked execution binds the old table; drop it
        self._free_exec = None
        image = _UNBOUND if self.closure is None else self.closure.image
        image.fill(self.table)
        self.declared = image.declared

    def checkpoint(self) -> dict[str, object]:
        return self.table.snapshot()


class InstanceRuntime:
    """A named instance of an instance type."""

    def __init__(self, name: str, type_rt: InstanceTypeRuntime):
        self.name = name
        self.type = type_rt
        self.running = False
        self.crashed = False
        self.app: object | None = None
        self.junctions: dict[str, JunctionRuntime] = {
            jname: JunctionRuntime(self, cj) for jname, cj in type_rt.junctions.items()
        }
        self.start_count = 0

    def junction(self, name: str) -> JunctionRuntime:
        try:
            return self.junctions[name]
        except KeyError:
            raise CompileError(f"instance {self.name!r} has no junction {name!r}") from None

    def sole_junction(self) -> JunctionRuntime:
        if len(self.junctions) == 1:
            return next(iter(self.junctions.values()))
        if "junction" in self.junctions:
            return self.junctions["junction"]
        raise CompileError(
            f"instance {self.name!r} has {len(self.junctions)} junctions; qualify the target"
        )

    def set_paused(self, value: bool) -> None:
        """Pause/resume every junction of this instance (reconfig quiesce)."""
        for jr in self.junctions.values():
            jr.paused = value

    @property
    def alive(self) -> bool:
        return self.running and not self.crashed
