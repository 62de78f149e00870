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
from typing import Callable

from ..core import ast as A
from ..core.compiler import CompiledJunction
from ..core.errors import CompileError
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
        self.guard = None  # Formula | None, set at bind time
        self.body: A.Expr | None = None  # specialized body
        self.decls: tuple[A.Decl, ...] = ()
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
        #: names of declared idx / subset state (host-writable)
        self.idx_names: set[str] = set()
        self.subset_names: set[str] = set()
        self.set_values: dict[str, tuple] = {}
        self.data_names: set[str] = set()
        self.prop_names: set[str] = set()
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
        """(Re)initialize the KV table from the specialized decls.

        The values reset; the msg-id dedup window carries over — it is
        transport state, and a restarted junction must keep suppressing
        retransmissions its previous incarnation already applied (see
        :meth:`KVTable.adopt_dedup`)."""
        prev = self.table
        self.table = KVTable(owner=self.node)
        self.table.adopt_dedup(prev)
        # the parked execution binds the old table; drop it
        self._free_exec = None
        self.idx_names.clear()
        self.subset_names.clear()
        self.set_values.clear()
        self.data_names.clear()
        self.prop_names.clear()
        for d in self.decls:
            if isinstance(d, A.InitProp):
                self.table.declare(d.key(), d.value)
                self.prop_names.add(d.key())
            elif isinstance(d, A.InitData):
                self.table.declare(d.name, UNDEF)
                self.data_names.add(d.name)
            elif isinstance(d, A.IdxDecl):
                self.table.declare(d.name, UNDEF)
                self.idx_names.add(d.name)
                self.set_values[d.name + "!of"] = _set_elements(d.of_set)
            elif isinstance(d, A.SubsetDecl):
                self.table.declare(d.name, UNDEF)
                self.subset_names.add(d.name)
                parents = _set_elements(d.of_set)
                self.set_values[d.name + "!of"] = parents
                # auto-maintained membership propositions, so the DSL
                # can iterate subsets (unrolled over the parent set)
                from ..core.expand import subset_membership_prop

                fam = subset_membership_prop(d.name)
                for elem in parents:
                    key = f"{fam}[{elem}]"
                    self.table.declare(key, False)
                    self.prop_names.add(key)
            elif isinstance(d, A.SetDecl):
                if d.literal is not None:
                    self.set_values[d.name] = _set_elements(d.literal)
            # Guard handled at bind; ForInit expanded by specialize.

        # Guard-footprint tracking: a *pure* guard's verdict depends
        # only on the keys it reads, so record them on the table —
        # writes to any of them set ``guard_dirty`` and the scheduler
        # skips re-evaluating a clean guard (dirty-driven scheduling).
        # Impure guards (@ / S() / idx-indexed props) read state the
        # table cannot observe and stay untracked.  Function-level
        # import: ``repro.compile`` pulls in codegen, which this
        # module must not import at load time.
        from ..compile.formulas import guard_keys, is_pure

        guard = self.guard
        if guard is None or is_pure(guard, self.idx_names):
            self.table.set_guard_tracking(
                guard_keys(guard) if guard is not None else ()
            )
        else:
            self.table.set_guard_tracking(None)

    def checkpoint(self) -> dict[str, object]:
        return self.table.snapshot()


def _set_elements(s: object) -> tuple:
    """Normalize a set literal to runtime elements (strings/floats)."""
    if isinstance(s, A.SetLit):
        out = []
        for item in s.items:
            if isinstance(item, A.Ref):
                out.append(str(item))
            elif isinstance(item, A.Num):
                out.append(item.value)
            else:
                out.append(item)
        return tuple(out)
    if isinstance(s, tuple):
        return s
    raise CompileError(f"set expression {s!r} was not resolved before runtime")


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
