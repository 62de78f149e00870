"""The host-language interface of junctions.

A DSL ``host Name {w1, w2}`` block invokes the Python callable bound as
``Name`` on the junction's instance type, passing a :class:`HostContext`.
Host code may *read* arbitrary junction state but may only *write* the
symbols the block declares — exactly the contract of the paper's
``⌊H⌉{V}`` notation.

On every engine a host block runs synchronously inside its strand, on
the runtime thread, so host code must not block: it models computation
cost with :meth:`HostContext.take`, which advances logical time after
the block returns.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..core.errors import HostError
from .kvtable import UNDEF

if TYPE_CHECKING:  # pragma: no cover
    from .instance import JunctionRuntime
    from .system import System


class HostContext:
    """What a host block sees of its junction."""

    def __init__(
        self,
        system: "System",
        junction: "JunctionRuntime",
        writes: tuple[str, ...],
    ):
        self._system = system
        self._junction = junction
        self._writes = frozenset(writes)
        self._elapsed = 0.0

    # -- identity ----------------------------------------------------------

    @property
    def instance(self) -> str:
        return self._junction.instance.name

    @property
    def junction(self) -> str:
        return self._junction.name

    @property
    def app(self):
        """The application object created by the instance type's
        ``app_factory`` when the instance started."""
        return self._junction.instance.app

    @property
    def now(self) -> float:
        return self._system.clock.now

    @property
    def params(self) -> dict:
        """Junction parameters as runtime values (read-only copy)."""
        return dict(self._junction.params)

    # -- junction state -----------------------------------------------------

    def get(self, key: str, default=None):
        table = self._junction.table
        if table.has(key):
            v = table.values[key]
            return default if v is UNDEF else v
        if key in self._junction.params:
            return self._junction.params[key]
        return default

    def __getitem__(self, key: str):
        v = self.get(key, default=_MISSING)
        if v is _MISSING:
            raise KeyError(f"no junction state or parameter {key!r}")
        return v

    def set(self, key: str, value) -> None:
        """Write junction state declared writable by the host block.

        Undeclared writes violate the block's ``⌊H⌉{V}`` contract.
        Under the system's default ``host_contract="strict"`` they
        raise; under ``"warn"`` the write goes through, but a
        ``host_contract_violation`` telemetry event and counter record
        it (the write still must name *known* junction state).
        """
        if key not in self._writes:
            if self._system.host_contract != "warn":
                raise HostError(
                    f"host block may not write {key!r}; declared writes are "
                    f"{sorted(self._writes)}"
                )
            self._warn_contract(key)
        jr = self._junction
        if key in jr.idx_names:
            self._set_idx(key, value)
            return
        if key in jr.subset_names:
            self._set_subset(key, value)
            return
        if key in jr.prop_names:
            if not isinstance(value, bool):
                raise HostError(f"proposition {key!r} requires a bool, got {type(value).__name__}")
            jr.table.set_local(key, value)
            return
        if key in jr.data_names:
            jr.table.set_local(key, value)
            return
        raise HostError(f"host block writes unknown junction state {key!r}")

    def _warn_contract(self, key: str) -> None:
        jr = self._junction
        node = f"{jr.instance.name}::{jr.name}"
        tele = self._system.telemetry
        tele.emit(
            "host_contract_violation",
            node,
            key=key,
            declared=sorted(self._writes),
        )
        tele.counter("host_contract_violations", node=node, key=key).inc()

    def _set_idx(self, key: str, value) -> None:
        """Indices must take values from their underlying set — the
        paper's contract with the host language."""
        elems = self._junction.set_values.get(key + "!of", ())
        if isinstance(value, int) and not isinstance(value, bool) and value not in elems:
            # allow positional choice
            if 0 <= value < len(elems):
                self._junction.table.set_local(key, elems[value])
                return
        if value in elems:
            self._junction.table.set_local(key, value)
            return
        raise HostError(f"idx {key!r} must be a member (or position) of {elems}, got {value!r}")

    def _set_subset(self, key: str, value) -> None:
        elems = self._junction.set_values.get(key + "!of", ())
        try:
            chosen = tuple(value)
        except TypeError:
            raise HostError(f"subset {key!r} requires an iterable of set members") from None
        for v in chosen:
            if v not in elems:
                raise HostError(f"subset {key!r}: {v!r} is not a member of {elems}")
        table = self._junction.table
        table.set_local(key, chosen)
        # maintain the membership propositions the DSL iterates over
        from ..core.expand import subset_membership_prop

        fam = subset_membership_prop(key)
        for elem in elems:
            table.set_local(f"{fam}[{elem}]", elem in chosen)

    # -- cost modelling ----------------------------------------------------------

    def take(self, dt: float) -> None:
        """Consume ``dt`` units of simulated service time."""
        if dt < 0:
            raise HostError("take() requires a non-negative duration")
        self._elapsed += dt

    @property
    def elapsed(self) -> float:
        return self._elapsed

    # -- escape hatch ------------------------------------------------------------

    @property
    def system(self) -> "System":
        """The running system (for substrate integration such as
        emitting metrics or scheduling external work)."""
        return self._system


_MISSING = object()
