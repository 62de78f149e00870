"""Key-flow extraction: who writes and reads which KV key where.

Walks each bound junction body (flow-insensitively; ordering questions
are the race pass's job) and records :class:`WriteSite` /
:class:`ReadSite` facts with targets and indices resolved the same way
the runtime resolves them:

* an ``assert``/``retract``/``write`` target that is an instance name
  resolves to the instance's sole junction, else the one named
  ``junction`` (:meth:`repro.core.elaborate.Binding.node_of`);
* a target that is an ``idx`` cursor expands to every element of the
  cursor's underlying set;
* a proposition index that is an ``idx`` cursor expands likewise — and
  *jointly* with the target when both go through the same cursor
  (``assert[tgt] Work[tgt]`` touches ``Work[w]`` at ``w``, never
  ``Work[w]`` at ``w'``).

Write kinds mirror the interpreter:

* ``local``  — self-targeted assert/retract and ``save``;
* ``remote`` — the target-table copy of assert/retract/``write``;
* ``echo``   — the sender-table copy of a remote assert/retract.  The
  machine applies it only after the ack and never lets it outlive a
  newer update for the key that arrived in between
  (``JunctionExecution.set_remote``), so echoes are excluded from
  cross-junction race candidates;
* ``host``   — a ``host NAME {writes}`` declared write.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..core import ast as A
from ..core.elaborate import Binding, BoundJunction
from ..core.formula import Formula, Prop, prop_nodes

#: placeholder target when static resolution is impossible
UNRESOLVED = "?"


@dataclass(frozen=True)
class WriteSite:
    origin: str  # node executing the statement
    target: str  # node whose table is written (UNRESOLVED if unknown)
    key: str
    value: str  # "tt" | "ff" | "*"
    kind: str  # "local" | "remote" | "echo" | "host"
    stmt: str

    def describe(self) -> str:
        where = "" if self.target == self.origin else f" -> {self.target}"
        return f"{self.origin}: {self.stmt}{where}"


@dataclass(frozen=True)
class ReadSite:
    node: str
    key: str
    context: str  # "guard" | "wait" | "case" | "verify" | "data"
    detail: str


@dataclass
class KeyFlow:
    """All key-flow facts of a bound program."""

    writes: list[WriteSite] = field(default_factory=list)
    reads: list[ReadSite] = field(default_factory=list)
    #: declared proposition keys and their init polarity, per node
    prop_inits: dict[tuple[str, str], str] = field(default_factory=dict)
    #: declared data names per node
    data_keys: set[tuple[str, str]] = field(default_factory=set)
    #: host blocks: (node, name, declared writes)
    host_blocks: list[tuple[str, str, tuple[str, ...]]] = field(default_factory=list)
    #: statements whose target could not be resolved statically
    unresolved: list[tuple[str, str]] = field(default_factory=list)

    def writers_of(self, target: str, key: str) -> list[WriteSite]:
        return [w for w in self.writes if w.target == target and w.key == key]

    def read_keys(self) -> set[tuple[str, str]]:
        return {(r.node, r.key) for r in self.reads}


def collect_keyflow(binding: Binding) -> KeyFlow:
    kf = KeyFlow()
    for bj in binding.junctions:
        _collect_junction(kf, bj, binding)
    return kf


# ---------------------------------------------------------------------------
# Per-junction extraction
# ---------------------------------------------------------------------------


def _collect_junction(kf: KeyFlow, bj: BoundJunction, binding: Binding) -> None:
    idx_elems = bj.idx_sets

    for d in bj.decls:
        if isinstance(d, A.InitProp):
            kf.prop_inits[(bj.node, d.key())] = "tt" if d.value else "ff"
        elif isinstance(d, A.InitData):
            kf.data_keys.add((bj.node, d.name))

    if bj.guard is not None:
        for key in _formula_keys(bj.guard, idx_elems):
            kf.reads.append(ReadSite(bj.node, key, "guard", str(bj.guard)))

    for e in A.walk(bj.body):
        if isinstance(e, A.Save):
            kf.writes.append(
                WriteSite(bj.node, bj.node, e.name, "*", "local", f"save({e.name})")
            )
        elif isinstance(e, A.Write):
            kf.reads.append(ReadSite(bj.node, e.name, "data", str(e)))
            for tgt in _targets(e.target, bj, binding, kf, str(e)):
                kf.writes.append(
                    WriteSite(bj.node, tgt, e.name, "*", "remote", str(e))
                )
        elif isinstance(e, (A.Assert, A.Retract)):
            val = "tt" if isinstance(e, A.Assert) else "ff"
            for tgt, key in _prop_updates(e, bj, binding, kf, idx_elems):
                if tgt == bj.node:
                    kf.writes.append(
                        WriteSite(bj.node, bj.node, key, val, "local", str(e))
                    )
                else:
                    kf.writes.append(
                        WriteSite(bj.node, tgt, key, val, "remote", str(e))
                    )
                    kf.writes.append(
                        WriteSite(bj.node, bj.node, key, val, "echo", str(e))
                    )
        elif isinstance(e, A.HostBlock):
            kf.host_blocks.append((bj.node, e.name, e.writes))
            for w in e.writes:
                for key in _host_write_keys(w, bj, idx_elems):
                    kf.writes.append(
                        WriteSite(bj.node, bj.node, key, "*", "host", f"host {e.name}")
                    )
        elif isinstance(e, A.Restore):
            kf.reads.append(ReadSite(bj.node, e.name, "data", str(e)))
        elif isinstance(e, A.Wait):
            for k in e.keys:
                kf.reads.append(ReadSite(bj.node, k, "data", str(e)))
            for key in _formula_keys(e.formula, idx_elems):
                kf.reads.append(ReadSite(bj.node, key, "wait", str(e)))
        elif isinstance(e, A.Verify):
            for key in _formula_keys(e.formula, idx_elems):
                kf.reads.append(ReadSite(bj.node, key, "verify", str(e)))
        elif isinstance(e, A.Case):
            for arm in e.arms:
                inner = arm.arm if isinstance(arm, A.ForArm) else arm
                for key in _formula_keys(inner.formula, idx_elems):
                    kf.reads.append(
                        ReadSite(bj.node, key, "case", str(inner.formula))
                    )
        elif isinstance(e, A.Keep):
            for k in e.keys:
                kf.reads.append(ReadSite(bj.node, k, "data", str(e)))


# ---------------------------------------------------------------------------
# Target / index resolution
# ---------------------------------------------------------------------------


def _targets(
    target: object, bj: BoundJunction, binding: Binding, kf: KeyFlow, stmt: str
) -> list[str]:
    """Resolve a communication target to candidate nodes
    (:meth:`~repro.core.elaborate.Binding.targets`, the runtime's rule)."""
    nodes = binding.targets(target, bj)
    if not nodes:
        kf.unresolved.append((bj.node, stmt))
        return [UNRESOLVED]
    return nodes


def _prop_updates(
    e, bj: BoundJunction, binding: Binding, kf: KeyFlow, idx_elems: dict
) -> list[tuple[str, str]]:
    """(target node, key) pairs of an assert/retract, expanding idx
    cursors — jointly when target and index share the cursor."""
    index = e.index
    tgt = e.target
    if (
        isinstance(tgt, A.Ref)
        and tgt.is_simple
        and tgt.name in idx_elems
        and isinstance(index, A.Ref)
        and index.is_simple
        and index.name == tgt.name
    ):
        out = []
        for el in idx_elems[tgt.name]:
            node = binding.node_of(el)
            if node is None:
                kf.unresolved.append((bj.node, str(e)))
                node = UNRESOLVED
            out.append((node, f"{e.prop}[{el}]"))
        if out:
            return out
    keys = _expand_index(e.prop, index, idx_elems)
    return [
        (tgt_node, key)
        for tgt_node in _targets(tgt, bj, binding, kf, str(e))
        for key in keys
    ]


def _expand_index(prop: str, index: object, idx_elems: dict) -> list[str]:
    if index is None:
        return [prop]
    if isinstance(index, A.Ref) and index.is_simple and index.name in idx_elems:
        elems = idx_elems[index.name]
        if elems:
            return [f"{prop}[{el}]" for el in elems]
    return [f"{prop}[{index}]"]


def _host_write_keys(name: str, bj: BoundJunction, idx_elems: dict) -> list[str]:
    """A host write of a family name touches every declared member key
    (``Choose {tgt}`` writes the cursor itself — kept as-is)."""
    member_keys = [
        d.key()
        for d in bj.decls
        if isinstance(d, A.InitProp) and d.index is not None and d.name == name
    ]
    return member_keys or [name]


def _formula_keys(f: Formula, idx_elems: dict) -> list[str]:
    """Concrete proposition keys read by a formula (local scope only;
    ``@``-scoped and ``live`` literals are remote reads)."""
    out: list[str] = []
    for p in _local_prop_nodes(f):
        out.extend(_expand_index(p.name, _as_index(p.index), idx_elems))
    return out


def _as_index(index: object) -> object:
    if isinstance(index, str):
        return A.Ref((index,))
    return index


def _local_prop_nodes(f: Formula):
    from ..core.formula import And, At, Implies, Live, Not, Or

    if isinstance(f, Prop):
        yield f
    elif isinstance(f, (At, Live)):
        return
    elif isinstance(f, Not):
        yield from _local_prop_nodes(f.operand)
    elif isinstance(f, (And, Or, Implies)):
        yield from _local_prop_nodes(f.left)
        yield from _local_prop_nodes(f.right)


__all__ = [
    "KeyFlow",
    "ReadSite",
    "UNRESOLVED",
    "WriteSite",
    "collect_keyflow",
    "prop_nodes",
]
