"""Architecture differ: two compiled programs → a typed :class:`ArchDiff`.

The diff is computed over :class:`~repro.core.compiler.CompiledProgram`
(i.e. *after* function inlining), so two sources that inline to the same
junction templates are considered equal — exactly the equivalence the
runtime observes.  The diff carries the *new* definitions for everything
that changed, which makes it an applicable patch: ``apply_diff(a,
diff_programs(a, b))`` reconstructs a program equivalent to ``b``
(:func:`program_signature` defines the equivalence; instance/junction
order is normalized away).

Categories mirror what the reconfiguration planner needs:

* instances added / removed (a retyped instance appears in both lists —
  at runtime it is stopped and started fresh, there is no state to carry
  across a type change),
* instance types added / removed,
* the indexed instance families, when their declarations differ — a
  reshard of one source is this one argument (``~ family Bck[5]: Back``)
  beside the instances and the set-naming templates it implies,
* junction templates added / changed / removed (templates of newly
  added types ride along, making the diff an applicable patch),
* a changed ``main`` start-up expression (new parameter defaults, new
  ``start`` arguments),
* load-time config keys set / removed (shard sets, timeouts).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core import ast as A
from ..core.compiler import CompiledJunction, CompiledProgram

__all__ = ["ArchDiff", "apply_diff", "diff_programs", "program_signature"]


@dataclass(frozen=True)
class ArchDiff:
    """A typed, applicable difference between two architectures."""

    #: ``(name, type_name)`` pairs present only in the new program
    instances_added: tuple[tuple[str, str], ...] = ()
    #: ``(name, type_name)`` pairs present only in the old program
    instances_removed: tuple[tuple[str, str], ...] = ()
    #: instance-type names present only in the new program
    types_added: tuple[str, ...] = ()
    #: instance-type names present only in the old program
    types_removed: tuple[str, ...] = ()
    #: the new program's ``(name, size, type)`` family declarations when
    #: they differ from the old one's (``()``: none are left)
    families: tuple[tuple[str, int, str], ...] | None = None
    #: new templates for junctions that are new or changed — including
    #: the junctions of newly added types, so the diff alone suffices
    #: to reconstruct the target program
    junctions_changed: tuple[CompiledJunction, ...] = ()
    #: ``(type_name, junction_name)`` of junctions dropped from kept types
    junctions_removed: tuple[tuple[str, str], ...] = ()
    #: the new ``main`` when it changed (``None`` + ``main_changed`` for
    #: a main that was removed outright)
    new_main: A.MainDef | None = None
    main_changed: bool = False
    #: ``(key, new_value)`` for config keys added or changed
    config_set: tuple[tuple[str, object], ...] = ()
    #: config keys dropped
    config_removed: tuple[str, ...] = ()

    @property
    def is_empty(self) -> bool:
        return not (
            self.instances_added
            or self.instances_removed
            or self.types_added
            or self.types_removed
            or self.families is not None
            or self.junctions_changed
            or self.junctions_removed
            or self.main_changed
            or self.config_set
            or self.config_removed
        )

    def summary(self) -> str:
        if self.is_empty:
            return "architectures are equivalent (empty diff)"
        lines = []
        for name, tname in self.instances_added:
            lines.append(f"+ instance {name}: {tname}")
        for name, tname in self.instances_removed:
            lines.append(f"- instance {name}: {tname}")
        for tname in self.types_added:
            lines.append(f"+ type {tname}")
        for tname in self.types_removed:
            lines.append(f"- type {tname}")
        for name, size, tname in self.families or ():
            lines.append(f"~ family {name}[{size}]: {tname}")
        if self.families == ():
            lines.append("- families")
        for cj in self.junctions_changed:
            lines.append(f"~ junction {cj.qualified}")
        for tname, jname in self.junctions_removed:
            lines.append(f"- junction {tname}::{jname}")
        if self.main_changed:
            lines.append("~ main" if self.new_main is not None else "- main")
        for key, value in self.config_set:
            lines.append(f"~ config {key} = {value!r}")
        for key in self.config_removed:
            lines.append(f"- config {key}")
        return "\n".join(lines)


def _as_compiled(p: CompiledProgram) -> CompiledProgram:
    if not isinstance(p, CompiledProgram):
        raise TypeError(f"expected a CompiledProgram, got {type(p).__name__}")
    return p


def diff_programs(old: CompiledProgram, new: CompiledProgram) -> ArchDiff:
    """Diff two compiled architectures (old → new)."""
    old = _as_compiled(old)
    new = _as_compiled(new)
    old_imap = old.instance_map()
    new_imap = new.instance_map()

    added = []
    removed = []
    for name in sorted(new_imap):
        if name not in old_imap:
            added.append((name, new_imap[name]))
        elif new_imap[name] != old_imap[name]:  # retyped: remove + add
            removed.append((name, old_imap[name]))
            added.append((name, new_imap[name]))
    for name in sorted(old_imap):
        if name not in new_imap:
            removed.append((name, old_imap[name]))

    old_types = set(old.source.instance_types)
    new_types = set(new.source.instance_types)
    types_added = tuple(sorted(new_types - old_types))
    types_removed = tuple(sorted(old_types - new_types))

    old_j = {(j.type_name, j.name): j for j in old.junctions}
    new_j = {(j.type_name, j.name): j for j in new.junctions}
    junctions_changed = []
    junctions_removed = []
    for key in sorted(new_j):
        prev = old_j.get(key)
        cur = new_j[key]
        if prev is None or (prev.params, prev.decls, prev.body) != (
            cur.params,
            cur.decls,
            cur.body,
        ):
            junctions_changed.append(cur)
    for key in sorted(old_j):
        tname, jname = key
        if tname in types_removed:
            continue  # implied by the type removal
        if key not in new_j:
            junctions_removed.append((tname, jname))

    main_changed = old.main != new.main
    config_set = []
    config_removed = []
    for key in sorted(new.config):
        if key not in old.config or old.config[key] != new.config[key]:
            config_set.append((key, new.config[key]))
    for key in sorted(old.config):
        if key not in new.config:
            config_removed.append(key)

    families = tuple(sorted(new.source.families))
    return ArchDiff(
        instances_added=tuple(sorted(added)),
        instances_removed=tuple(sorted(removed)),
        types_added=types_added,
        types_removed=types_removed,
        families=None if families == tuple(sorted(old.source.families)) else families,
        junctions_changed=tuple(junctions_changed),
        junctions_removed=tuple(junctions_removed),
        new_main=new.main if main_changed else None,
        main_changed=main_changed,
        config_set=tuple(config_set),
        config_removed=tuple(config_removed),
    )


def apply_diff(old: CompiledProgram, diff: ArchDiff) -> CompiledProgram:
    """Patch ``old`` with ``diff``, reconstructing the target program.

    The result is equivalent to the program the diff was computed
    against: ``program_signature(apply_diff(a, diff_programs(a, b))) ==
    program_signature(b)``.  The reconstructed :class:`~repro.core.ast.
    Program` lists one :class:`~repro.core.ast.JunctionDef` per compiled
    junction (functions are already inlined), so it revalidates and
    recompiles cleanly.
    """
    old = _as_compiled(old)
    removed_names = {name for name, _ in diff.instances_removed}
    instances = [
        (name, tname)
        for name, tname in old.source.instances
        if name not in removed_names
    ]
    instances += [pair for pair in diff.instances_added]
    # a family's members are declared by ``families``, not one by one
    families = old.source.families if diff.families is None else diff.families
    members = {m for name, size, _ in families for m in A.family_members(name, size)}
    instances = sorted(pair for pair in instances if pair[0] not in members)

    types = [t for t in old.source.instance_types if t not in diff.types_removed]
    types += [t for t in diff.types_added if t not in types]

    overridden = {(j.type_name, j.name) for j in diff.junctions_changed}
    dropped = set(diff.junctions_removed)
    junctions = [
        j
        for j in old.junctions
        if j.type_name not in diff.types_removed
        and (j.type_name, j.name) not in overridden
        and (j.type_name, j.name) not in dropped
    ]
    junctions += list(diff.junctions_changed)
    junctions.sort(key=lambda j: (j.type_name, j.name))

    main = diff.new_main if diff.main_changed else old.main

    config = {k: v for k, v in old.config.items() if k not in diff.config_removed}
    for key, value in diff.config_set:
        config[key] = value

    source = A.Program(
        instance_types=tuple(types),
        instances=tuple(instances),
        main=main,
        defs=tuple(
            A.JunctionDef(
                type_name=j.type_name,
                junction=j.name,
                params=j.params,
                decls=j.decls,
                body=j.body,
            )
            for j in junctions
        ),
        functions=(),
        families=families,
    )
    return CompiledProgram(
        source=source,
        junctions=tuple(junctions),
        main=main,
        config=config,
        source_text=None,
    )


def program_signature(p: CompiledProgram):
    """A normalized, order-insensitive identity of an architecture.

    Two programs with equal signatures bind the same instances to the
    same junction templates under the same ``main`` and config — the
    equivalence :func:`apply_diff` round-trips under.
    """
    p = _as_compiled(p)
    return (
        frozenset(p.source.instance_types),
        tuple(sorted(p.instance_map().items())),
        tuple(sorted(p.source.families)),
        tuple(
            sorted(
                (j.type_name, j.name, j.params, j.decls, j.body)
                for j in p.junctions
            )
        ),
        p.main,
        tuple(sorted(p.config.items())),
    )
