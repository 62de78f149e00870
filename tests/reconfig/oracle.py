"""The differ's round-trip oracle: a diff is a complete patch.

:func:`apply_diff` rebuilds the target program from the old one and
``diff_programs(old, new)`` alone, and :func:`program_signature` says
when two programs are the same architecture, so
``program_signature(apply_diff(a, diff_programs(a, b))) ==
program_signature(b)`` checks that the diff left nothing out.  The
runtime never patches a program — a reconfiguration runs the target as
compiled — so both live here, beside the tests that use them.
"""

from repro.core import ast as A
from repro.core.compiler import CompiledProgram
from repro.reconfig.diff import ArchDiff


def apply_diff(old: CompiledProgram, diff: ArchDiff) -> CompiledProgram:
    """Patch ``old`` with ``diff``, reconstructing the target program.

    The reconstructed :class:`~repro.core.ast.Program` lists one
    :class:`~repro.core.ast.JunctionDef` per compiled junction
    (functions are already inlined), so it revalidates and recompiles
    cleanly.
    """
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
        main=None if main is None else A.MainDef(params=main.params, body=main.body),
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
    )


def program_signature(p: CompiledProgram):
    """A normalized, order-insensitive identity of an architecture.

    Two programs with equal signatures bind the same instances to the
    same junction templates under the same ``main`` and config — the
    equivalence :func:`apply_diff` round-trips under.
    """
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
