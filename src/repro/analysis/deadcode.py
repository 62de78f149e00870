"""Dead coordination code: unsatisfiable guards, dead case arms,
never-started instances, and key-flow hygiene.

The **key-flow lattice** assigns every proposition key the set of
values it can ever hold: its ``init`` polarity plus every value some
write site can give it (host writes count as both).  Propositions named
by an ``# analyze: external`` directive can additionally be flipped by
the embedding application (``System.external_update``) and evaluate as
UNKNOWN.  Guards and case-arm formulas are then evaluated in Kleene
three-valued logic (:func:`repro.core.formula.evaluate`): *definitely
false* means dead code.

The lattice is closed-world on purpose: a guard that waits on a
proposition nothing ever asserts is dead *unless* the architecture
declares the proposition as an external input — which doubles as
machine-checked documentation of the program's interface.
"""

from __future__ import annotations

from ..core import ast as A
from ..core.elaborate import Binding
from ..core.formula import Formula, UNKNOWN, evaluate, to_dnf
from ..semantics.denote import _atomize
from .directives import Directives, family
from .keyflow import KeyFlow, _formula_keys
from .model import Finding


def _value_lattice(kf: KeyFlow, directives: Directives) -> dict[tuple[str, str], set[str]]:
    possible: dict[tuple[str, str], set[str]] = {}
    for (node, key), init in kf.prop_inits.items():
        possible[(node, key)] = {init}
    for w in kf.writes:
        if w.value == "*" and w.kind != "host":
            continue  # data writes don't touch propositions
        slot = possible.setdefault((w.target, w.key), set())
        if w.kind == "host":
            if (w.target, w.key) in kf.prop_inits:
                slot.update(("tt", "ff"))
        else:
            slot.add(w.value)
    for (node, key), slot in possible.items():
        if directives.is_external(key):
            slot.update(("tt", "ff"))
    return possible


def _env_for(node: str, possible: dict, kf: KeyFlow):
    """A three-valued proposition environment for formulas at ``node``."""

    def env(key: str):
        slot = possible.get((node, key))
        if slot is None:
            # undeclared key: family init (``Work`` for ``Work[w]``) or unknown
            slot = possible.get((node, family(key)))
        if slot == {"tt"}:
            return True
        if slot == {"ff"}:
            return False
        return UNKNOWN

    return env


def dead_code(
    kf: KeyFlow, binding: Binding, directives: Directives
) -> list[Finding]:
    possible = _value_lattice(kf, directives)
    findings: list[Finding] = []

    for bj in binding.junctions:
        env = _env_for(bj.node, possible, kf)
        if bj.guard is not None:
            verdict = _formula_verdict(bj.guard, env)
            if verdict is False:
                reason = _unsat_reason(bj.guard, kf, bj.node, possible)
                suppressed_by = directives.suppression_for("dead", bj.node)
                findings.append(
                    Finding(
                        check="dead",
                        kind="dead-junction",
                        severity="error",
                        node=bj.node,
                        key=str(bj.guard),
                        message=(
                            f"guard of {bj.node} can never hold: {reason}"
                        ),
                        suppressed=suppressed_by is not None,
                        suppressed_by=suppressed_by or "",
                    )
                )
        findings.extend(_dead_case_arms(bj, env, directives))

    findings.extend(_never_started(binding, directives))
    return findings


def _formula_verdict(f: Formula, env):
    """False for definitely-unsatisfiable, else True/UNKNOWN."""
    if not to_dnf(_atomize(f)):
        return False  # contradictory regardless of any valuation
    return evaluate(f, env)


def _unsat_reason(f: Formula, kf: KeyFlow, node: str, possible: dict) -> str:
    if not to_dnf(_atomize(f)):
        return f"{f} is contradictory"
    parts = []
    for key in _formula_keys(f, {}):
        slot = possible.get((node, key))
        if slot is not None and len(slot) == 1:
            writers = [w for w in kf.writers_of(node, key) if w.kind != "echo"]
            how = (
                f"written only as {next(iter(slot))} by "
                + ", ".join(sorted({w.origin for w in writers}))
                if writers
                else f"initialized {next(iter(slot))} and never written "
                "(declare '# analyze: external "
                + family(key)
                + "' if the application asserts it)"
            )
            parts.append(f"{key} is {how}")
    return "; ".join(parts) or f"{f} evaluates to false under the key-flow lattice"


def _dead_case_arms(bj, env, directives: Directives) -> list[Finding]:
    findings: list[Finding] = []
    idx_elems = bj.idx_sets
    for e in A.walk(bj.body):
        if not isinstance(e, A.Case):
            continue
        unreachable_after: str | None = None
        for i, arm in enumerate(e.arms):
            inner = arm.arm if isinstance(arm, A.ForArm) else arm
            label = f"case arm {i + 1} ({inner.formula} => ...)"
            if unreachable_after is not None:
                findings.append(
                    _arm_finding(
                        bj.node,
                        inner,
                        "unreachable-case-arm",
                        f"{label} of {bj.node} is unreachable: "
                        f"{unreachable_after}",
                        directives,
                    )
                )
                continue
            verdict = _arm_verdict(inner.formula, env, idx_elems)
            if verdict is False:
                findings.append(
                    _arm_finding(
                        bj.node,
                        inner,
                        "dead-case-arm",
                        f"{label} of {bj.node} can never be taken "
                        f"({inner.formula} is false under the key-flow lattice)",
                        directives,
                    )
                )
            elif verdict is True and inner.terminator == "break":
                unreachable_after = (
                    f"arm {i + 1} ({inner.formula}) always holds and breaks"
                )
    return findings


def _arm_verdict(f: Formula, env, idx_elems: dict):
    if not to_dnf(_atomize(f)):
        return False
    if _mentions_idx(f, idx_elems):
        return UNKNOWN  # cursor-indexed arms depend on the cursor value
    return evaluate(f, env)


def _mentions_idx(f: Formula, idx_elems: dict) -> bool:
    from ..core.formula import prop_nodes

    for p in prop_nodes(f):
        idx = p.index
        name = idx.name if isinstance(idx, A.Ref) and idx.is_simple else idx
        if isinstance(name, str) and name in idx_elems:
            return True
    return False


def _arm_finding(node, inner, kind, message, directives: Directives) -> Finding:
    suppressed_by = directives.suppression_for("dead", node, str(inner.formula))
    return Finding(
        check="dead",
        kind=kind,
        severity="warning",
        node=node,
        key=str(inner.formula),
        message=message,
        suppressed=suppressed_by is not None,
        suppressed_by=suppressed_by or "",
    )


def _never_started(binding: Binding, directives: Directives) -> list[Finding]:
    if binding.has_dynamic_starts:
        return []  # idx-cursor starts (elastic scale-out): anything may start
    findings = []
    for iname in sorted(binding.program.instance_map()):
        if iname in binding.started:
            continue
        nodes = [bj.node for bj in binding.junctions if bj.instance == iname]
        suppressed_by = directives.suppression_for("dead", iname, *nodes)
        findings.append(
            Finding(
                check="dead",
                kind="never-started-instance",
                severity="warning",
                node=iname,
                key="",
                message=(
                    f"instance {iname!r} is never started by main or any "
                    f"junction; its junction(s) {', '.join(nodes) or '(none)'} "
                    "are unreachable unless the application starts it"
                ),
                suppressed=suppressed_by is not None,
                suppressed_by=suppressed_by or "",
            )
        )
    return findings


# ---------------------------------------------------------------------------
# Key-flow hygiene (advisory)
# ---------------------------------------------------------------------------


def unused_keys(kf: KeyFlow, binding: Binding, directives: Directives) -> list[Finding]:
    findings: list[Finding] = []
    written = {
        (w.target, w.key) for w in kf.writes if w.kind != "echo"
    }
    read = kf.read_keys()
    read_families = {(n, family(k)) for n, k in read}
    host_nodes = {node for node, _, _ in kf.host_blocks}

    for (node, key) in sorted(set(kf.prop_inits) | kf.data_keys):
        is_read = (node, key) in read or (node, family(key)) in read or (
            node,
            key,
        ) in read_families
        is_written = (node, key) in written
        if not is_read and is_written and node not in host_nodes:
            suppressed_by = directives.suppression_for("unused", key, node)
            findings.append(
                Finding(
                    check="unused",
                    kind="write-never-read",
                    severity="info",
                    node=node,
                    key=key,
                    message=(
                        f"{key!r} is written in {node}'s table but nothing "
                        "reads it (no guard, wait, case, verify or data use)"
                    ),
                    suppressed=suppressed_by is not None,
                    suppressed_by=suppressed_by or "",
                )
            )
        if is_read and not is_written and (node, key) in kf.prop_inits:
            if directives.is_external(key):
                continue
            suppressed_by = directives.suppression_for("unused", key, node)
            findings.append(
                Finding(
                    check="unused",
                    kind="read-never-written",
                    severity="info",
                    node=node,
                    key=key,
                    message=(
                        f"{key!r} is read at {node} but no junction or host "
                        "block ever writes it; if the application asserts it, "
                        f"declare '# analyze: external {family(key)}'"
                    ),
                    suppressed=suppressed_by is not None,
                    suppressed_by=suppressed_by or "",
                )
            )
    return findings
