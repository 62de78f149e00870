"""Static host write-contract and communication-contract checks.

``host NAME {writes}`` is the paper's ``⌊H⌉{V}`` — host code may read
anything but write only the declared symbols.  The runtime enforces the
contract per call (:class:`repro.runtime.host.HostContext`, strict or
warn mode); this pass checks it before any run, for *every* junction of
*every* instance, including ones a given deployment never starts:

* a host block declaring a write to state its junction never declared
  (the static face of the runtime ``HostError``);
* a remote write (assert/retract/``write``) of a key outside the
  *target's* :func:`~repro.core.validate.declared_keys` (a family
  member outside the family's set included) — the static half of the
  table boundary, which refuses the update.  Key flow expands an
  idx-indexed key over the cursor's set, so it passes only if that
  set lies inside the family.
"""

from __future__ import annotations

from ..core.elaborate import Binding
from ..core.validate import declared_keys, family_note
from .directives import Directives
from .keyflow import UNRESOLVED, KeyFlow
from .model import Finding


def contract_findings(
    kf: KeyFlow, binding: Binding, directives: Directives
) -> list[Finding]:
    findings: list[Finding] = []
    declared = {bj.node: declared_keys(bj.decls) for bj in binding.junctions}

    for bj in binding.junctions:
        keys = declared[bj.node]
        writable = keys.initial.keys() | keys.families.keys()
        for node, name, writes in kf.host_blocks:
            if node != bj.node:
                continue
            for w in writes:
                if w in writable:
                    continue
                suppressed_by = directives.suppression_for("contract", w, bj.node)
                findings.append(
                    Finding(
                        check="contract",
                        kind="host-undeclared-state",
                        severity="error",
                        node=bj.node,
                        key=w,
                        message=(
                            f"host block {name!r} at {bj.node} declares a "
                            f"write to {w!r}, which the junction never "
                            "declares (no init prop/data, subset or idx)"
                        ),
                        sites=(f"{bj.node}: host {name} {{{w}}}",),
                        suppressed=suppressed_by is not None,
                        suppressed_by=suppressed_by or "",
                    )
                )

    seen: set[tuple[str, str, str]] = set()
    for w in kf.writes:
        if w.kind != "remote" or w.target == UNRESOLVED:
            continue
        keys = declared.get(w.target)
        if keys is None:
            continue  # unbound target junction: not statically checkable
        if w.key in keys.initial:
            continue
        sig = (w.origin, w.target, w.key)
        if sig in seen:
            continue
        seen.add(sig)
        suppressed_by = directives.suppression_for("contract", w.key, w.target)
        findings.append(
            Finding(
                check="contract",
                kind="undeclared-remote-key",
                severity="error",
                node=w.target,
                key=w.key,
                message=(
                    f"{w.origin} writes {w.key!r} into {w.target}'s table, "
                    f"but {w.target} never declares it"
                    f"{family_note(w.key, keys)} — the table refuses the update"
                ),
                sites=(w.describe(),),
                suppressed=suppressed_by is not None,
                suppressed_by=suppressed_by or "",
            )
        )
    return findings
