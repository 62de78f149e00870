"""Write-write race detection over KV keys.

Two complementary passes:

* **Cross-junction** (key-flow based): two different junctions with
  write sites for the same key in the same table, where no ordering
  exists between the junctions' executions.  Filtered down to pairs
  the runtime does not already serialize:

  - ``local`` and ``host`` sites are excluded: a junction's own table
    is written only while the junction executes, and remote updates
    arriving mid-run are queued and applied after the run — the
    owner's run loop serializes them (the consume/reset handshake
    ``guard Req`` … ``retract[] Req`` relies on exactly this);
  - ``echo`` sites are excluded — the interpreter's ack/recv-seq guard
    (``JunctionExecution.set_remote``) never lets a sender-side copy
    outlive a newer update;
  - equal constant values (tt/tt, ff/ff) commute and are excluded.

  What remains is two *remote* writers racing on network arrival
  order.  Pairs from the *same type-level junction* on different
  instances (replica responses — every warm back-end writing ``m`` to
  the front-end) are reported as warnings; distinct writers are
  errors.

* **Intra-junction** (event-structure based): within one junction's
  denotation, two ``Wr`` events for the same key in the same table
  that are concurrent (no causal order, no conflict) — parallel arms
  of ``+`` / ``<| |>`` racing on one key.  The witness is a linear
  extension of the union of the two events' histories.  We denote with
  ``expand=False``: the unexpanded structure is linear in the body
  size (wait expansion is exponential) and keeps the body's own
  enablement order, which is exactly what concurrency of the
  junction's writes depends on.
"""

from __future__ import annotations

from itertools import combinations

from ..core.elaborate import Binding
from ..semantics.denote import Denoter
from ..semantics.events import Wr
from .directives import Directives
from .keyflow import UNRESOLVED, KeyFlow, WriteSite
from .model import Finding

#: safety net: junctions whose (unexpanded) denotation still exceeds
#: this are skipped with an info finding — the key-flow cross-junction
#: pass still covers them.
MAX_EVENTS = 2000


def cross_junction_races(
    kf: KeyFlow, binding: Binding, directives: Directives
) -> list[Finding]:
    by_key: dict[tuple[str, str], list[WriteSite]] = {}
    for w in kf.writes:
        if w.kind != "remote" or w.target == UNRESOLVED:
            continue
        by_key.setdefault((w.target, w.key), []).append(w)

    origin_type = {bj.node: f"{bj.type_name}::{bj.junction}" for bj in binding.junctions}

    findings: list[Finding] = []
    for (target, key), sites in sorted(by_key.items()):
        suppressed_by = directives.suppression_for("race", key, target)

        # replica groups: instances of one type-level junction all
        # writing the same key — one collapsed warning per group
        by_type: dict[str, list[WriteSite]] = {}
        for s in sites:
            by_type.setdefault(origin_type.get(s.origin, s.origin), []).append(s)
        for _, group in sorted(by_type.items()):
            origins = sorted({s.origin for s in group})
            if len(origins) < 2:
                continue
            pairs = [
                (a, b)
                for a, b in combinations(group, 2)
                if a.origin != b.origin and _conflicting(a.value, b.value)
            ]
            if not pairs:
                continue
            a, b = pairs[0]
            findings.append(
                Finding(
                    check="race",
                    kind="replica-write-race",
                    severity="warning",
                    node=target,
                    key=key,
                    message=(
                        f"{', '.join(origins)} all write {key!r} in {target}'s "
                        f"table with no ordering between them (symmetric "
                        f"replicas of one junction — last reply wins)"
                    ),
                    sites=tuple(dict.fromkeys(s.describe() for s in group)),
                    witness=_cross_witness(a, b, target, key),
                    suppressed=suppressed_by is not None,
                    suppressed_by=suppressed_by or "",
                )
            )

        # distinct writers: pairwise errors
        reported: set[tuple[str, str]] = set()
        for a, b in combinations(sites, 2):
            if a.origin == b.origin:
                continue  # same junction: ordering is the intra pass's job
            if origin_type.get(a.origin, a.origin) == origin_type.get(b.origin, b.origin):
                continue  # replicas, collapsed above
            if not _conflicting(a.value, b.value):
                continue
            pair_id = tuple(sorted((a.origin, b.origin)))
            if pair_id in reported:
                continue
            reported.add(pair_id)
            findings.append(
                Finding(
                    check="race",
                    kind="write-write-race",
                    severity="error",
                    node=target,
                    key=key,
                    message=(
                        f"{a.origin} and {b.origin} both write {key!r} in "
                        f"{target}'s table with no ordering between them"
                    ),
                    sites=(a.describe(), b.describe()),
                    witness=_cross_witness(a, b, target, key),
                    suppressed=suppressed_by is not None,
                    suppressed_by=suppressed_by or "",
                )
            )
    return findings


def _conflicting(v1: str, v2: str) -> bool:
    """tt/tt and ff/ff commute; data (*) and opposite polarities don't."""
    return v1 != v2 or v1 == "*"


def _cross_witness(a: WriteSite, b: WriteSite, target: str, key: str) -> tuple[str, ...]:
    return (
        f"Sched_{a.origin}",
        f"{a.origin} executes: {a.stmt}",
        f"Sched_{b.origin} (no order with {a.origin}'s run)",
        f"{b.origin} executes: {b.stmt}",
        f"both updates land in {target}'s table for {key!r}; the final "
        f"value depends on arrival order",
    )


# ---------------------------------------------------------------------------
# Intra-junction concurrency (event structures)
# ---------------------------------------------------------------------------


def intra_junction_races(
    binding: Binding, directives: Directives, *, max_unfold: int = 1
) -> list[Finding]:
    findings: list[Finding] = []
    for bj in binding.junctions:
        den = Denoter(bj.node, max_unfold=max_unfold)
        try:
            # unexpanded: linear in body size, and no duplicated
            # downstream copies to produce spurious concurrent pairs
            es = den.denote_junction(bj.body, bj.guard, expand=False)
        except Exception:
            continue  # denotation limits (unexpanded templates etc.)
        if es.size() > MAX_EVENTS:
            findings.append(_skipped(bj.node, f"{es.size()} events"))
            continue
        events = {e.id: e for e in es.events}

        # isolated (outward=False) events are alternative copies from the
        # otherwise/transaction rules; sequential composition does not
        # order them, so they would pair up spuriously — skip them.
        wrs = [e for e in es.events if isinstance(e.label, Wr) and e.outward]
        seen: set[tuple[str, str, str, str]] = set()
        for a, b in combinations(sorted(wrs, key=lambda e: e.id), 2):
            la, lb = a.label, b.label
            if la.key != lb.key:
                continue
            tables = la.junctions & lb.junctions
            if not tables:
                continue
            if not _conflicting(_val(la.value), _val(lb.value)):
                continue
            if str(la) == str(lb):
                continue  # copies of one statement (otherwise duplication)
            if not es.concurrent(a.id, b.id):
                continue
            table = sorted(tables)[0]
            sig = (bj.node, la.key, str(la), str(lb))
            if sig in seen or (bj.node, la.key, str(lb), str(la)) in seen:
                continue
            seen.add(sig)
            suppressed_by = directives.suppression_for("race", la.key, bj.node)
            findings.append(
                Finding(
                    check="race",
                    kind="concurrent-write-race",
                    severity="error",
                    node=bj.node,
                    key=la.key,
                    message=(
                        f"parallel branches of {bj.node} write {la.key!r} in "
                        f"{table}'s table concurrently ({la} vs {lb})"
                    ),
                    sites=(f"{bj.node}: {la}", f"{bj.node}: {lb}"),
                    witness=_linear_extension(es, events, a.id, b.id),
                    suppressed=suppressed_by is not None,
                    suppressed_by=suppressed_by or "",
                )
            )
    return findings


def _skipped(node: str, why: str) -> Finding:
    return Finding(
        check="race",
        kind="intra-race-skipped",
        severity="info",
        node=node,
        key="",
        message=(
            f"intra-junction concurrency pass skipped for {node} "
            f"({why} — denotation too large); cross-junction checks still apply"
        ),
    )


def _val(v) -> str:
    if v is True:
        return "tt"
    if v is False:
        return "ff"
    return "*"


def _linear_extension(es, events: dict, a: int, b: int) -> tuple[str, ...]:
    """A schedule reaching both events: topological order of the union
    of their histories, racing writes last."""
    ids = (es.history(a) | es.history(b)) - {a, b}
    order = sorted(ids, key=lambda i: (len(es.history(i)), i))
    steps = [str(events[i]) for i in order]
    steps.append(str(events[a]))
    steps.append(f"{events[b]}   <- races the previous write")
    return tuple(steps)
