"""The denotational mapping ``[[·]]^η_J`` into event structures.

Implements Figs. 19 and 20 plus the supporting machinery of sec. 8:

* the ``η`` environment giving semantics to control-flow statements
  (``sub``, ``return``, ``break``, ``next``, ``reconsider``);
* the ``case`` decomposition ``case(i)`` with ``N``-style arm removal;
* formula denotation via DNF: each clause becomes a ``Synch``-prefixed
  parallel group of ``Rd`` events, clauses mutually conflicting;
* ``wait`` placeholders (``Wait_J``) expanded by a post-processing pass
  that stages "first satisfy ``F``, then read ``n⃗``" and duplicates the
  downstream structure per DNF alternative (the diagrams at the end of
  sec. 8.5);
* bounded unfolding for the infinitary parts (``retry`` re-denotes the
  junction, ``reconsider`` re-denotes the containing case); beyond the
  budget an ``AdHoc`` bound marker event is produced, matching the
  paper's remark that the implementation only needs a weaker, curtailed
  semantics.

Assert/retract denote *two* write events (sender and target tables) per
the formal rule; the paper's figures sometimes merge them into a single
``Wr_{J,γ}`` — rendering merges them back for display.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from ..core import ast as A
from ..core.errors import CSawError
from ..core.formula import FalseF, Formula, Not, to_dnf
from .events import (
    AdHoc,
    Event,
    Rd,
    Sched,
    StartL,
    StopL,
    Synch,
    Unsched,
    WaitL,
    Wr,
    fresh_event,
    STAR,
    TT,
    FF,
)
from .structure import EventStructure, reachable

ES = EventStructure


@dataclass(frozen=True)
class _Terminator(A.Expr):
    """Internal marker so case terminators flow through ``η``."""

    kind: str


def _terminator_expr(term: str) -> A.Expr:
    if term in ("break", "next", "reconsider"):
        return _Terminator(term)
    raise CSawError(f"unknown terminator {term!r}")


@dataclass
class Denoter:
    """Denotes junction bodies for junction ``j`` (an instance::junction
    or type::junction name — the semantics only needs a label)."""

    junction: str
    max_unfold: int = 1

    def __post_init__(self):
        self._unfold_budget: dict[str, int] = {}

    # ------------------------------------------------------------------
    # Formulas
    # ------------------------------------------------------------------

    def denote_formula(self, f: Formula) -> ES:
        """DNF decomposition: per clause a Synch-prefixed parallel group
        of Rd events; clauses are strict alternatives (mutual conflict
        between their Synch roots).

        Junction-scoped (``@``) and liveness (``live``) sub-formulas are
        treated as opaque literals — their read events carry the whole
        sub-formula as the key."""
        dnf = to_dnf(_atomize(f))
        if not dnf:  # false: no way to proceed
            return ES.of_events([fresh_event(AdHoc("false", self.junction))])
        groups: list[ES] = []
        synchs: list[Event] = []
        for clause in sorted(dnf, key=lambda c: sorted(c)):
            sy = fresh_event(Synch(self.junction, tuple(sorted(k for k, _ in clause))))
            synchs.append(sy)
            rds = [fresh_event(Rd(self.junction, key, TT if pol else FF)) for key, pol in sorted(clause)]
            le = frozenset((sy.id, r.id) for r in rds)
            groups.append(ES(frozenset([sy, *rds]), le, frozenset()))
        out = ES.empty()
        for g in groups:
            out = out.union(g)
        conf = set(out.conflict)
        for i in range(len(synchs)):
            for j in range(i + 1, len(synchs)):
                conf.add(frozenset((synchs[i].id, synchs[j].id)))
        return ES(out.events, out.le, frozenset(conf))

    # ------------------------------------------------------------------
    # Expressions
    # ------------------------------------------------------------------

    def denote(self, e: A.Expr, eta: Mapping[str, object] | None = None) -> ES:
        """``[[e]]^η`` for junction ``self.junction``."""
        eta = dict(eta or {})
        for k in ("sub", "return", "break", "next", "reconsider", "retry_body"):
            eta.setdefault(k, A.Skip())
        return self._den(e, eta)

    def _den(self, e: A.Expr, eta: dict) -> ES:
        J = self.junction

        if isinstance(e, _Terminator):
            return self._control(eta, e.kind)
        if isinstance(e, A.Skip) or isinstance(e, A.Restore):
            return ES.empty()
        if isinstance(e, A.Keep):
            return ES.of_events([fresh_event(AdHoc(f"keep({','.join(e.keys)})", J))])
        if isinstance(e, A.HostBlock):
            if not e.writes:
                # the formal rule gives ∅ for ⌊H⌉ without writes, but the
                # paper's figures render abstracted behaviour (complain,
                # H2, ...) as ad hoc labels (sec. 8.2) — keep it visible
                return ES.of_events([fresh_event(AdHoc(e.name, J))])
            evs = [fresh_event(Wr(frozenset([J]), v, STAR)) for v in e.writes]
            return ES.of_events(evs)
        if isinstance(e, A.Save):
            return ES.of_events([fresh_event(Wr(frozenset([J]), e.name, STAR))])
        if isinstance(e, A.Write):
            return ES.of_events([fresh_event(Wr(frozenset([_target_name(e.target)]), e.name, STAR))])
        if isinstance(e, A.Assert) or isinstance(e, A.Retract):
            val = TT if isinstance(e, A.Assert) else FF
            key = e.key()
            if isinstance(e.target, A.SelfTarget):
                return ES.of_events([fresh_event(Wr(frozenset([J]), key, val))])
            return ES.of_events(
                [
                    fresh_event(Wr(frozenset([J]), key, val)),
                    fresh_event(Wr(frozenset([_target_name(e.target)]), key, val)),
                ]
            )
        if isinstance(e, A.Wait):
            return ES.of_events([fresh_event(WaitL(J, tuple(e.keys), str(e.formula)))])
        if isinstance(e, A.Verify):
            return ES.of_events([fresh_event(AdHoc(f"verify({e.formula})", J))])
        if isinstance(e, A.Start):
            return ES.of_events([fresh_event(StartL(J, str(e.instance)))])
        if isinstance(e, A.Stop):
            return ES.of_events([fresh_event(StopL(J, str(e.instance)))])
        if isinstance(e, A.Return):
            return self._control(eta, "return")
        if isinstance(e, A.Retry):
            return self._retry(eta)
        if isinstance(e, A.FateBlock):
            inner = dict(eta)
            inner["return"] = eta["sub"]
            return self._den(e.body, inner)
        if isinstance(e, A.Transaction):
            body = self._den(e.body, {**eta, "return": eta["sub"]}).isolate()
            sy = fresh_event(Synch(J))
            le = frozenset((sy.id, le_.id) for le_ in body.leftmost())
            return ES(body.events | {sy}, body.le | le, body.conflict)
        if isinstance(e, A.Seq):
            return self._seq(list(e.items), eta)
        if isinstance(e, A.Par):
            out = ES.empty()
            for item in e.items:
                out = out.union(self._den(item, eta))
            return out
        if isinstance(e, A.RepPar):
            items = list(e.items)
            out = self._den(items[0], eta)
            for item in items[1:]:
                out = self._reppar(out, self._den(item, eta))
            return out
        if isinstance(e, A.Otherwise):
            return self._otherwise(e, eta)
        if isinstance(e, A.Case):
            return self._case(e, eta)
        if isinstance(e, A.Call):
            return ES.of_events([fresh_event(AdHoc(e.func, J))])
        if isinstance(e, (A.If, A.For)):
            raise CSawError(
                f"denotation requires an expanded expression (found {type(e).__name__})"
            )
        raise CSawError(f"no denotation for {type(e).__name__}")

    # -- sequencing ---------------------------------------------------------

    def _seq(self, items: list[A.Expr], eta: dict) -> ES:
        if not items:
            return ES.empty()
        if len(items) == 1:
            return self._den(items[0], eta)
        head, tail = items[0], items[1:]
        tail_expr = A.seq(*tail)
        head_es = self._den(head, {**eta, "sub": tail_expr})
        tail_es = self._seq(tail, eta)
        return head_es.then(tail_es)

    # -- control ------------------------------------------------------------

    def _control(self, eta: dict, key: str) -> ES:
        target = eta.get(key, A.Skip())
        if isinstance(target, A.Skip):
            return ES.empty()
        budget_key = f"{key}:{id(target)}"
        if self._unfold_budget.get(budget_key, 0) >= self.max_unfold:
            return ES.of_events([fresh_event(AdHoc(f"{key}-bound", self.junction))])
        self._unfold_budget[budget_key] = self._unfold_budget.get(budget_key, 0) + 1
        try:
            # control-flow statements restart their target with sub := skip
            return self._den(target, {**eta, "sub": A.Skip()})
        finally:
            self._unfold_budget[budget_key] -= 1

    def _retry(self, eta: dict) -> ES:
        body = eta.get("retry_body", A.Skip())
        if isinstance(body, A.Skip):
            return ES.of_events([fresh_event(AdHoc("retry", self.junction))])
        key = "retry"
        if self._unfold_budget.get(key, 0) >= self.max_unfold:
            return ES.of_events([fresh_event(AdHoc("retry-bound", self.junction))])
        self._unfold_budget[key] = self._unfold_budget.get(key, 0) + 1
        try:
            return self._den(body, {**eta, "sub": A.Skip()})
        finally:
            self._unfold_budget[key] -= 1

    # -- replicated parallel (Fig. 20) -----------------------------------------

    @staticmethod
    def _reppar(e1: ES, e2: ES) -> ES:
        c1, m1 = e1.copy_fresh()
        c2, m2 = e2.copy_fresh()
        events = e1.events | e2.events | c1.events | c2.events
        le = set(e1.le | e2.le | c1.le | c2.le)
        right1 = {ev.id for ev in e1.rightmost()}
        right2 = {ev.id for ev in e2.rightmost()}
        # after E1 completes, the copy of E2 may run (and dually)
        for r in right1:
            for ev in e2.events:
                le.add((r, m2[ev.id]))
        for r in right2:
            for ev in e1.events:
                le.add((r, m1[ev.id]))
        # interior events enable their own copies
        for ev in e1.events:
            if ev.id not in right1:
                le.add((ev.id, m1[ev.id]))
        for ev in e2.events:
            if ev.id not in right2:
                le.add((ev.id, m2[ev.id]))
        conflict = set(e1.conflict | e2.conflict | c1.conflict | c2.conflict)
        for es, m in ((e1, m1), (e2, m2)):
            for a, after in es.descendants.items():
                conflict.update(frozenset((b, m[a])) for b in after)
        conflict = {p for p in conflict if len(p) == 2}
        return ES(events, frozenset(le), frozenset(conflict))

    # -- otherwise (Fig. 20) ------------------------------------------------------

    def _otherwise(self, e: A.Otherwise, eta: dict) -> ES:
        body = self._den(e.body, eta)
        handler = self._den(e.handler, eta)
        events = set(body.isolate().events)
        le = set(body.le)
        conflict = set(body.conflict)
        for ev in body.in_order():
            copy, _m = handler.copy_fresh()
            events |= copy.events
            le |= set(copy.le)
            conflict |= set(copy.conflict)
            left = {c.id for c in copy.leftmost()}
            for p in body.ancestors[ev.id]:  # e' ⪇ e enable the copy
                for l in left:
                    le.add((p, l))
            for l in left:  # the copy conflicts with e itself
                conflict.add(frozenset((ev.id, l)))
        return ES(frozenset(events), frozenset(le), frozenset(conflict))

    # -- case ----------------------------------------------------------------------

    def _case(self, e: A.Case, eta: dict) -> ES:
        return self._case_from(e, 0, eta)

    def _case_from(self, e: A.Case, i: int, eta: dict) -> ES:
        arms = e.arms
        if i >= len(arms):
            return self._den(e.otherwise, eta)
        arm = arms[i]
        # the paper's E'_i: the case with arms i+1..n (for ``next``)
        rest_case = A.Case(arms[i + 1 :], e.otherwise) if i + 1 < len(arms) else A.Case((), e.otherwise)
        eta_i = dict(eta)
        eta_i["break"] = eta["sub"]
        eta_i["reconsider"] = e
        eta_i["next"] = rest_case if rest_case.arms else e.otherwise

        guard_t = self.denote_formula(arm.formula)
        guard_f = self.denote_formula(Not(arm.formula))
        body = self._den(A.seq(arm.body, _terminator_expr(arm.terminator)), eta_i)
        rest = self._case_from(e, i + 1, eta)

        taken = guard_t.then(body)
        not_taken = guard_f.then(rest)
        out = taken.union(not_taken)
        conflict = set(out.conflict)
        for a in guard_t.leftmost():
            for b in guard_f.leftmost():
                conflict.add(frozenset((a.id, b.id)))
        return ES(out.events, out.le, frozenset({p for p in conflict if len(p) == 2}))

    # ------------------------------------------------------------------
    # Junction / wait post-processing
    # ------------------------------------------------------------------

    def denote_junction(
        self, body: A.Expr, guard: Formula | None = None, *, expand: bool = True
    ) -> ES:
        """``Sched_J → [[body]] → Unsched_J`` with optional guard reads
        enabling the Sched event (cf. Fig. 18's ``Rd_g(Work,tt) →
        Sched_g``), wait placeholders expanded.

        ``expand=False`` leaves ``Wait_J`` placeholders in place.  The
        unexpanded structure is linear in the body size (expansion
        duplicates the downstream structure once per DNF alternative,
        which is exponential in the number of waits) and preserves the
        enablement order of the body's own events — what the static
        analyzer's concurrency pass needs."""
        eta = {
            "sub": A.Skip(),
            "return": A.Skip(),
            "break": A.Skip(),
            "next": A.Skip(),
            "reconsider": A.Skip(),
            "retry_body": body,
        }
        core = self._den(body, eta)
        sched = fresh_event(Sched(self.junction))
        unsched = fresh_event(Unsched(self.junction))
        sched_es = ES.of_events([sched])
        if guard is not None:
            sched_es = self.denote_formula(guard).then(sched_es)
        out = sched_es.then(core).then(ES.of_events([unsched]))
        if not expand:
            return out
        return expand_waits(out, self.junction)


# ---------------------------------------------------------------------------
# Wait expansion (sec. 8.5 post-processing)
# ---------------------------------------------------------------------------

def expand_waits(es: ES, junction: str, budget: int = 32) -> ES:
    """Replace each ``Wait_J(n⃗, F)`` placeholder with the staged
    pattern: DNF alternatives of ``F`` (mutually conflicting), each
    followed by its own copy of the data reads and of the entire
    downstream structure."""
    from ..core.parser import parse_formula

    for _ in range(budget):
        waits = [e for e in es.in_order() if isinstance(e.label, WaitL)]
        if not waits:
            return es
        es = _expand_one(es, waits[0], junction, parse_formula)
    raise CSawError("wait expansion did not terminate within budget")


def _expand_one(es: ES, w: Event, junction: str, parse_formula) -> ES:
    label: WaitL = w.label  # type: ignore[assignment]
    try:
        formula = parse_formula(label.formula)
    except Exception:
        formula = FalseF()  # unparseable (shouldn't happen from our own AST)
    dnf = to_dnf(formula)
    direct_preds = {a for (a, b) in es.le if b == w.id}
    # one walk: the structure is replaced before anything asks again
    downstream_ids = reachable(es.successors, w.id)
    downstream = frozenset(e for e in es.events if e.id in downstream_ids)
    remaining_events = frozenset(
        e for e in es.events if e.id != w.id and e.id not in downstream_ids
    )
    remaining_ids = {e.id for e in remaining_events}
    kept_le = frozenset(
        (a, b) for (a, b) in es.le if a in remaining_ids and b in remaining_ids
    )
    kept_conf = frozenset(p for p in es.conflict if p <= remaining_ids)

    down_le = frozenset((a, b) for (a, b) in es.le if a in downstream_ids and b in downstream_ids)
    down_conf = frozenset(p for p in es.conflict if p <= downstream_ids)
    down_es = ES(downstream, down_le, down_conf)
    # events the wait directly enabled
    direct_succs = {b for (a, b) in es.le if a == w.id}
    # external enablements into the downstream region (other than via w)
    ext_in = [
        (a, b)
        for (a, b) in es.le
        if a in remaining_ids and b in downstream_ids
    ]
    ext_conf = [p for p in es.conflict if len(p & remaining_ids) == 1 and len(p & downstream_ids) == 1]

    events = set(remaining_events)
    le = set(kept_le)
    conflict = set(kept_conf)

    clauses = sorted(dnf, key=lambda c: sorted(c)) or [frozenset()]
    synchs: list[Event] = []
    for clause in clauses:
        sy = fresh_event(Synch(junction, tuple(sorted(k for k, _ in clause))))
        synchs.append(sy)
        rds = [fresh_event(Rd(junction, key, TT if pol else FF)) for key, pol in sorted(clause)]
        data_rds = [fresh_event(Rd(junction, k, STAR)) for k in label.keys]
        events.add(sy)
        events.update(rds)
        events.update(data_rds)
        for p in direct_preds:
            le.add((p, sy.id))
        for r in rds:
            le.add((sy.id, r.id))
        stage_from = rds if rds else [sy]
        for s in stage_from:
            for d in data_rds:
                le.add((s.id, d.id))
        tail = data_rds if data_rds else stage_from
        # fresh copy of the downstream structure for this alternative
        copy, m = down_es.copy_fresh()
        events.update(copy.events)
        le.update(copy.le)
        conflict.update(copy.conflict)
        for s in direct_succs:
            if s in m:
                for t in tail:
                    le.add((t.id, m[s]))
        for a, b in ext_in:
            le.add((a, m[b]))
        for p in ext_conf:
            (outside,) = tuple(p & remaining_ids)
            (inside,) = tuple(p & downstream_ids)
            if inside in m:
                conflict.add(frozenset((outside, m[inside])))
    for i in range(len(synchs)):
        for j in range(i + 1, len(synchs)):
            conflict.add(frozenset((synchs[i].id, synchs[j].id)))
    return ES(frozenset(events), frozenset(le), frozenset({p for p in conflict if len(p) == 2}))


def _target_name(target: object) -> str:
    if isinstance(target, A.SelfTarget):
        return "self"
    return str(target)


def _atomize(f: Formula) -> Formula:
    """Replace At/Live sub-formulas with opaque pseudo-propositions so
    the DNF machinery can decompose guards that observe other junctions
    (e.g. ``me::instance::serve@!Active``)."""
    from ..core.formula import And, At, Implies, Live, Not, Or, Prop

    if isinstance(f, (At, Live)):
        return Prop(str(f))
    if isinstance(f, Not):
        return Not(_atomize(f.operand))
    if isinstance(f, And):
        return And(_atomize(f.left), _atomize(f.right))
    if isinstance(f, Or):
        return Or(_atomize(f.left), _atomize(f.right))
    if isinstance(f, Implies):
        return Implies(_atomize(f.left), _atomize(f.right))
    return f
