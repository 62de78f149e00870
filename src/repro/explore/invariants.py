"""Invariants checked over the final state of an explored run.

An invariant is a named predicate over ``(system, observations)``
evaluated after a scenario's horizon; it returns violation messages
(empty list = holds).  The registry makes invariants addressable from
the CLI (``repro explore --invariant at-most-once ...``) and lets
scenarios and tests register their own.

Built-ins:

* ``no-failures`` — no junction execution ended in an unhandled
  failure (``System.failures`` is empty);
* ``convergence`` — the system quiesced: every live junction's KV
  table drained its pending updates, and no outstanding send is
  *overdue* (already retransmitted at least once and still unacked).
  A first-attempt message still in flight at the horizon is not a
  violation — architectures with periodic background traffic (the
  fail-over pollers) are mid-send at any cut;
* ``at-most-once`` — no message id was *applied* twice at a receiver
  (retransmissions must be deduplicated; checked over the telemetry
  ``apply`` events);
* ``linearizable`` — the scenario's recorded GET/SET history (under
  the ``"history"`` observation key) is linearizable per key
  (:mod:`repro.explore.linearize`); holds vacuously when the scenario
  records no history.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Callable

from .linearize import check_linearizable


@dataclass(frozen=True)
class Invariant:
    name: str
    description: str
    check: Callable[[object, dict], list[str]]


INVARIANTS: dict[str, Invariant] = {}


def register_invariant(name: str, description: str = ""):
    """Decorator registering ``fn(system, obs) -> list[str]``."""

    def deco(fn):
        INVARIANTS[name] = Invariant(name, description, fn)
        return fn

    return deco


def get_invariants(names) -> list[Invariant]:
    out = []
    for n in names:
        if n not in INVARIANTS:
            raise KeyError(
                f"unknown invariant {n!r}; have {', '.join(sorted(INVARIANTS))}"
            )
        out.append(INVARIANTS[n])
    return out


def check_invariants(system, obs: dict, names) -> list[tuple[str, str]]:
    """Evaluate the named invariants; returns ``(invariant, message)``
    pairs for every violation."""
    out = []
    for inv in get_invariants(names):
        for msg in inv.check(system, obs):
            out.append((inv.name, msg))
    return out


# ---------------------------------------------------------------------------
# Built-ins
# ---------------------------------------------------------------------------


@register_invariant("no-failures", "no junction execution failed")
def _no_failures(system, obs) -> list[str]:
    return [
        f"{node}: {exc!r} at t={t:.6f}" for (t, node, exc) in system.failures
    ]


@register_invariant(
    "convergence",
    "KV tables drained pending updates and no sends are outstanding",
)
def _convergence(system, obs) -> list[str]:
    out = []
    for inst in system.instances.values():
        if not inst.alive:
            continue  # a crashed instance's state is gone, not diverged
        for jr in inst.junctions.values():
            if jr.table.has_pending:
                keys = sorted({u.key for u in jr.table.pending})
                out.append(
                    f"{jr.node}: {jr.table.pending_count} pending update(s) "
                    f"to {keys} never applied"
                )
    # _Pending.attempts counts send attempts and starts at 1; a value
    # above 1 means at least one retransmission already fired unacked
    overdue = sorted(
        mid for mid, p in system.delivery.outstanding.items() if p.attempts > 1
    )
    if overdue:
        out.append(
            f"{len(overdue)} overdue unacknowledged send(s) "
            f"(retransmitted, still no ack): {overdue[:8]}"
        )
    return out


@register_invariant(
    "at-most-once",
    "no message id applied twice at a receiver (dedup under retransmission)",
)
def _at_most_once(system, obs) -> list[str]:
    applied: dict[tuple[str, int], int] = {}
    for ev in system.telemetry.events:
        if ev.kind == "apply":
            mid = ev.attrs.get("msg_id")
            if mid:
                k = (ev.node, mid)
                applied[k] = applied.get(k, 0) + 1
    return [
        f"{node}: msg {mid} applied {n} times (retransmission re-applied)"
        for (node, mid), n in sorted(applied.items())
        if n > 1
    ]


@register_invariant(
    "reconfig-no-drop",
    "every request submitted across a reconfiguration completes exactly once, "
    "and every acknowledged write is stored where the new layout places it",
)
def _reconfig_no_drop(system, obs) -> list[str]:
    out = []
    if "reconfig_ok" in obs and not obs["reconfig_ok"]:
        reason = obs.get("reconfig_reason") or "unknown"
        out.append(f"reconfiguration did not complete: {reason}")
    submitted = obs.get("submitted")
    if submitted is None:
        return out
    counts = Counter(obs.get("completed", ()))
    dropped = [rid for rid in submitted if counts[rid] == 0]
    duplicated = sorted(rid for rid, n in counts.items() if n > 1)
    phantom = sorted(set(counts) - set(submitted))
    if dropped:
        out.append(
            f"{len(dropped)} request(s) dropped across the transition: "
            f"{dropped[:8]}"
        )
    if duplicated:
        out.append(f"request(s) completed more than once: {duplicated[:8]}")
    if phantom:
        out.append(f"unsubmitted request id(s) completed: {phantom[:8]}")
    for rid, err in obs.get("failed", ()):
        out.append(f"request {rid} failed: {err}")
    for key, held, home in obs.get("misplaced", ()):
        out.append(
            f"acknowledged write to {key!r} is stored on {held}, not on {home} "
            "where a fresh deployment of the new size places it"
        )
    return out


@register_invariant(
    "linearizable",
    "the recorded GET/SET history is linearizable per key",
)
def _linearizable(system, obs) -> list[str]:
    history = obs.get("history")
    if not history:
        return []
    return check_linearizable(history, initial=obs.get("initial"))
