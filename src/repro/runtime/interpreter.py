"""The junction-body machine: strands, scopes and the instruction set.

One *scheduling* of a junction creates a :class:`JunctionExecution`,
which runs the junction's body as a set of cooperating *strands*
(micro-threads implemented as Python generators).  A body is any
generator function ``body_fn(ex, consts)`` that touches the runtime
only through the execution's public *ops* (the second half of the
class; spec in docs/RUNTIME.md, "The junction-body machine").  Two
front-ends translate the DSL into such bodies: the tree-walker
(:mod:`.treewalk`, the reference, used when ``jr.code is None``) and the
junction compiler (:mod:`repro.compile.codegen`).

Strands yield :class:`Blocked` requests when they need to wait — on a
formula (``wait``), a remote acknowledgement (``write``/``assert``/
``retract`` to another junction), simulated service time (host blocks),
or child strands (parallel composition).  The execution cooperates with
the engine's clock: when every strand is blocked, control returns to the
clock, which advances time, delivers messages, and fires ``otherwise``
deadlines.

Failure semantics follow the paper:

* A :class:`~repro.core.errors.DslFailure` aborts the enclosing
  expression and propagates outward.
* ``E1 otherwise[t] E2`` absorbs failures of ``E1`` (including a
  deadline expiry) and runs ``E2``.  Deadlines belong to *scopes*; an
  expired outer deadline is not absorbed by an inner handler.
* ``<|E|>`` rolls the KV table back before re-raising.
* ``return`` and ``retry`` are control signals, not failures; they pass
  through ``otherwise`` untouched.
* Remote updates apply **locally only after the acknowledgement**
  arrives, so a failed remote update leaves the local table unchanged —
  this is what makes the paper's retry idioms (Fig. 4) work.
"""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING, Generator, Iterable, Optional

from ..core import ast as A
from ..core.errors import (
    ControlSignal,
    DslFailure,
    HostError,
    ReconsiderFailure,
    RetryExhausted,
    TimeoutFailure,
    UndefError,
    VerifyFailure,
    VerifyUnknown,
)
from ..core.formula import (
    UNKNOWN,
    And,
    At,
    Formula,
    Implies,
    Not,
    Or,
    Prop,
    evaluate,
    propositions,
)
from . import treewalk
from .channels import Message
from .host import HostContext
from .kvtable import UNDEF, Update

if TYPE_CHECKING:  # pragma: no cover
    from .instance import JunctionRuntime
    from .system import System


def fold_number(arg: object, params: dict) -> float:
    """The value of a numeric Arg (``3*t``) under a junction's bound
    parameters.  Raises ``ValueError`` saying why when it has none —
    the compiler then defers to :meth:`JunctionExecution.number`, which
    turns that into the strand's failure."""
    if isinstance(arg, A.Num):
        return float(arg.value)
    if isinstance(arg, A.Ref) and arg.is_simple:
        v = params.get(arg.name)
        if isinstance(v, (int, float)):
            return float(v)
        raise ValueError(f"{arg} is not a numeric parameter")
    if isinstance(arg, A.BinArith):
        l = fold_number(arg.left, params)
        r = fold_number(arg.right, params)
        return {"+": l + r, "-": l - r, "*": l * r, "/": l / r if r else float("inf")}[arg.op]
    raise ValueError(f"cannot evaluate {arg!r} as a number")


# ---------------------------------------------------------------------------
# Strand machinery
# ---------------------------------------------------------------------------

class Blocked:
    """A strand's parked state (a ``__slots__`` record — these are
    allocated once per blocking statement on the hot path).

    kind:
      * ``'wait'``  — fields: formula, admits (frozenset of keys), and
        optionally ``pred``, a compiled three-valued predicate over the
        junction's value map (set by :mod:`repro.compile` for pure
        formulas; wake-up checks call it instead of walking the tree)
      * ``'ack'``   — fields: msg_id
      * ``'sleep'`` — fields: duration
      * ``'join'``  — fields: children (list of Strand)
    """

    __slots__ = ("kind", "formula", "admits", "msg_id", "duration", "children", "pred")

    def __init__(
        self,
        kind: str,
        formula: Optional[Formula] = None,
        admits: frozenset = frozenset(),
        msg_id: int = 0,
        duration: float = 0.0,
        children: list | None = None,
        pred: object = None,
    ):
        self.kind = kind
        self.formula = formula
        self.admits = admits
        self.msg_id = msg_id
        self.duration = duration
        self.children = children if children is not None else []
        self.pred = pred

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Blocked {self.kind}>"


class _DeadlineScope:
    """An open ``otherwise[t]`` scope (see
    :meth:`JunctionExecution.deadline`): owner strand, the deadline's
    timer handle if it has one, and whether it absorbed a failure."""

    __slots__ = ("strand", "handle", "active", "failed")

    def __init__(self, strand: "Strand"):
        self.strand = strand
        self.handle = None
        self.active = True
        self.failed = False

    def __enter__(self) -> "_DeadlineScope":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.active = False
        if self.handle is not None:
            self.handle.cancel()
        if exc_type is None or not issubclass(exc_type, DslFailure):
            return False
        if isinstance(exc, ScopedTimeout) and exc.scope is not self:
            # a deadline belonging to an *enclosing* otherwise — not
            # ours to absorb (exceptions stay within a strand, so the
            # scope can only be an ancestor's)
            return False
        self.failed = True
        return True


class ScopedTimeout(TimeoutFailure):
    """A deadline expiry carrying its originating scope, so that inner
    ``otherwise`` handlers re-raise timeouts that belong to enclosing
    scopes."""

    def __init__(self, scope: _DeadlineScope | None = None):
        super().__init__("otherwise deadline expired")
        self.scope = scope


class Strand:
    """One sequential strand of a junction execution (``__slots__``:
    one is allocated per scheduling even for bodies that complete
    synchronously)."""

    __slots__ = (
        "id", "gen", "parent", "state", "block",
        "pending_throw", "window", "sleep_handle",
    )

    _ids = itertools.count()

    def __init__(self, gen: Generator, parent: "Strand | None" = None):
        self.id = next(self._ids)
        self.gen = gen
        self.parent = parent
        self.state = "ready"  # ready|blocked|done|failed|cancelled
        self.block: Blocked | None = None
        self.pending_throw: BaseException | None = None
        self.window = None  # open KV wait window, if any
        self.sleep_handle = None

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Strand {self.id} {self.state}>"


class _TxScope:
    """An open transaction (see :meth:`JunctionExecution.transaction`):
    owner strand + undo log.

    The undo log records (key, previous value) for the *first* local
    write to each key made by the owner strand or any of its
    descendants while the scope is open.  Rolling back restores those
    values in reverse order — this makes ``<|E|>`` compose correctly
    with parallel strands (a sibling's transaction failure must not
    wipe our writes, which a whole-table snapshot would)."""

    __slots__ = ("ex", "owner", "log", "seen", "active")

    def __init__(self, ex: "JunctionExecution", owner: "Strand"):
        self.ex = ex
        self.owner = owner
        self.log: list[tuple[str, object]] = []
        self.seen: set[str] = set()
        self.active = True

    def __enter__(self) -> "_TxScope":
        self.ex.active_txs.append(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.active = False
        self.ex.active_txs.remove(self)
        # return/retry are not failures: changes persist.  Anything
        # else — a failure, or GeneratorExit when the strand is
        # cancelled — rolls back.
        if exc_type is not None and not issubclass(exc_type, ControlSignal):
            values = self.ex.table.values
            for key, old in reversed(self.log):
                values[key] = old
        return False


def _is_self_or_ancestor(candidate: "Strand", strand: "Strand | None") -> bool:
    while strand is not None:
        if strand is candidate:
            return True
        strand = strand.parent
    return False


class JunctionExecution:
    """One scheduling of a junction."""

    __slots__ = (
        "system", "jr", "table", "root", "strands", "ready",
        "awaiting_acks", "finished", "outcome", "failure",
        "_pump_scheduled", "_current", "_retry_budget", "_retries", "active_txs",
        "parent_event", "sched_event", "_sched_at",
    )

    def __init__(
        self,
        system: "System",
        jr: "JunctionRuntime",
        parent_event: int | None = None,
    ):
        self.system = system
        self.jr = jr
        self.table = jr.table
        self.root: Strand | None = None
        self.strands: dict[int, Strand] = {}
        self.ready: list[Strand] = []
        self.awaiting_acks: dict[int, Strand] = {}
        self.finished = False
        self.outcome: str | None = None  # 'ok' | 'failed' | 'cancelled'
        self.failure: BaseException | None = None
        self._pump_scheduled = False
        self._current: Strand | None = None
        self._retry_budget = system.max_retries
        self._retries = 0
        self.active_txs: list[_TxScope] = []
        #: causal parent of this scheduling (the ``attempt`` event)
        self.parent_event = parent_event
        #: the ``sched`` event — causal parent of everything this
        #: execution does (sends, lifecycle actions, the ``unsched``)
        self.sched_event: int | None = None
        self._sched_at = 0.0

    def reset(self, parent_event: int | None) -> None:
        """Re-arm a synchronously-completed execution for its
        junction's next scheduling (see ``JunctionRuntime._free_exec``).
        Only executions that finished ok with every per-run container
        empty are stashed for reuse, so the containers need no reset —
        just the scalar run state.  The done root strand is kept and
        re-armed by :meth:`start`.  The table is re-read: a restart
        replaces the junction's table object."""
        self.table = self.jr.table
        self.finished = False
        self.outcome = None
        self.failure = None
        self._current = None
        self._retries = 0
        self.parent_event = parent_event
        self.sched_event = None
        self._sched_at = 0.0

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def start(self) -> None:
        jr = self.jr
        system = self.system
        table = self.table
        table.executing = True
        table.on_local_write = self._on_local_write
        jr.status = "running"
        jr.sched_count += 1
        tel = system.telemetry
        m = jr._m_scheds
        if m is None:
            m = jr._m_scheds = tel.counter("junction_scheds", node=jr.node)
        m.value += 1  # Counter.inc, sans the method call
        self._sched_at = system.clock.now
        self.sched_event = (
            tel.emit("sched", jr.node, parent=self.parent_event)
            if tel.enabled else None
        )
        code = jr.code
        # both front-ends carry the retry/return loop in the body
        # function itself, so its generator IS the root strand — no
        # wrapper frame per scheduling
        gen = code.body_fn(self, code.consts) if code is not None else treewalk.body(self, None)
        # root fast path: advance to the first yield inline, with the
        # root strand registered and current (transactions/par opened
        # before the first yield attribute correctly).  Most junction
        # bodies complete synchronously: handle StopIteration here
        # without the _advance/_finish_strand frames — a fresh root has
        # no window, sleep handle or block to clean up.
        s = self.root
        if s is None:
            s = Strand(gen, None)
            self.root = s
        else:
            # reused execution (see ``reset``): re-arm the done root
            s.gen = gen
            s.state = "ready"
        self._current = s
        # registry insert deferred past the sync-completion path: the
        # strands dict only matters once the body reaches a yield (or
        # fails — _finish_execution's cancel sweep tolerates an
        # unregistered done/failed root)
        try:
            req = gen.send(None)
        except StopIteration:
            # synchronous ok completion, fully inlined (the
            # _finish_execution / _emit_unsched / execution_finished
            # generality is for multi-strand and failure paths): one
            # strand, nothing to cancel, no failure to record
            self._current = None
            s.state = "done"
            self.finished = True
            self.outcome = "ok"
            table.executing = False
            table.on_local_write = None
            jr.status = "idle"
            h = jr._m_exec_seconds
            if h is None:
                h = jr._m_exec_seconds = tel.histogram(
                    "junction_execution_seconds", node=jr.node
                )
            h.observe(system.clock.now - self._sched_at)
            c = jr._m_unscheds.get("ok")
            if c is None:
                c = jr._m_unscheds["ok"] = tel.counter(
                    "junction_unscheds", node=jr.node, outcome="ok"
                )
            c.value += 1
            if tel.enabled:
                tel.emit(
                    "unsched", jr.node, parent=self.sched_event,
                    outcome="ok", failure=None,
                )
            system._executions.pop(jr.node, None)
            # stash for reuse by the junction's next scheduling (only
            # when every per-run container is provably untouched)
            if not self.strands and not self.active_txs and jr._free_exec is None:
                jr._free_exec = self
            if table._pending_n:
                system._attempt_soon(jr)
            return
        except (DslFailure, ControlSignal) as exc:
            self._current = None
            s.state = "failed"
            self._finish_execution(exc)
            return
        except Exception as exc:  # host/library bug: surface as HostError
            self._current = None
            wrapped = HostError(f"{jr.node}: internal error: {exc!r}")
            wrapped.__cause__ = exc
            s.state = "failed"
            self._finish_execution(wrapped)
            return
        self._current = None
        self.strands[s.id] = s
        self._handle_request(s, req)
        if self.ready and not self.finished:
            self._pump()

    def _on_local_write(self, key: str, old: object) -> None:
        cur = self._current
        for tx in self.active_txs:
            if tx.active and key not in tx.seen and _is_self_or_ancestor(tx.owner, cur):
                tx.log.append((key, old))
                tx.seen.add(key)

    def _schedule_pump(self) -> None:
        if self._pump_scheduled or self.finished:
            return
        self._pump_scheduled = True
        self.system.clock.call_after(
            0.0,
            self._pump_cb,
            priority=-1,
            label=self.jr._label_pump,
            footprint=self.jr._fp_node,
        )

    def _pump_cb(self) -> None:
        self._pump_scheduled = False
        self._pump()

    def _pump(self) -> None:
        while self.ready and not self.finished:
            strand = self.ready.pop(0)
            if strand.state != "ready":
                continue
            throw = strand.pending_throw
            strand.pending_throw = None
            self._advance(strand, throw=throw)

    # ------------------------------------------------------------------
    # Strand stepping
    # ------------------------------------------------------------------

    def _advance(self, strand: Strand, send=None, throw: BaseException | None = None) -> None:
        self._current = strand
        try:
            if throw is not None:
                req = strand.gen.throw(throw)
            else:
                req = strand.gen.send(send)
        except StopIteration:
            self._finish_strand(strand, None)
        except (DslFailure, ControlSignal) as exc:
            self._finish_strand(strand, exc)
        except Exception as exc:  # host/library bug: surface as HostError
            wrapped = HostError(f"{self.jr.node}: internal error: {exc!r}")
            wrapped.__cause__ = exc
            self._finish_strand(strand, wrapped)
        else:
            self._handle_request(strand, req)
        finally:
            self._current = None

    def _handle_request(self, strand: Strand, req: Blocked) -> None:
        if req.kind == "wait":
            # updates to the admitted keys that queued up before the
            # window opened are reflected now (sec. 6: the wait "allows
            # the junction's table to reflect changes" to those keys)
            self.table.apply_pending_for(req.admits)
            if self._wait_sat(req):
                strand.state = "ready"
                self.ready.append(strand)
                return
            strand.state = "blocked"
            strand.block = req

            def on_update(_key: str, s=strand, r=req):
                if s.state == "blocked" and self._wait_sat(r):
                    self._wake(s)

            strand.window = self.table.open_window(req.admits, on_update)
            return
        if req.kind == "ack":
            strand.state = "blocked"
            strand.block = req
            self.awaiting_acks[req.msg_id] = strand
            return
        if req.kind == "sleep":
            strand.state = "blocked"
            strand.block = req
            strand.sleep_handle = self.system.clock.call_after(
                req.duration,
                lambda s=strand: self._wake(s),
                label=self.jr._label_sleep,
                footprint=self.jr._fp_strand,
            )
            return
        if req.kind == "join":
            strand.state = "blocked"
            strand.block = req
            # children were spawned by the join op; just wait
            return
        raise RuntimeError(f"unknown block request {req.kind!r}")

    def _wait_sat(self, req: Blocked) -> bool:
        """Is a wait request's formula satisfied?  Uses the compiled
        predicate when the front-end attached one (pure formulas), else
        the reference tree-walk."""
        pred = req.pred
        if pred is not None:
            # compiled predicates are slot-compiled: they read the flat
            # slot list, not the by-name view
            return pred(self.table.slots) is True
        return self.truth(req.formula) is True

    def _wake(self, strand: Strand, throw: BaseException | None = None) -> None:
        if strand.state != "blocked" or self.finished:
            return
        self._unblock_cleanup(strand)
        if throw is not None and strand.block is not None and strand.block.kind == "join":
            for child in strand.block.children:
                self._cancel_subtree(child)
        strand.block = None
        strand.state = "ready"
        strand.pending_throw = throw
        self.ready.append(strand)
        self._schedule_pump()

    def _unblock_cleanup(self, strand: Strand) -> None:
        if strand.window is not None:
            self.table.close_window(strand.window)
            strand.window = None
        if strand.sleep_handle is not None:
            strand.sleep_handle.cancel()
            strand.sleep_handle = None
        if strand.block is not None and strand.block.kind == "ack":
            self.awaiting_acks.pop(strand.block.msg_id, None)
            # stop retransmitting once nothing waits for the ack (the
            # strand was cancelled, timed out, or is being failed)
            self.system.delivery.cancel(strand.block.msg_id)

    def _finish_strand(self, strand: Strand, exc: BaseException | None) -> None:
        strand.state = "failed" if exc is not None else "done"
        self._unblock_cleanup(strand)
        parent = strand.parent
        if parent is None:
            self._finish_execution(exc)
            return
        # parent is blocked on a join containing this strand
        block = parent.block
        if block is None or block.kind != "join":
            return
        if exc is not None:
            for sibling in block.children:
                if sibling is not strand:
                    self._cancel_subtree(sibling)
            self._wake(parent, throw=exc)
            return
        if all(c.state == "done" for c in block.children):
            self._wake(parent)

    def _cancel_subtree(self, strand: Strand) -> None:
        if strand.state in ("done", "failed", "cancelled"):
            return
        if strand.block is not None and strand.block.kind == "join":
            for child in strand.block.children:
                self._cancel_subtree(child)
        self._unblock_cleanup(strand)
        strand.state = "cancelled"
        try:
            strand.gen.close()
        except Exception:
            pass

    def _finish_execution(self, exc: BaseException | None) -> None:
        if self.finished:
            return
        self.finished = True
        self.failure = exc
        self.outcome = "ok" if exc is None else "failed"
        strands = self.strands
        if len(strands) > 1 or (self.root is not None and self.root.state in ("ready", "blocked")):
            for s in list(strands.values()):
                if s.state in ("ready", "blocked"):
                    self._cancel_subtree(s)
        self.table.executing = False
        self.table.on_local_write = None
        self.jr.status = "idle"
        self._emit_unsched(self.outcome, exc)
        self.system.execution_finished(self.jr, self)

    def cancel(self) -> None:
        """Abort the execution (instance crash/stop)."""
        if self.finished:
            return
        self.finished = True
        self.outcome = "cancelled"
        for s in list(self.strands.values()):
            self._cancel_subtree(s)
        self.table.executing = False
        self.table.on_local_write = None
        self.jr.status = "idle"
        self._emit_unsched("cancelled", None)

    def _emit_unsched(self, outcome: str | None, exc: BaseException | None) -> None:
        jr = self.jr
        tel = self.system.telemetry
        h = jr._m_exec_seconds
        if h is None:
            h = jr._m_exec_seconds = tel.histogram(
                "junction_execution_seconds", node=jr.node
            )
        h.observe(self.system.clock.now - self._sched_at)
        key = outcome or "?"
        c = jr._m_unscheds.get(key)
        if c is None:
            c = jr._m_unscheds[key] = tel.counter(
                "junction_unscheds", node=jr.node, outcome=key
            )
        c.inc()
        if tel.enabled:
            tel.emit(
                "unsched", jr.node, parent=self.sched_event, outcome=outcome, failure=exc
            )

    # ------------------------------------------------------------------
    # Message handling
    # ------------------------------------------------------------------

    def on_ack(self, msg_id: int) -> None:
        strand = self.awaiting_acks.pop(msg_id, None)
        if strand is not None:
            self._wake(strand)

    def on_delivery_failure(self, msg_id: int, exc: BaseException) -> None:
        """The delivery layer exhausted its retransmission budget for
        ``msg_id``: fail the waiting strand so ``otherwise`` handlers
        fire promptly rather than only via their own deadlines."""
        strand = self.awaiting_acks.pop(msg_id, None)
        if strand is not None:
            self._wake(strand, throw=exc)

    # ==================================================================
    # The instruction set.  Everything below is what a junction body
    # (tree-walked or generated) may call; nothing above is.  Ops that
    # return a Blocked are yielded by the body, generator ops are
    # delegated to with ``yield from``, the rest are plain calls.
    # ==================================================================

    # -- values -----------------------------------------------------------

    def number(self, arg: object) -> float:
        """A numeric Arg (``otherwise[3*t]``) under the junction's bound
        parameters; a non-numeric one fails the strand."""
        try:
            return fold_number(arg, self.jr.params)
        except ValueError as why:
            raise DslFailure(f"{self.jr.node}: {why}") from None

    def resolve(self, target: object) -> "JunctionRuntime":
        """A communication target, through the junction's parameters
        and current ``idx`` cursors."""
        return self.system.resolve_target(target, self.jr)

    def _cursor(self, idx: str) -> object:
        """The current value of an ``idx`` cursor; undef fails."""
        v = self.table.get(idx)
        if v is UNDEF:
            raise UndefError(f"{self.jr.node}: index {idx!r} is undef")
        return v

    def prop_key(self, prop: str, index: object) -> str:
        """The table key of ``prop[index]``; an index naming an ``idx``
        cursor is taken at the cursor's current value."""
        if index is None:
            return prop
        idx = A.cursor_name(index, self.jr.idx_names)
        return f"{prop}[{index if idx is None else self._cursor(idx)}]"

    def data(self, name: str) -> object:
        """The value ``write(name, ...)`` sends; writing ``undef`` fails
        (sec. 6: data must have been produced by ``save``)."""
        value = self.table.get(name)
        if value is UNDEF:
            raise UndefError(f"{self.jr.node}: write({name}) of undef")
        return value

    # -- formulas ---------------------------------------------------------

    def _prop_env(self, key: str):
        v = self.table.prop_value(key)
        if isinstance(v, bool):
            return v
        return UNKNOWN

    def _resolve_indices(self, f: Formula) -> Formula:
        """``f`` with every cursor-indexed proposition (``!Work[tgt]``)
        fixed at the cursor's current value."""
        if isinstance(f, Prop):
            idx = A.cursor_name(f.index, self.jr.idx_names)
            return f if idx is None else Prop(f.name, str(self._cursor(idx)))
        if isinstance(f, Not):
            return Not(self._resolve_indices(f.operand))
        if isinstance(f, (And, Or, Implies)):
            return type(f)(self._resolve_indices(f.left), self._resolve_indices(f.right))
        if isinstance(f, At):
            return At(f.junction, self._resolve_indices(f.body))
        return f

    def truth(self, f: Formula):
        """Three-valued truth of ``f`` in this junction's context:
        cursors resolved, ``gamma@F`` read from the remote table,
        ``S(iota)`` from instance liveness (UNKNOWN when not running).
        Front-ends may inline *pure* formulas instead — see
        :func:`repro.compile.formulas.is_pure`."""
        return evaluate(
            self._resolve_indices(f),
            self._prop_env,
            at=self.system.make_at_resolver(self.jr),
            live=self.system.make_live_resolver(),
        )

    def verify(self, f: Formula, value: object = None) -> None:
        """``verify f``: fail unless it holds; an undecidable formula
        (ternary *error*) fails distinctly.  ``value`` is ``f``'s truth
        when the front-end already computed it inline."""
        v = self.truth(f) if value is None else value
        if v is UNKNOWN:
            raise VerifyUnknown(f"{self.jr.node}: verify {f} is undecidable (instance not running)")
        if v is not True:
            raise VerifyFailure(f"{self.jr.node}: verify {f} failed")

    def case_match(self, arm: int, prev: tuple | None) -> tuple:
        """Note that a ``case`` round matched ``arm``.  Returns the mark
        a ``reconsider`` terminator hands to the next round as ``prev``;
        that round fails if it matches the same arm with the junction's
        proposition state unchanged (our operationalization of "if a
        different match is made ... otherwise the expression fails")."""
        props = {k: v for k, v in self.table.values.items() if isinstance(v, bool)}
        mark = (arm, props)
        if mark == prev:
            raise ReconsiderFailure(
                f"{self.jr.node}: reconsider re-matched arm {arm} with unchanged state"
            )
        return mark

    def retry(self) -> None:
        """Count one ``retry`` of the body against the per-scheduling
        budget (``System.max_retries``); past it the junction fails.
        Called by the root loop on :class:`RetrySignal`, outside every
        scope, so no ``otherwise`` absorbs the exhaustion."""
        self._retries += 1
        if self._retries > self._retry_budget:
            raise RetryExhausted(
                f"{self.jr.node}: retry invoked more than {self._retry_budget} times"
            )

    # -- blocking ---------------------------------------------------------

    def wait(self, f: Formula, keys: Iterable[str] = (), pred: object = None) -> Blocked:
        """``wait[keys] f``: park until ``f`` holds, admitting remote
        updates to its propositions and ``keys`` meanwhile.  Cursors are
        resolved once, here (constant for the blocked statement).
        ``pred`` — a compiled predicate over the slot list, pure
        formulas only — replaces the tree walk in wake-up checks."""
        if pred is None:
            f = self._resolve_indices(f)
        return Blocked(
            "wait", formula=f, admits=frozenset(propositions(f)) | frozenset(keys), pred=pred
        )

    def send_update(self, target: "JunctionRuntime", key: str, value: object) -> Blocked:
        """Send ``key := value`` to ``target``'s table and park until it
        is acknowledged.  The send is reliable (retransmitted with
        backoff); :class:`~repro.core.errors.DeliveryFailure` is raised
        here if the link's breaker is open, or thrown into the parked
        strand when the retransmission budget runs out."""
        system = self.system
        node = self.jr.node
        msg_id = system.network.next_msg_id()
        tel = system.telemetry
        tel.bind_message(
            msg_id,
            tel.emit(
                "send", node, parent=self.sched_event, dst=target.node, key=key, msg_id=msg_id
            ),
        )
        system.delivery.send(
            Message(
                src=node,
                dst=target.node,
                kind="update",
                payload=Update(key=key, value=value, src=node),
                msg_id=msg_id,
            ),
            on_fail=lambda exc, m=msg_id: self.on_delivery_failure(m, exc),
        )
        return Blocked("ack", msg_id=msg_id)

    def set_remote(self, target: "JunctionRuntime", key: str, value: bool) -> Generator:
        """``assert[target] key`` / ``retract[target] key``: the local
        copy follows only after the remote update is acknowledged — and
        only if no remote update to the key arrived in between (an ack,
        possibly of a retransmission, confirms old state and must not
        clobber newer information)."""
        table = self.table
        seq_before = table.recv_seq_of(key)
        yield self.send_update(target, key, value)
        if table.has(key) and table.recv_seq_of(key) == seq_before:
            table.set_local(key, value)

    def host(self, name: str, writes: tuple) -> Generator:
        """``host name {writes}``: run the bound host function against a
        :class:`HostContext`, synchronously inside the strand on every
        engine, then sleep for the service time it took (``ctx.take``).
        An extra yield before the call would reorder the pump and break
        schedule replay."""
        jr = self.jr
        fn = jr.instance.type.host_fns.get(name)
        if fn is None:
            raise HostError(f"{jr.node}: no host binding for {name!r}")
        ctx = HostContext(self.system, jr, writes)
        try:
            fn(ctx)
        except DslFailure:
            raise
        except Exception as exc:
            raise HostError(f"{jr.node}: host block {name!r} raised {exc!r}") from exc
        if ctx.elapsed > 0:
            yield Blocked("sleep", duration=ctx.elapsed)

    def join(self, gens: Iterable[Generator]) -> Blocked:
        """Parallel composition: run each generator as a child strand of
        the current one and park until all are done; a child's failure
        cancels its siblings and is thrown into the parent."""
        parent = self._current
        children = [Strand(gen, parent) for gen in gens]
        for c in children:
            self.strands[c.id] = c
            self.ready.append(c)
        return Blocked("join", children=children)

    # -- scopes (context managers) ----------------------------------------

    def transaction(self) -> _TxScope:
        """``<|E|>``: ``with ex.transaction(): E`` — a failure of ``E``
        (or its cancellation) undoes the local writes made under it by
        the current strand and its descendants; ``return``/``retry``
        are not failures and keep them."""
        return _TxScope(self, self._current)

    def deadline(self, timeout: float | None) -> _DeadlineScope:
        """``E1 otherwise[timeout] E2``::

            with ex.deadline(timeout) as scope:
                E1
            if scope.failed:
                E2

        The scope absorbs a failure of ``E1``, including its own expiry
        (thrown into the owning strand wherever it is parked), but not
        the expiry of an enclosing scope, nor a control signal."""
        scope = _DeadlineScope(self._current)
        if timeout is not None:
            clock = self.system.clock
            scope.handle = clock.call_at(
                clock.now + timeout,
                lambda sc=scope: self._deadline_fired(sc),
                label=self.jr._label_deadline,
                footprint=self.jr._fp_strand,
            )
        return scope

    def _deadline_fired(self, scope: _DeadlineScope) -> None:
        if not scope.active or self.finished:
            return
        scope.active = False
        strand = scope.strand
        failure = ScopedTimeout(scope)
        if strand.state == "blocked":
            self._wake(strand, throw=failure)
        elif strand.state == "ready":
            strand.pending_throw = failure

    # -- host state, lifecycle --------------------------------------------

    def _providers_for(self, name: str):
        t = self.jr.instance.type
        return t.data_state.get(name, t.state)

    def save(self, name: str) -> None:
        """``save(name)``: serialize host state into data item ``name``."""
        prov = self._providers_for(name)
        if prov.save is None:
            raise HostError(f"{self.jr.node}: no state provider registered for save({name})")
        obj = prov.save(self.jr.instance.app, self.jr.instance)
        payload = self.system.serializer.encode(prov.schema, obj)
        self.table.set_local(name, payload)

    def restore(self, name: str) -> None:
        """``restore(name)``: deserialize data item ``name`` back into
        host state; ``undef`` fails."""
        value = self.table.get(name)
        if value is UNDEF:
            raise UndefError(f"{self.jr.node}: restore({name}) of undef")
        prov = self._providers_for(name)
        if prov.restore is None:
            raise HostError(f"{self.jr.node}: no state provider registered for restore({name})")
        obj = self.system.serializer.decode(value)
        prov.restore(self.jr.instance.app, self.jr.instance, obj)

    def start_instance(self, instance: A.Ref, junction_args: tuple) -> None:
        """``start iota ...``; fails if it is already running."""
        self.system.exec_start(instance, junction_args, self.jr)

    def stop_instance(self, instance: A.Ref) -> None:
        """``stop iota``; fails if it is not running."""
        self.system.exec_stop(instance, self.jr)
