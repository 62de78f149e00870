"""Per-junction distributed key-value tables, slot-addressed.

Each junction owns a KV table storing its propositions (booleans) and
named data (opaque serialized payloads).  Junctions *push* updates to
each other but can only *read* their own table (the paper adapts the
tuple-space idea but restricts readability to junctions).

Semantics implemented here (paper sec. 6 "Junction state" and sec. 8
"Local priority" rule):

* Remote updates received while the junction is **idle** or **running**
  are queued; they take effect when the junction is next scheduled.
* While a junction executes a ``wait [keys] F``, updates to the
  propositions of ``F`` and to the listed data ``keys`` are admitted
  into the table immediately (that is how the wait can be satisfied).
* A **local** update to a key discards pending remote updates to that
  key — local updates have priority.
* ``keep`` discards pending updates for the given keys; idempotent.
* Transactions log undone writes and roll them back on failure.

Representation (the slot-addressed state layer):

* The key set is fixed at bind: ``keys`` and ``index`` (key → slot)
  are the bound closure's immutable table image, shared by every
  table of that closure, and hold exactly the junction's declared
  keys (:func:`repro.core.validate.declared_keys`).  An update to any
  other key is refused at the boundary (:meth:`KVTable.receive`),
  never stored or queued.
* Values live in a flat ``slots`` list indexed by slot.  The list is
  mutated in place and **never rebound**, so compiled guards and
  bodies may close over it.  ``table.values`` is a dict-like
  :class:`SlotValues` view over the same storage for generic callers.
* Pending remote updates are bucketed per key, each tagged with a
  global arrival sequence number, so local-priority discard,
  ``keep``, ``effective`` and ``apply_pending_for`` are O(keys
  touched) instead of O(total pending).
* Transactions push undo-log frames of ``(slot, old_value)`` pairs:
  ``tx_begin`` is O(1), rollback is O(writes made), and the value
  storage keeps its identity across rollback.
* The table tracks which keys its junction's *guard* reads
  (:meth:`set_guard_tracking`); any write to one of those keys sets
  ``guard_dirty``, which lets the scheduler skip re-evaluating a pure
  guard whose inputs did not change since the last attempt.

Slots are junction-local: the same key can live at different slots in
different junctions (or in the same junction across a live
reconfiguration that changes its declarations), so everything that
crosses junctions — update messages, commute footprints, reconfig
snapshots — stays keyed by *name* and is translated through the
index at the boundary.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Iterable, Mapping, NamedTuple

from ..core.formula import UNKNOWN


class _Undef:
    """Singleton initial value of data items; writing/restoring it is
    an error (paper sec. 6, "Initialization")."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "undef"


UNDEF = _Undef()


class Update(NamedTuple):
    """A queued remote update.

    A named tuple rather than a (frozen) dataclass: one is allocated
    per remote/external update, and tuple construction skips the
    per-field ``object.__setattr__`` a frozen dataclass pays."""

    key: str
    value: object
    src: str  # sending junction node name (for diagnostics)


class SlotValues:
    """Dict-like view over a table's flat slot storage.

    Exists so generic callers (checkpointing, reconfig restore, tests,
    the interpreter's by-name paths) keep the mapping API while the
    authoritative storage is the flat ``slots`` list.  The view object
    is created once per table and its identity never changes — aliases
    captured by compiled code stay valid across transactions."""

    __slots__ = ("_table",)

    def __init__(self, table: "KVTable"):
        self._table = table

    def get(self, key: str, default: object = None) -> object:
        t = self._table
        return t.slots[t.index[key]] if key in t.index else default

    def __getitem__(self, key: str) -> object:
        t = self._table
        return t.slots[t.index[key]]

    def __setitem__(self, key: str, value: object) -> None:
        self._table._store_named(key, value)

    def __contains__(self, key: str) -> bool:
        return key in self._table.index

    def __iter__(self):
        return iter(self._table.keys)

    def __len__(self) -> int:
        return len(self._table.keys)

    def keys(self) -> list[str]:
        return list(self._table.keys)

    def items(self) -> list[tuple[str, object]]:
        t = self._table
        return list(zip(t.keys, t.slots))

    def copy(self) -> dict[str, object]:
        return dict(self.items())

    def __eq__(self, other: object) -> bool:
        if isinstance(other, SlotValues):
            return self.copy() == other.copy()
        if isinstance(other, dict):
            return self.copy() == other
        return NotImplemented

    def __repr__(self) -> str:
        return f"SlotValues({self.copy()!r})"


class WaitWindow:
    """An active ``wait`` registration: the set of keys it admits and a
    callback fired when an admitted update lands."""

    __slots__ = ("admits", "on_update", "active")

    def __init__(self, admits: frozenset[str], on_update: Callable[[str], None]):
        self.admits = admits
        self.on_update = on_update
        self.active = True

    def close(self) -> None:
        self.active = False


class KVTable:
    """A junction's key-value table."""

    #: how many recently-seen message ids the dedup filter remembers;
    #: a retransmission storm longer than this window could re-apply an
    #: update, so it is sized far above any retransmission budget
    DEDUP_WINDOW = 4096

    def __init__(self, owner: str = "?"):
        self.owner = owner
        #: the declared keys in slot order and key → slot; fixed at
        #: bind (:meth:`repro.runtime.instance.TableImage.fill`) or
        #: laid out by :meth:`declare`
        self.keys: tuple[str, ...] = ()
        self.index: Mapping[str, int] = {}
        #: flat value storage, indexed by slot; mutated in place, never
        #: rebound — compiled code may alias it
        self.slots: list[object] = []
        #: stable dict-like view over ``slots`` (by-name access)
        self.values = SlotValues(self)
        #: pending remote updates bucketed per key, each entry a
        #: ``(arrival_seq, Update)`` pair; the per-key bucket makes
        #: local-priority discard / keep / effective O(1) per key
        self._pending: dict[str, list[tuple[int, Update]]] = {}
        self._pending_seq = 0
        self._pending_n = 0
        self.windows: list[WaitWindow] = []
        self.executing = False
        self._seen_msg_ids: set[int] = set()
        self._seen_order: deque[int] = deque()
        #: per-key count of *received* remote updates; lets the
        #: interpreter detect that a remote update to a key arrived
        #: between sending an update and getting its (possibly
        #: retransmitted, hence late) ack — see ``recv_seq_of``
        self._recv_seq: dict[str, int] = {}
        #: called when an update arrives while idle (runtime uses this
        #: to attempt a scheduling of the owning junction)
        self.on_idle_update: Callable[[], None] | None = None
        #: called with (key, old_value) just before a local write is
        #: applied — the interpreter's transaction undo logging
        self.on_local_write: Callable[[str, object], None] | None = None
        #: undo-log frames: lists of (slot, old_value) in write order
        self._tx_stack: list[list[tuple[int, object]]] = []
        #: keys the owning junction's guard reads; writes to them set
        #: ``guard_dirty`` so the scheduler can skip clean re-evaluation
        self._guard_keys: frozenset[str] = frozenset()
        self.guard_tracked = False
        self.guard_dirty = True
        self.guard_cached: bool | None = None
        # cached metric handles; None until attach_telemetry so a bare
        # KVTable (unit tests) pays nothing
        self._telemetry = None
        self._ctr_received = None
        self._ctr_applied = None
        self._gauge_pending = None

    def attach_telemetry(self, telemetry) -> None:
        """Wire this table's KV counters into a system's telemetry
        registry: ``kv_updates_received`` / ``kv_updates_applied``
        counters and a ``kv_pending_updates`` gauge, all labeled by the
        owning junction node.  Handles are cached so the instrumented
        paths cost one integer increment each.  ``kv_updates_refused``
        is made at the first refusal, so a table that refuses nothing
        exports no such counter."""
        self._telemetry = telemetry
        self._ctr_received = telemetry.counter("kv_updates_received", node=self.owner)
        self._ctr_applied = telemetry.counter("kv_updates_applied", node=self.owner)
        self._gauge_pending = telemetry.gauge("kv_pending_updates", node=self.owner)

    # -- declaration-time ---------------------------------------------------

    def declare(self, key: str, value: object) -> None:
        """Lay ``key`` out, holding ``value``, in a table no image
        fills (unit tests, micro-probes); a filled table's index is
        read-only, so this cannot grow a bound table."""
        if key not in self.index:
            self.index[key] = len(self.keys)
            self.keys += (key,)
            self.slots.append(UNDEF)
        self._store_named(key, value)

    def has(self, key: str) -> bool:
        return key in self.index

    # -- guard footprint tracking -------------------------------------------

    def set_guard_tracking(self, keys: Iterable[str] | None) -> None:
        """Install (or clear, with ``None``) the set of keys the owning
        junction's pure guard reads.  While tracked and clean, the
        scheduler may reuse the last guard verdict instead of
        re-evaluating the formula."""
        if keys is None:
            self._guard_keys = frozenset()
            self.guard_tracked = False
        else:
            self._guard_keys = frozenset(keys)
            self.guard_tracked = True
        self.guard_dirty = True
        self.guard_cached = None

    # -- reads ------------------------------------------------------------

    def get(self, key: str) -> object:
        if key not in self.index:
            raise KeyError(f"{self.owner}: no junction state {key!r}")
        return self.slots[self.index[key]]

    def get_prop(self, key: str) -> bool:
        v = self.get(key)
        if not isinstance(v, bool):
            raise TypeError(f"{self.owner}: {key!r} is not a proposition")
        return v

    def truth(self, key: str) -> object:
        """``key``'s truth for formula evaluation: a proposition's
        value, else UNKNOWN (a data key, or a key the table lacks, as
        a ``γ@F`` read of another junction's table may name)."""
        index = self.index
        v = self.slots[index[key]] if key in index else None
        return v if v is True or v is False else UNKNOWN

    def effective(self, key: str) -> object:
        """Value of ``key`` with the pending overlay applied (used by
        guard evaluation at scheduling attempts)."""
        b = self._pending.get(key)
        if b is not None:
            return b[-1][1].value
        index = self.index
        return self.slots[index[key]] if key in index else UNDEF

    def snapshot(self) -> dict[str, object]:
        """A shallow copy of current values (for checkpointing)."""
        return dict(zip(self.keys, self.slots))

    # -- pending queue (read side) -----------------------------------------

    @property
    def pending(self) -> tuple[Update, ...]:
        """Queued remote updates in global arrival order.

        A read-only reconstruction from the per-key buckets — enqueue
        through :meth:`receive` or :meth:`enqueue_pending`, never by
        mutating this value (hence a tuple: stray ``.append`` calls
        fail loudly instead of vanishing)."""
        if not self._pending:
            return ()
        tagged = [su for b in self._pending.values() for su in b]
        tagged.sort(key=lambda su: su[0])
        return tuple(u for _, u in tagged)

    def pending_updates(self) -> list[Update]:
        """The queued updates, arrival-ordered, as a list; explicit
        form for transfer paths (reconfiguration snapshots)."""
        return list(self.pending)

    @property
    def pending_count(self) -> int:
        return self._pending_n

    @property
    def has_pending(self) -> bool:
        return bool(self._pending)

    def enqueue_pending(self, updates: Iterable[Update]) -> None:
        """Queue updates directly (reconfiguration restore: carry a
        predecessor table's unapplied backlog into this table).  Does
        not count as *receiving* — dedup/recv-seq already happened in
        the previous incarnation.  An update to a key this table does
        not declare (its new binding dropped the key) is not queued."""
        for u in updates:
            if u.key in self.index:
                self._enqueue(u)

    # -- internal write helpers --------------------------------------------

    def _store_named(self, key: str, value: object) -> None:
        """Plain by-name store of a declared key: tx-logged, marks the
        guard dirty; no local-priority discard (that is
        :meth:`set_local`'s job)."""
        if key not in self.index:
            raise KeyError(f"{self.owner}: no junction state {key!r}")
        i = self.index[key]
        if self._tx_stack:
            self._tx_stack[-1].append((i, self.slots[i]))
        self.slots[i] = value
        if key in self._guard_keys:
            self.guard_dirty = True

    def _discard_pending(self, key: str) -> None:
        b = self._pending.pop(key, None)
        if b is not None:
            self._pending_n -= len(b)
            self._note_pending()

    # -- local writes -------------------------------------------------------

    def set_local(self, key: str, value: object, discard: bool = True) -> None:
        """A local update (save / assert / retract / host write).  Local
        updates overwrite — and therefore discard — pending remote
        updates to the same key; ``discard=False`` writes under them
        instead (:meth:`confirm_local`)."""
        if key not in self.index:
            raise KeyError(f"{self.owner}: no junction state {key!r}")
        i = self.index[key]
        if self.on_local_write is not None:
            self.on_local_write(key, self.slots[i])
        if self._tx_stack:
            self._tx_stack[-1].append((i, self.slots[i]))
        self.slots[i] = value
        if key in self._guard_keys:
            self.guard_dirty = True
        if discard and self.executing and self._pending:
            self._discard_pending(key)

    def set_slot(self, i: int, key: str, value: object) -> None:
        """Slot-direct form of :meth:`set_local` for compiled junction
        bodies: the compiler resolved ``key`` to slot ``i`` at bind
        time, so the hot path skips the index lookup.  ``key`` still
        rides along for the undo-log hook and local-priority discard,
        which are name-keyed."""
        if self.on_local_write is not None:
            self.on_local_write(key, self.slots[i])
        if self._tx_stack:
            self._tx_stack[-1].append((i, self.slots[i]))
        self.slots[i] = value
        if key in self._guard_keys:
            self.guard_dirty = True
        if self.executing and self._pending:
            self._discard_pending(key)

    # -- remote updates ------------------------------------------------------

    def note_msg_id(self, msg_id: int) -> bool:
        """Record a delivered message id; ``False`` if already seen.

        The reliable-delivery layer retransmits updates whose ack was
        lost, so a receiver can see the same update twice; this bounded
        filter makes application of updates exactly-once.  The window is
        FIFO-evicted — message ids are monotonically increasing, so the
        oldest ids are the ones whose retransmissions have longest since
        ceased."""
        if msg_id in self._seen_msg_ids:
            return False
        self._seen_msg_ids.add(msg_id)
        self._seen_order.append(msg_id)
        if len(self._seen_order) > self.DEDUP_WINDOW:
            self._seen_msg_ids.discard(self._seen_order.popleft())
        return True

    def adopt_dedup(self, other: "KVTable") -> None:
        """Carry another table's msg-id dedup window into this one.

        The dedup filter is *transport* state, not junction state: a
        junction restarted (or migrated onto a successor instance) with
        a fresh table must still recognize retransmissions of updates
        the previous incarnation already applied and acknowledged —
        otherwise a retransmission whose ack was lost re-applies into
        the fresh window and breaks exactly-once application."""
        self._seen_msg_ids = set(other._seen_msg_ids)
        self._seen_order = deque(other._seen_order)

    def recv_seq_of(self, key: str) -> int:
        """How many remote updates to ``key`` have ever arrived.  The
        interpreter samples this before a remote assert/retract and
        applies the deferred local effect only if it is unchanged when
        the ack arrives: an acknowledgement (especially a retransmitted
        one) confirms *old* information, and must not overwrite — and,
        via local priority, discard — a newer remote update."""
        return self._recv_seq.get(key, 0)

    def late_ack_mark(self, key: str) -> tuple[int, int]:
        """``key``'s receive count and the queue's arrival stamp, sampled
        before a remote update is sent; :meth:`confirm_local` compares
        against them when its ack arrives."""
        return self.recv_seq_of(key), self._pending_seq

    def confirm_local(self, key: str, value: object, mark: tuple[int, int]) -> None:
        """The sender's copy of an acknowledged ``assert[γ]`` /
        ``retract[γ]`` (``mark`` from :meth:`late_ack_mark`).

        With no remote update to ``key`` received since the send it is
        a local update.  An ack confirms old state, so a newer remote
        update wins: if one was applied, the copy is dropped; if every
        newer one is still queued, the copy is written under them — the
        junction sees its own confirmed write now, and the queued update
        still applies after it when the junction is next scheduled."""
        if key not in self.index:
            return
        recv_before, queued_before = mark
        newer = self.recv_seq_of(key) - recv_before
        if not newer:
            self.set_local(key, value)
        elif newer == sum(1 for seq, _ in self._pending.get(key, ()) if seq > queued_before):
            self.set_local(key, value, discard=False)

    def _note_pending(self) -> None:
        if self._gauge_pending is not None:
            self._gauge_pending.set(self._pending_n)

    def _enqueue(self, update: Update) -> None:
        self._pending_seq += 1
        b = self._pending.get(update.key)
        if b is None:
            self._pending[update.key] = [(self._pending_seq, update)]
        else:
            b.append((self._pending_seq, update))
        self._pending_n += 1
        self._note_pending()

    def receive(self, update: Update) -> None:
        """Handle an arriving remote update.  One to a key the table
        does not declare is refused: counted in ``kv_updates_refused``,
        never stored or queued (the sender is still acked)."""
        key = update.key
        c = self._ctr_received
        if c is not None:
            c.value += 1  # Counter.inc, sans the method call
        if key not in self.index:
            if self._telemetry is not None:
                self._telemetry.counter("kv_updates_refused", node=self.owner).inc()
            return
        rs = self._recv_seq
        rs[key] = rs.get(key, 0) + 1
        if self.executing:
            if self.windows and any(
                w.active and key in w.admits for w in self.windows
            ):
                self._store_named(key, update.value)
                if self._ctr_applied is not None:
                    self._ctr_applied.inc()
                for w in list(self.windows):
                    if w.active and key in w.admits:
                        w.on_update(key)
                return
            self._enqueue(update)
            return
        # idle enqueue, inlined: every update arriving between
        # schedulings lands here — the hottest single path in a
        # remote-update storm
        self._pending_seq += 1
        b = self._pending.get(key)
        if b is None:
            self._pending[key] = [(self._pending_seq, update)]
        else:
            b.append((self._pending_seq, update))
        self._pending_n += 1
        g = self._gauge_pending
        if g is not None:
            g.value = self._pending_n
        cb = self.on_idle_update
        if cb is not None:
            cb()

    def apply_pending(self) -> int:
        """Apply queued updates (called when the junction is
        scheduled).  Per key only the last-arrived value is written —
        observably identical to replaying the bucket in order — but the
        returned count covers every queued update, as before.  Returns
        the number applied."""
        n = self._pending_n
        if n:
            index = self.index
            slots = self.slots
            tx = self._tx_stack[-1] if self._tx_stack else None
            gk = self._guard_keys
            dirty = False
            for key, b in self._pending.items():
                i = index[key]
                if tx is not None:
                    tx.append((i, slots[i]))
                slots[i] = b[-1][1].value
                if key in gk:
                    dirty = True
            if dirty:
                self.guard_dirty = True
            self._pending.clear()
            self._pending_n = 0
            if self._ctr_applied is not None:
                self._ctr_applied.inc(n)
        self._note_pending()
        return n

    def apply_pending_for(self, keys: Iterable[str]) -> int:
        """Apply queued updates to the given keys only, leaving the
        rest queued.

        Used at ``wait`` entry: the statement "allows the junction's
        table to reflect changes" to its propositions and listed data —
        including changes that arrived (and were queued) moments before
        the wait opened its window."""
        applied = 0
        if self._pending:
            for key in set(keys).intersection(self._pending):
                b = self._pending.pop(key)
                applied += len(b)
                self._store_named(key, b[-1][1].value)
            if applied:
                self._pending_n -= applied
                if self._ctr_applied is not None:
                    self._ctr_applied.inc(applied)
        self._note_pending()
        return applied

    def keep(self, keys: Iterable[str]) -> None:
        dropped = 0
        if self._pending:
            for key in set(keys).intersection(self._pending):
                dropped += len(self._pending.pop(key))
        if dropped:
            self._pending_n -= dropped
            self._note_pending()

    # -- wait windows -----------------------------------------------------------

    def open_window(self, admits: frozenset[str], on_update: Callable[[str], None]) -> WaitWindow:
        w = WaitWindow(admits, on_update)
        self.windows.append(w)
        return w

    def close_window(self, window: WaitWindow) -> None:
        window.close()
        self.windows = [w for w in self.windows if w.active]

    # -- transactions ----------------------------------------------------------

    def tx_begin(self) -> None:
        self._tx_stack.append([])

    def tx_commit(self) -> None:
        frame = self._tx_stack.pop()
        if self._tx_stack:
            # nested commit: the enclosing transaction must still be
            # able to undo the inner transaction's writes
            self._tx_stack[-1].extend(frame)

    def tx_rollback(self) -> None:
        frame = self._tx_stack.pop()
        gk = self._guard_keys
        dirty = False
        keys = self.keys
        for i, old in reversed(frame):
            self.slots[i] = old
            if keys[i] in gk:
                dirty = True
        if dirty:
            self.guard_dirty = True

    @property
    def in_transaction(self) -> bool:
        return bool(self._tx_stack)
