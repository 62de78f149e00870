"""Property-based runtime tests (hypothesis)."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.runtime.kvtable import KVTable, Update
from repro.runtime.sim import ScheduleController, Simulator

KEYS = ["A", "B", "C"]


# ---------------------------------------------------------------------------
# Simulator ordering
# ---------------------------------------------------------------------------

_DELAYS = st.one_of(st.sampled_from([0.0, 0.0, 0.0, 0.5, 1.0]), st.floats(0, 20))
#: one scheduling action: a call (kind, delay, priority, cancelled at
#: once), a cancel of the n-th most recent handle (it may have fired
#: already), or a burst of far timers mostly cancelled
SIM_ACTIONS = st.one_of(
    st.tuples(st.sampled_from(["at", "after"]), _DELAYS,
              st.one_of(st.just(0), st.integers(-2, 2)), st.booleans()),
    st.tuples(st.just("post")),
    st.tuples(st.just("cancel"), st.integers(0, 4)),
    st.tuples(st.just("burst"), st.integers(65, 160), st.integers(2, 5)),
)


def replay_script(script, seeds, controlled, drain):
    """Run a scheduling script on a fresh Simulator, asserting at every
    firing that the event is the least live key."""
    sim = Simulator()
    if controlled:
        sim.controller = ScheduleController()
    live: set[tuple] = set()
    handles: list[tuple] = []  # (handle, key), fired ones included
    seq = iter(range(10**9))  # the simulator's own numbering
    steps = iter(script)

    def fire(key):
        assert key == min(live)
        assert sim.now == key[0]
        live.remove(key)
        assert sim.pending_events() == len(live)
        act(next(steps, None))

    def schedule(kind, delay=0.0, prio=0, cancel=False):
        key = (sim.now + delay, prio, next(seq))
        cb = lambda: fire(key)  # noqa: E731
        if kind == "post":
            sim.post(cb)
        elif kind == "at":
            handles.append((sim.call_at(key[0], cb, prio), key))
        else:
            handles.append((sim.call_after(delay, cb, prio), key))
        live.add(key)
        if cancel:
            handles[-1][0].cancel()
            live.remove(key)

    def act(step):
        if step is None:
            return
        if step[0] == "cancel":
            if handles:
                handle, key = handles[-1 - step[1] % len(handles)]
                handle.cancel()
                live.discard(key)
        elif step[0] == "burst":  # enough dead entries to compact the heap
            n, keep_every = step[1], step[2]
            for i in range(n):
                schedule("after", 50.0 + i, 0)
            for handle, key in handles[-n:]:
                if key[2] % keep_every:
                    handle.cancel()
                    live.discard(key)
        else:
            schedule(*step)
        assert sim.pending_events() == len(live)

    for _ in range(seeds):
        act(next(steps, None))
    if drain == "run":
        sim.run()
    elif drain == "step":
        while sim.step():
            pass
    else:
        for horizon in (0.0, 1.0, 30.0, 1e9):
            sim.run_until(horizon)
            assert all(key[0] > horizon for key in live)
    assert not live and sim.pending_events() == 0


class TestSimulatorProperties:
    @given(st.lists(st.tuples(st.floats(0, 100), st.integers(-2, 2)), max_size=30))
    @settings(max_examples=100)
    def test_events_fire_in_time_priority_order(self, specs):
        sim = Simulator()
        fired = []
        for i, (t, prio) in enumerate(specs):
            sim.call_at(t, lambda t=t, p=prio, i=i: fired.append((t, p, i)), priority=prio)
        sim.run()
        assert fired == sorted(fired)

    @given(st.lists(st.floats(0, 50), min_size=1, max_size=20))
    @settings(max_examples=100)
    def test_clock_monotone(self, times):
        sim = Simulator()
        seen = []
        for t in times:
            sim.call_at(t, lambda: seen.append(sim.now))
        sim.run()
        assert seen == sorted(seen)
        assert sim.now == max(times)

    @given(st.lists(SIM_ACTIONS, min_size=1, max_size=40), st.integers(1, 6))
    @settings(max_examples=300, deadline=None)
    def test_each_firing_is_the_least_live_key(self, script, seeds):
        """Every event that fires is the least ``(time, priority, seq)``
        key among the live ones, whatever mix of scheduling calls,
        cancels (before and after firing), re-scheduling callbacks and
        compaction bursts produced them; ``pending_events()`` stays
        exact throughout.  With a base controller attached (every event
        on the heap, co-enabled sets chosen at index 0) the order is the
        same; each drain loop (``run``, ``run_until``, ``step``) is
        checked."""
        for controlled in (False, True):
            for drain in ("run", "run_until", "step"):
                replay_script(script, seeds, controlled, drain)


# ---------------------------------------------------------------------------
# KV-table local priority
# ---------------------------------------------------------------------------

#: an op is ('remote', key, value) | ('local', key, value) |
#: ('apply',) | ('keep', key)
ops = st.lists(
    st.one_of(
        st.tuples(st.just("remote"), st.sampled_from(KEYS), st.booleans()),
        st.tuples(st.just("local"), st.sampled_from(KEYS), st.booleans()),
        st.tuples(st.just("apply")),
        st.tuples(st.just("keep"), st.sampled_from(KEYS)),
    ),
    max_size=25,
)


def run_ops(sequence, executing=True):
    t = KVTable("p::j")
    for k in KEYS:
        t.declare(k, False)
    t.executing = executing
    model = {k: False for k in KEYS}          # what values should be
    pending_model: list[tuple[str, bool]] = []  # queued remote updates
    for op in sequence:
        if op[0] == "remote":
            _, k, v = op
            t.receive(Update(key=k, value=v, src="q::j"))
            pending_model.append((k, v))
        elif op[0] == "local":
            _, k, v = op
            t.set_local(k, v)
            model[k] = v
            if executing:
                pending_model = [(pk, pv) for pk, pv in pending_model if pk != k]
        elif op[0] == "apply":
            n = t.apply_pending()
            assert n == len(pending_model)
            for k, v in pending_model:
                model[k] = v
            pending_model = []
        else:  # keep
            _, k = op
            t.keep([k])
            pending_model = [(pk, pv) for pk, pv in pending_model if pk != k]
    return t, model, pending_model


class TestKVTableProperties:
    @given(ops)
    @settings(max_examples=200)
    def test_local_priority_model(self, sequence):
        """The table always agrees with a simple reference model of the
        paper's local-priority rule."""
        t, model, pending_model = run_ops(sequence)
        for k in KEYS:
            assert t.values[k] == model[k]
        assert [(u.key, u.value) for u in t.pending] == pending_model

    @given(ops)
    @settings(max_examples=100)
    def test_effective_equals_apply(self, sequence):
        """``effective`` previews exactly what ``apply_pending`` yields."""
        t, _model, _pending = run_ops(sequence)
        preview = {k: t.effective(k) for k in KEYS}
        t.apply_pending()
        for k in KEYS:
            assert t.values[k] == preview[k]

    @given(ops)
    @settings(max_examples=100)
    def test_apply_idempotent_when_drained(self, sequence):
        t, _m, _p = run_ops(sequence)
        t.apply_pending()
        snapshot = dict(t.values)
        assert t.apply_pending() == 0
        assert t.values == snapshot


# ---------------------------------------------------------------------------
# End-to-end determinism
# ---------------------------------------------------------------------------

class TestDeterminism:
    @given(st.integers(0, 2**31))
    @settings(max_examples=10, deadline=None)
    def test_fig3_trace_is_seed_independent_and_stable(self, seed):
        """The Fig. 3 handshake produces the identical trace regardless
        of RNG seed (no randomness on this path) — full determinism."""
        from repro.core.compiler import compile_program
        from repro.runtime.system import System

        src = """
        instance_types { F, G }
        instances { f: F, g: G }
        def main(t) = start f(t) + start g(t)
        def F::j(t) =
          | init prop !Work
          | init data n
          save(n); write(n, g); assert[g] Work; wait[] !Work
        def G::j(t) =
          | init prop !Work
          | init data n
          | guard Work
          restore(n); retract[f] Work
        """

        def run(s):
            sys_ = System(compile_program(src), seed=s)
            sys_.bind_state("F", save=lambda a, i: 1, restore=lambda a, i, o: None)
            sys_.bind_state("G", save=lambda a, i: None, restore=lambda a, i, o: None)
            sys_.start(t=5)
            sys_.run_until(5.0)
            return [(e.time, e.kind, e.node) for e in sys_.telemetry.events]

        assert run(seed) == run(0)


# ---------------------------------------------------------------------------
# Reliable-delivery bookkeeping on the table
# ---------------------------------------------------------------------------

class TestDedupWindowProperties:
    @given(
        st.lists(
            st.tuples(st.integers(0, 4300), st.integers(1, 256)),
            max_size=40,
        )
    )
    @settings(max_examples=30, deadline=None)
    def test_exactly_once_across_window_eviction(self, retransmits):
        """A storm of more distinct message ids than the dedup window
        holds: every fresh id is accepted exactly once, and every
        retransmission arriving within the window of its original is
        suppressed — including ids old enough that the FIFO eviction
        has already cycled past them and back."""
        n = KVTable.DEDUP_WINDOW + 512
        # retransmit id `i` right after the `i + lag`-th fresh delivery
        resend_after: dict[int, list[int]] = {}
        for i, lag in retransmits:
            resend_after.setdefault(min(i + lag, n - 1), []).append(i)
        t = KVTable("p::j")
        accepted = 0
        for i in range(n):
            accepted += t.note_msg_id(i)
            for j in resend_after.get(i, ()):
                # lag <= 256 << DEDUP_WINDOW: still inside the window
                assert not t.note_msg_id(j)
        assert accepted == n
        # the filter stays bounded no matter how long the storm runs
        assert len(t._seen_msg_ids) <= KVTable.DEDUP_WINDOW

    @given(st.integers(1, 2**63))
    @settings(max_examples=50)
    def test_single_id_idempotent(self, msg_id):
        t = KVTable("p::j")
        assert t.note_msg_id(msg_id)
        assert not t.note_msg_id(msg_id)
        assert not t.note_msg_id(msg_id)


class TestRecvSeqProperties:
    @given(ops)
    @settings(max_examples=150)
    def test_recv_seq_counts_arrivals_only(self, sequence):
        """``recv_seq_of`` counts *received* remote updates per key and
        nothing else — applying, keeping, and local-priority discard
        leave it untouched.  That is what makes it usable as a late-ack
        guard: the interpreter samples it before a remote
        assert/retract, and a changed value when the (possibly
        retransmitted) ack arrives proves a newer remote update landed
        in between, so the ack's deferred local effect must not
        outlive it (``KVTable.confirm_local``)."""
        t = KVTable("p::j")
        for k in KEYS:
            t.declare(k, False)
        t.executing = True
        arrived = {k: 0 for k in KEYS}
        for op in sequence:
            if op[0] == "remote":
                _, k, v = op
                t.receive(Update(key=k, value=v, src="q::j"))
                arrived[k] += 1
            elif op[0] == "local":
                t.set_local(op[1], op[2])
            elif op[0] == "apply":
                t.apply_pending()
            else:
                t.keep([op[1]])
            for k in KEYS:
                assert t.recv_seq_of(k) == arrived[k]

    @given(ops, st.sampled_from(KEYS))
    @settings(max_examples=100)
    def test_late_ack_guard_fires_iff_key_saw_arrivals(self, sequence, key):
        """The late-ack pattern end to end: sample the seq, run an
        arbitrary interleaving, and the sample is stale exactly when a
        remote update to that key arrived during it."""
        t = KVTable("p::j")
        for k in KEYS:
            t.declare(k, False)
        t.executing = True
        sampled = t.recv_seq_of(key)
        arrivals = 0
        for op in sequence:
            if op[0] == "remote":
                _, k, v = op
                t.receive(Update(key=k, value=v, src="q::j"))
                arrivals += k == key
            elif op[0] == "local":
                t.set_local(op[1], op[2])
            elif op[0] == "apply":
                t.apply_pending()
            else:
                t.keep([op[1]])
        assert (t.recv_seq_of(key) != sampled) == (arrivals > 0)

    @given(ops, st.sampled_from(KEYS), st.booleans())
    @settings(max_examples=150)
    def test_a_confirmed_copy_never_outlives_a_newer_update(self, sequence, key, value):
        """``confirm_local``, the sender's copy of an acknowledged remote
        assert/retract: once the queue is applied, ``key`` holds the
        confirmed value if no remote update to it arrived since the
        mark, and otherwise what it would hold without the copy."""
        with_copy, without = KVTable("p::j"), KVTable("p::j")
        for t in (with_copy, without):
            for k in KEYS:
                t.declare(k, False)
            t.executing = True
        mark = with_copy.late_ack_mark(key)
        arrivals = 0
        for op in sequence:
            for t in (with_copy, without):
                if op[0] == "remote":
                    t.receive(Update(key=op[1], value=op[2], src="q::j"))
                elif op[0] == "local":
                    t.set_local(op[1], op[2])
                elif op[0] == "apply":
                    t.apply_pending()
                else:
                    t.keep([op[1]])
            arrivals += op[0] == "remote" and op[1] == key
        with_copy.confirm_local(key, value, mark)
        for t in (with_copy, without):
            t.apply_pending()
        assert with_copy.values[key] == (without.values[key] if arrivals else value)
        for k in KEYS:
            if k != key:
                assert with_copy.values[k] == without.values[k]
