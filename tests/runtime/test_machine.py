"""The junction-body machine's instruction set, without a front-end.

Each body below is a hand-written generator that touches the runtime
only through ``JunctionExecution``'s public ops — no AST, no codegen —
installed as a junction's ``body_fn`` and run by the machine.  This is
the executable form of docs/RUNTIME.md, "The junction-body machine".
"""

from repro.compile import JunctionCode
from repro.core.errors import DeliveryFailure, RetryExhausted, RetrySignal
from repro.core.formula import Prop

from .helpers import failures_of, pair, single_junction


def install(system, node, body_fn):
    """Replace a started junction's body with ``body_fn(ex, consts)``."""
    jr = system.junction(node)
    jr.code = JunctionCode(node=node, source="", body_fn=body_fn, guard_fn=None, consts=())


def started_pair(**decls):
    sys_ = pair("skip", "skip", **decls)
    sys_.start(t=1)
    sys_.run_until(0.5)  # the start-up attempts run the placeholder bodies
    return sys_


class TestSendUpdate:
    def test_ack_wakes_the_strand(self):
        sys_ = started_pair(g_decls="| init prop !Work")
        acked_at = []

        def body(ex, consts):
            yield ex.send_update(ex.resolve("g"), "Work", True)
            acked_at.append(ex.system.now)

        install(sys_, "f::j", body)
        sys_.poke("f::j")
        sys_.run_until(5.0)
        assert failures_of(sys_) == []
        assert sys_.read_state("g::j", "Work") is True
        assert acked_at == [0.5 + 2 * 0.01]  # one hop there, one back

    def test_delivery_failure_is_thrown_into_the_parked_strand(self):
        sys_ = started_pair(g_decls="| init prop !Work")
        caught = []

        def body(ex, consts):
            try:
                yield ex.send_update(ex.resolve("g"), "Work", True)
            except DeliveryFailure as exc:
                caught.append(exc)

        install(sys_, "f::j", body)
        sys_.crash_instance("g")
        sys_.poke("f::j")
        sys_.run_until(30.0)
        assert len(caught) == 1
        assert failures_of(sys_) == []  # the body handled it
        assert sys_.delivery.outstanding == {}


class TestWait:
    def test_window_admits_the_awaited_key_only(self):
        sys_ = single_junction("skip", decls="| init prop !Go | init prop !Other")
        sys_.start()
        sys_.run_until(0.5)
        seen = []

        def body(ex, consts):
            yield ex.wait(Prop("Go"))
            # Go came in through the window; Other is still queued
            seen.append((ex.table.get("Go"), ex.table.get("Other"), ex.table.pending_count))

        install(sys_, "x::j", body)
        sys_.poke("x::j")
        sys_.run_until(1.0)
        sys_.external_update("x::j", "Other", True, poke=False)
        sys_.external_update("x::j", "Go", True, poke=False)
        sys_.run_until(2.0)
        # (the queued Other then re-schedules the junction: a second run)
        assert seen[0] == (True, False, 1)
        assert failures_of(sys_) == []


class TestTransaction:
    def test_rollback_in_one_parallel_strand_leaves_the_siblings_writes(self):
        sys_ = single_junction(
            "skip", decls="| init prop !A | init prop !B | init prop !Never"
        )
        sys_.bind_host("T", "Take", lambda ctx: ctx.take(0.1))
        sys_.start()
        sys_.run_until(0.5)
        outcome = []

        def failing(ex):
            with ex.transaction():
                ex.table.set_local("A", True)
                yield from ex.host("Take", ())  # sibling writes B meanwhile
                ex.verify(Prop("Never"))

        def sibling(ex):
            ex.table.set_local("B", True)
            yield from ()

        def body(ex, consts):
            with ex.deadline(None) as scope:
                yield ex.join([failing(ex), sibling(ex)])
            outcome.append(scope.failed)

        install(sys_, "x::j", body)
        sys_.poke("x::j")
        sys_.run_until(2.0)
        assert outcome == [True]
        assert sys_.read_state("x::j", "A") is False  # rolled back
        assert sys_.read_state("x::j", "B") is True  # not the sibling's write
        assert failures_of(sys_) == []


class TestDeadline:
    def test_inner_scope_does_not_absorb_the_enclosing_deadline(self):
        sys_ = single_junction("skip", decls="| init prop !Never")
        sys_.start()
        sys_.run_until(0.5)
        log = []

        def body(ex, consts):
            with ex.deadline(0.1) as outer:
                with ex.deadline(5.0) as inner:
                    yield ex.wait(Prop("Never"))
                log.append(("inner handler", inner.failed))
            log.append(("outer handler", outer.failed, ex.system.now))

        install(sys_, "x::j", body)
        sys_.poke("x::j")
        sys_.run_until(10.0)
        assert log == [("outer handler", True, 0.6)]
        assert failures_of(sys_) == []


class TestRetry:
    def test_retry_past_the_budget_raises_retry_exhausted(self):
        sys_ = single_junction("skip", max_retries=3)
        sys_.start()
        sys_.run_until(0.5)
        runs = []

        def body(ex, consts):
            while True:
                try:
                    runs.append(ex.system.now)
                    raise RetrySignal()
                except RetrySignal:
                    ex.retry()
            yield

        install(sys_, "x::j", body)
        sys_.poke("x::j")
        sys_.run_until(1.0)
        assert len(runs) == 4  # the first run and three retries
        [(_, node, failure)] = sys_.failures
        assert node == "x::j" and isinstance(failure, RetryExhausted)
        assert str(failure) == "x::j: retry invoked more than 3 times"
