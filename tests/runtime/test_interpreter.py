"""Interpreter semantics: the DSL statement behaviours, one by one."""

import pytest

from repro.core.errors import (
    RetryExhausted,
    UndefError,
    VerifyFailure,
    VerifyUnknown,
)
from repro.runtime import FaultPlan
from repro.runtime.kvtable import UNDEF

from .helpers import failures_of, pair, single_junction


class TestSequenceAndHost:
    def test_host_blocks_run_in_order(self):
        sys_ = single_junction("host A; host B")
        log = []
        sys_.bind_host("T", "A", lambda ctx: log.append("A"))
        sys_.bind_host("T", "B", lambda ctx: log.append("B"))
        sys_.start()
        sys_.run_until(1.0)
        assert log == ["A", "B"]

    def test_host_take_advances_time(self):
        sys_ = single_junction("host A; host B")
        times = []
        sys_.bind_host("T", "A", lambda ctx: (times.append(ctx.now), ctx.take(0.5)))
        sys_.bind_host("T", "B", lambda ctx: times.append(ctx.now))
        sys_.start()
        sys_.run_until(1.0)
        assert times == [0.0, 0.5]

    def test_missing_host_binding_fails_junction(self):
        sys_ = single_junction("host Nope")
        sys_.start()
        sys_.run_until(1.0)
        assert "HostError" in failures_of(sys_)

    def test_host_exception_wrapped(self):
        sys_ = single_junction("host Boom")
        sys_.bind_host("T", "Boom", lambda ctx: 1 / 0)
        sys_.start()
        sys_.run_until(1.0)
        assert "HostError" in failures_of(sys_)

    def test_host_write_permission_enforced(self):
        sys_ = single_junction("host H", decls="| init prop !P")
        sys_.bind_host("T", "H", lambda ctx: ctx.set("P", True))
        sys_.start()
        sys_.run_until(1.0)
        assert "HostError" in failures_of(sys_)

    def test_host_declared_write_allowed(self):
        sys_ = single_junction("host H {P}", decls="| init prop !P")
        sys_.bind_host("T", "H", lambda ctx: ctx.set("P", True))
        sys_.start()
        sys_.run_until(1.0)
        assert sys_.read_state("x::j", "P") is True

    def test_host_reads_params(self):
        sys_ = single_junction("host H", params="t")
        seen = []
        sys_.bind_host("T", "H", lambda ctx: seen.append(ctx["t"]))
        sys_.start(t=7)
        sys_.run_until(1.0)
        assert seen == [7.0]


class TestSaveRestoreWrite:
    def test_save_then_restore_roundtrip(self):
        sys_ = single_junction("save(n); restore(n)", decls="| init data n")
        state = {"v": 1}
        got = []
        sys_.bind_state("T", save=lambda a, i: dict(state), restore=lambda a, i, o: got.append(o))
        sys_.start()
        sys_.run_until(1.0)
        assert got == [{"v": 1}]

    def test_restore_of_undef_fails(self):
        sys_ = single_junction("restore(n)", decls="| init data n")
        sys_.bind_state("T", save=lambda a, i: None, restore=lambda a, i, o: None)
        sys_.start()
        sys_.run_until(1.0)
        assert "UndefError" in failures_of(sys_)

    def test_write_of_undef_fails(self):
        sys_ = pair("write(n, g)", "skip", f_decls="| init data n")
        sys_.start(t=1)
        sys_.run_until(1.0)
        assert "UndefError" in failures_of(sys_)

    def test_write_transfers_data(self):
        sys_ = pair(
            "save(n); write(n, g); assert[g] Work",
            "restore(n)",
            f_decls="| init data n\n| init prop !Work",
            g_decls="| init data n\n| init prop !Work",
            g_guard="Work",
        )
        received = []
        sys_.bind_state("F", save=lambda a, i: {"x": 9}, restore=lambda a, i, o: None)
        sys_.bind_state("G", save=lambda a, i: None, restore=lambda a, i, o: received.append(o))
        sys_.start(t=5)
        sys_.run_until(2.0)
        assert received == [{"x": 9}]

    def test_data_name_scoped_providers(self):
        sys_ = single_junction(
            "save(a); save(b)", decls="| init data a\n| init data b"
        )
        sys_.bind_state("T", data_name="a", save=lambda ap, i: "A")
        sys_.bind_state("T", data_name="b", save=lambda ap, i: "B")
        sys_.start()
        sys_.run_until(1.0)
        from repro.serde import SavedData

        assert isinstance(sys_.read_state("x::j", "a"), SavedData)


class TestAssertRetractWait:
    def test_local_assert(self):
        sys_ = single_junction("assert[] P", decls="| init prop !P")
        sys_.start()
        sys_.run_until(1.0)
        assert sys_.read_state("x::j", "P") is True

    def test_remote_assert_updates_both_after_ack(self):
        sys_ = pair("assert[g] Work", "skip", f_decls="| init prop !Work",
                    g_decls="| init prop !Work", g_guard="Work")
        sys_.start(t=5)
        sys_.run_until(1.0)
        assert sys_.read_state("f::j", "Work") is True

    def test_failed_remote_assert_leaves_local_unchanged(self):
        # g is never started; the assert never acks, so f's local Work
        # stays false after the timeout — the Fig. 4 retry prerequisite
        sys_ = pair(
            "(assert[g] Work otherwise[t] skip); host Check",
            "skip",
            f_decls="| init prop !Work",
            g_decls="| init prop !Work",
        )
        src = sys_.program.source
        # start only f
        checked = []
        sys_.bind_host("F", "Check", lambda ctx: checked.append(ctx["Work"]))
        sys_.exec_start(
            __import__("repro.core.ast", fromlist=["ast"]).ref("f"),
            ((None, (__import__("repro.core.ast", fromlist=["ast"]).Num(0.2),)),),
            None,
        )
        sys_.run_until(2.0)
        assert checked == [False]

    def test_wait_immediately_true_returns(self):
        sys_ = single_junction(
            "assert[] P; wait[] P; host After", decls="| init prop !P"
        )
        log = []
        sys_.bind_host("T", "After", lambda ctx: log.append(ctx.now))
        sys_.start()
        sys_.run_until(1.0)
        assert log == [0.0]

    def test_wait_blocks_until_remote_retract(self):
        sys_ = pair(
            "assert[g] Work; wait[] !Work; host Done",
            "retract[f] Work",
            f_decls="| init prop !Work",
            g_decls="| init prop !Work",
            g_guard="Work",
        )
        done = []
        sys_.bind_host("F", "Done", lambda ctx: done.append(ctx.now))
        sys_.start(t=5)
        sys_.run_until(2.0)
        assert len(done) == 1
        assert done[0] > 0

    def test_wait_timeout_via_otherwise(self):
        sys_ = single_junction(
            "wait[] P otherwise[0.5] host TimedOut", decls="| init prop !P"
        )
        log = []
        sys_.bind_host("T", "TimedOut", lambda ctx: log.append(ctx.now))
        sys_.start()
        sys_.run_until(2.0)
        assert log == [0.5]


class TestOtherwise:
    def test_failure_runs_handler(self):
        sys_ = single_junction(
            "(verify P otherwise host H)", decls="| init prop !P"
        )
        log = []
        sys_.bind_host("T", "H", lambda ctx: log.append("handled"))
        sys_.start()
        sys_.run_until(1.0)
        assert log == ["handled"]
        assert failures_of(sys_) == []

    def test_no_failure_skips_handler(self):
        sys_ = single_junction("(skip otherwise host H)")
        log = []
        sys_.bind_host("T", "H", lambda ctx: log.append("handled"))
        sys_.start()
        sys_.run_until(1.0)
        assert log == []

    def test_handler_failure_propagates(self):
        sys_ = single_junction(
            "(verify P otherwise verify P)", decls="| init prop !P"
        )
        sys_.start()
        sys_.run_until(1.0)
        assert "VerifyFailure" in failures_of(sys_)

    def test_nested_deadlines_outer_not_absorbed_by_inner(self):
        # outer deadline 0.3 fires while the body is stuck in an inner
        # otherwise with a long deadline; the inner handler must not
        # absorb the outer timeout
        sys_ = single_junction(
            "( (wait[] P otherwise[10] host Inner) otherwise[0.3] host Outer )",
            decls="| init prop !P",
        )
        log = []
        sys_.bind_host("T", "Inner", lambda ctx: log.append("inner"))
        sys_.bind_host("T", "Outer", lambda ctx: log.append("outer"))
        sys_.start()
        sys_.run_until(2.0)
        assert log == ["outer"]

    def test_inner_deadline_handled_then_outer_body_continues(self):
        sys_ = single_junction(
            "( (wait[] P otherwise[0.2] host Inner); host After ) otherwise[5] host Outer",
            decls="| init prop !P",
        )
        log = []
        for name in ("Inner", "After", "Outer"):
            sys_.bind_host("T", name, lambda ctx, n=name: log.append(n))
        sys_.start()
        sys_.run_until(2.0)
        assert log == ["Inner", "After"]

    def test_timeout_cancels_parallel_children(self):
        sys_ = single_junction(
            "( (wait[] P + wait[] Q) otherwise[0.4] host H )",
            decls="| init prop !P\n| init prop !Q",
        )
        log = []
        sys_.bind_host("T", "H", lambda ctx: log.append(ctx.now))
        sys_.start()
        sys_.run_until(1.0)
        assert log == [0.4]

    def test_return_passes_through_otherwise(self):
        sys_ = single_junction("( (host A; return) otherwise host H ); host B")
        log = []
        for name in ("A", "B", "H"):
            sys_.bind_host("T", name, lambda ctx, n=name: log.append(n))
        sys_.start()
        sys_.run_until(1.0)
        assert log == ["A"]  # return leaves the junction; no handler


class TestTransactions:
    def test_rollback_on_failure(self):
        sys_ = single_junction(
            "( <| assert[] P; verify Q |> otherwise host H )",
            decls="| init prop !P\n| init prop !Q",
        )
        sys_.bind_host("T", "H", lambda ctx: None)
        sys_.start()
        sys_.run_until(1.0)
        assert sys_.read_state("x::j", "P") is False

    def test_commit_on_success(self):
        sys_ = single_junction("<| assert[] P |>", decls="| init prop !P")
        sys_.start()
        sys_.run_until(1.0)
        assert sys_.read_state("x::j", "P") is True

    def test_fate_block_no_rollback(self):
        sys_ = single_junction(
            "( { assert[] P; verify Q } otherwise host H )",
            decls="| init prop !P\n| init prop !Q",
        )
        sys_.bind_host("T", "H", lambda ctx: None)
        sys_.start()
        sys_.run_until(1.0)
        assert sys_.read_state("x::j", "P") is True

    def test_parallel_transactions_isolated(self):
        # sibling A's rollback must not wipe sibling B's committed write
        sys_ = single_junction(
            "( (<| assert[] PA; wait[] Never |> otherwise[0.2] skip)"
            "  + <| assert[] PB |> )",
            decls="| init prop !PA\n| init prop !PB\n| init prop !Never",
        )
        sys_.start()
        sys_.run_until(1.0)
        assert sys_.read_state("x::j", "PA") is False
        assert sys_.read_state("x::j", "PB") is True

    def test_return_through_transaction_commits(self):
        sys_ = single_junction(
            "<| assert[] P; return |>; host Never", decls="| init prop !P"
        )
        sys_.bind_host("T", "Never", lambda ctx: pytest.fail("unreachable"))
        sys_.start()
        sys_.run_until(1.0)
        assert sys_.read_state("x::j", "P") is True


class TestParallel:
    def test_all_branches_complete(self):
        sys_ = single_junction("host A + host B + host C")
        log = []
        for name in "ABC":
            sys_.bind_host("T", name, lambda ctx, n=name: log.append(n))
        sys_.start()
        sys_.run_until(1.0)
        assert sorted(log) == ["A", "B", "C"]

    def test_branch_failure_fails_composition(self):
        sys_ = single_junction(
            "( (host A + verify P) otherwise host H )", decls="| init prop !P"
        )
        log = []
        sys_.bind_host("T", "A", lambda ctx: log.append("A"))
        sys_.bind_host("T", "H", lambda ctx: log.append("H"))
        sys_.start()
        sys_.run_until(1.0)
        assert "H" in log

    def test_branches_interleave_blocking(self):
        # two branches with different sleeps: total is max, not sum
        sys_ = single_junction("host A + host B; host End")
        times = []
        sys_.bind_host("T", "A", lambda ctx: ctx.take(0.5))
        sys_.bind_host("T", "B", lambda ctx: ctx.take(0.3))
        sys_.bind_host("T", "End", lambda ctx: times.append(ctx.now))
        sys_.start()
        sys_.run_until(1.0)
        assert times == [0.5]

    def test_reppar_behaves_like_par(self):
        sys_ = single_junction("host A || host B")
        log = []
        for name in "AB":
            sys_.bind_host("T", name, lambda ctx, n=name: log.append(n))
        sys_.start()
        sys_.run_until(1.0)
        assert sorted(log) == ["A", "B"]


class TestVerify:
    def test_verify_true_passes(self):
        sys_ = single_junction("assert[] P; verify P", decls="| init prop !P")
        sys_.start()
        sys_.run_until(1.0)
        assert failures_of(sys_) == []

    def test_verify_false_fails(self):
        sys_ = single_junction("verify P", decls="| init prop !P")
        sys_.start()
        sys_.run_until(1.0)
        assert "VerifyFailure" in failures_of(sys_)

    def test_verify_at_running_instance(self):
        sys_ = pair("assert[g] Work; verify g@Work", "skip",
                    f_decls="| init prop !Work",
                    g_decls="| init prop !Work", g_guard="Work && false")
        sys_.start(t=5)
        sys_.run_until(1.0)
        assert failures_of(sys_) == []

    def test_verify_at_stopped_instance_is_unknown_error(self):
        sys_ = pair("verify g@Work", "skip",
                    f_decls="| init prop !Work", g_decls="| init prop !Work")
        # start only f
        from repro.core import ast as A

        sys_.exec_start(A.ref("f"), ((None, (A.Num(1.0),)),), None)
        sys_.run_until(1.0)
        names = failures_of(sys_)
        assert "VerifyUnknown" in names

    def test_verify_liveness_guard(self):
        sys_ = pair("verify live(g) -> g@Work", "skip",
                    f_decls="| init prop !Work", g_decls="| init prop !Work")
        from repro.core import ast as A

        sys_.exec_start(A.ref("f"), ((None, (A.Num(1.0),)),), None)
        sys_.run_until(1.0)
        assert failures_of(sys_) == []


class TestCase:
    def _case_sys(self, arms_src, decls):
        return single_junction(arms_src, decls=decls)

    def test_first_true_arm_runs(self):
        sys_ = single_junction(
            "assert[] B; case { A => host HA; break B => host HB; break otherwise => host HO }",
            decls="| init prop !A\n| init prop !B",
        )
        log = []
        for name in ("HA", "HB", "HO"):
            sys_.bind_host("T", name, lambda ctx, n=name: log.append(n))
        sys_.start()
        sys_.run_until(1.0)
        assert log == ["HB"]

    def test_otherwise_when_no_match(self):
        sys_ = single_junction(
            "case { A => host HA; break otherwise => host HO }",
            decls="| init prop !A",
        )
        log = []
        for name in ("HA", "HO"):
            sys_.bind_host("T", name, lambda ctx, n=name: log.append(n))
        sys_.start()
        sys_.run_until(1.0)
        assert log == ["HO"]

    def test_next_matches_below(self):
        sys_ = single_junction(
            """assert[] A; assert[] B;
            case {
              A => host HA; next
              B => host HB; break
              otherwise => host HO
            }""",
            decls="| init prop !A\n| init prop !B",
        )
        log = []
        for name in ("HA", "HB", "HO"):
            sys_.bind_host("T", name, lambda ctx, n=name: log.append(n))
        sys_.start()
        sys_.run_until(1.0)
        assert log == ["HA", "HB"]

    def test_next_falls_to_otherwise(self):
        sys_ = single_junction(
            """assert[] A;
            case {
              A => host HA; next
              B => host HB; break
              otherwise => host HO
            }""",
            decls="| init prop !A\n| init prop !B",
        )
        log = []
        for name in ("HA", "HB", "HO"):
            sys_.bind_host("T", name, lambda ctx, n=name: log.append(n))
        sys_.start()
        sys_.run_until(1.0)
        assert log == ["HA", "HO"]

    def test_reconsider_after_state_change_reruns(self):
        sys_ = single_junction(
            """assert[] A;
            case {
              A => host HA {A}; reconsider
              otherwise => host HO
            }""",
            decls="| init prop !A",
        )
        log = []

        def ha(ctx):
            log.append("HA")
            ctx.set("A", False)

        sys_.bind_host("T", "HA", ha)
        sys_.bind_host("T", "HO", lambda ctx: log.append("HO"))
        sys_.start()
        sys_.run_until(1.0)
        assert log == ["HA", "HO"]

    def test_reconsider_unchanged_state_fails(self):
        sys_ = single_junction(
            """assert[] A;
            case {
              A => host HA; reconsider
              otherwise => host HO
            }""",
            decls="| init prop !A",
        )
        sys_.bind_host("T", "HA", lambda ctx: None)
        sys_.bind_host("T", "HO", lambda ctx: None)
        sys_.start()
        sys_.run_until(1.0)
        assert "ReconsiderFailure" in failures_of(sys_)

    def test_fig4_retry_idiom(self):
        """The remote snapshot retry: the first retract is lost to a
        partition, Retried is set, reconsider re-runs the arm (the
        proposition state changed), and the second retract succeeds."""
        sys_ = pair(
            "retract[] Go; ({ assert[g] Work; wait[] !Work } otherwise[2] skip)",
            """retract[] Retried;
            case {
              Work =>
                (retract[f] Work otherwise[0.3]
                  (if !Retried then assert[] Retried else host GiveUp));
                reconsider
              otherwise => host Done
            }""",
            f_decls="| init prop !Work\n| init prop Go",
            g_decls="| init prop !Work\n| init prop !Retried",
            g_guard="Work",
            f_guard="Go",  # arriving retracts must not re-run the handshake
            latency=0.05,
        )
        log = []
        sys_.bind_host("G", "Done", lambda ctx: log.append("done"))
        sys_.bind_host("G", "GiveUp", lambda ctx: log.append("giveup"))
        sys_.start(t=5)
        # cut the link while g's first retract is in flight, heal before
        # the retry fires
        sys_.sim.call_at(0.07, lambda: sys_.network.partition({"f"}, {"g"}))
        sys_.sim.call_at(0.20, lambda: sys_.network.heal_partition())
        sys_.run_until(5.0)
        assert log == ["done"]
        assert failures_of(sys_) == []
        assert sys_.read_state("f::j", "Work") is False
        assert sys_.read_state("g::j", "Retried") is True  # retry happened

    def test_reconsider_after_a_late_ack_sees_its_own_retract(self):
        """g's ``retract[f] Work`` is delivered but its ack is dropped;
        f finishes and asserts ``Work`` for the next request, which
        queues at g before the retransmission's ack arrives.  The ack
        writes g's copy of ``Work`` under the queued update, so
        ``reconsider`` takes ``otherwise`` and the queued request runs
        at g's next scheduling, instead of re-matching the stale copy
        and failing."""
        sys_ = pair(
            "retract[] Req; assert[g] Work; wait[] !Work; host Done",
            "case { Work => retract[f] Work; reconsider otherwise => skip }",
            f_decls="| init prop !Req\n| init prop !Work",
            g_decls="| init prop !Work",
            f_guard="Req",
            g_guard="Work",
            latency=0.05,
        )
        done = []
        sys_.bind_host("F", "Done", lambda ctx: done.append(sys_.now))
        sys_.start(t=5)
        # drops f's ack of g's first retract (sent at 0.10)
        FaultPlan(sys_).set_loss_between(0.08, 0.12, "f", "g", 1.0)
        for t in (0.0, 0.2):
            sys_.sim.call_at(t, lambda: sys_.external_update("f::j", "Req", True))
        sys_.run_until(3.0)
        assert sys_.network.stats["ack_dropped"] == 1
        assert sys_.network.stats["update_dedup_suppressed"] == 1
        assert len(done) == 2 and failures_of(sys_) == []
        assert sys_.read_state("f::j", "Work") is False
        assert sys_.read_state("g::j", "Work") is False


class TestRetryReturn:
    def test_retry_reruns_junction(self):
        sys_ = single_junction(
            "host Count; case { Again => host Clear {Again}; retry; break otherwise => skip }",
            decls="| init prop Again",
        )
        count = []
        sys_.bind_host("T", "Count", lambda ctx: count.append(1))
        sys_.bind_host("T", "Clear", lambda ctx: ctx.set("Again", False))
        sys_.start()
        sys_.run_until(1.0)
        assert len(count) == 2

    def test_retry_budget_exhausted(self):
        sys_ = single_junction("host Count; retry", max_retries=2)
        count = []
        sys_.bind_host("T", "Count", lambda ctx: count.append(1))
        sys_.start()
        sys_.run_until(1.0)
        assert len(count) == 3  # initial + 2 retries
        assert "RetryExhausted" in failures_of(sys_)

    def test_return_leaves_junction(self):
        sys_ = single_junction("host A; return; host B")
        log = []
        sys_.bind_host("T", "A", lambda ctx: log.append("A"))
        sys_.bind_host("T", "B", lambda ctx: log.append("B"))
        sys_.start()
        sys_.run_until(1.0)
        assert log == ["A"]

    def test_return_leaves_fate_block_only(self):
        sys_ = single_junction("{ host A; return; host B }; host C")
        log = []
        for name in "ABC":
            sys_.bind_host("T", name, lambda ctx, n=name: log.append(n))
        sys_.start()
        sys_.run_until(1.0)
        assert log == ["A", "C"]


class TestKeepAndIdx:
    def test_keep_discards_parallel_updates(self):
        sys_ = pair(
            "assert[g] Work",
            "host Busy; keep(Poke); host Check",
            f_decls="| init prop !Work",
            g_decls="| init prop !Work\n| init prop !Poke",
            g_guard="Work",
        )
        checked = []
        # while g runs, f-side update to Poke arrives and is kept away
        sys_.bind_host("G", "Busy", lambda ctx: ctx.take(0.5))
        sys_.bind_host("G", "Check", lambda ctx: checked.append(len(
            sys_.junction("g::j").table.pending)))
        sys_.start(t=5)
        sys_.sim.call_at(0.3, lambda: sys_.external_update("g::j", "Poke", True, poke=False))
        sys_.run_until(2.0)
        assert checked == [0]

    def test_idx_as_target_cursor(self):
        sys_ = make_pair_with_idx()
        sys_.start(t=5)
        sys_.run_until(2.0)
        assert sys_.read_state("g::j", "Work") is True

    def test_idx_undef_fails(self):
        sys_ = single_junction(
            "assert[tgt] P",
            decls="| init prop !P\n| idx tgt of {x}",
        )
        sys_.start()
        sys_.run_until(1.0)
        assert "UndefError" in failures_of(sys_)


def make_pair_with_idx():
    from .helpers import make_system

    sys_ = make_system(
        """
        instance_types { F, G }
        instances { f: F, g: G }
        def main(t) = start f(t) + start g(t)
        def F::j(t) =
          | init prop !Work
          | idx tgt of {g}
          host Choose {tgt};
          assert[tgt] Work
        def G::j(t) =
          | init prop !Work
          skip
        """
    )
    sys_.bind_host("F", "Choose", lambda ctx: ctx.set("tgt", "g"))
    return sys_
