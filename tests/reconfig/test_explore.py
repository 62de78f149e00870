"""Schedule exploration over the transition window.

The reconfig scenario submits client updates timed to land *inside*
the quiesce window (one scheduled at the exact moment the transition
begins, one 2ms later), then reshards 2 → 3 while they are in flight.
Exploration varies the interleaving of deliveries, timers and host
steps across that window; on every schedule the ``reconfig-no-drop``
invariant must hold — no request dropped, none duplicated, and the
transition itself completed.
"""

import pytest

from repro.explore import INVARIANTS, explore, make_reconfig_scenario
from repro.explore.invariants import check_invariants


def test_invariant_registered():
    assert "reconfig-no-drop" in INVARIANTS
    assert INVARIANTS["reconfig-no-drop"].description


def test_invariant_flags_drops_and_duplicates():
    obs = {
        "submitted": [0, 1, 2],
        "completed": [0, 2, 2, 3],
        "failed": [(1, "timeout")],
        "reconfig_ok": False,
        "reconfig_reason": "quiesce timed out",
    }
    msgs = check_invariants(None, obs, ["reconfig-no-drop"])
    text = "\n".join(m for _, m in msgs)
    assert "did not complete" in text
    assert "dropped" in text
    assert "more than once" in text
    assert "unsubmitted" in text
    assert "request 1 failed" in text


def test_invariant_passes_clean_observation():
    obs = {
        "submitted": [0, 1],
        "completed": [1, 0],
        "failed": [],
        "reconfig_ok": True,
    }
    assert check_invariants(None, obs, ["reconfig-no-drop"]) == []


@pytest.mark.parametrize("strategy", ("dpor", "random"))
def test_explore_transition_window(strategy):
    sc = make_reconfig_scenario()
    assert "reconfig-no-drop" in sc.invariants
    res = explore(sc, strategy=strategy, budget=20, seed=0)
    assert res.runs > 1
    assert res.violations == []
    assert res.ok


def test_explore_via_cli_target():
    """`repro explore reconfig` resolves to the reconfig scenario."""
    from repro.explore import resolve_scenario

    sc = resolve_scenario("reconfig")
    assert sc.name == "reconfig"
    assert "reconfig-no-drop" in sc.invariants


def test_invariant_reports_a_misplaced_key():
    obs = {
        "submitted": [0],
        "completed": [0],
        "failed": [],
        "reconfig_ok": True,
        "misplaced": [("b", [0], [2])],
    }
    msgs = check_invariants(None, obs, ["reconfig-no-drop"])
    assert len(msgs) == 1
    assert "'b'" in msgs[0][1] and "[0]" in msgs[0][1] and "[2]" in msgs[0][1]


@pytest.mark.parametrize("target,writes", (
    ("reconfig", {"a", "b"}),
    ("broker-reconfig", {"a", "b", "c"}),
))
def test_scenario_observes_where_acked_writes_landed(target, writes):
    """One scenario class serves both protocols, and records for every
    acknowledged write where it is stored — on the very back-end a
    fresh deployment of the new size chooses."""
    from repro.explore import ReconfigScenario, resolve_scenario, run_schedule

    sc = resolve_scenario(target)
    assert type(sc) is ReconfigScenario
    res = run_schedule(sc)
    obs = sc.observe(res.system)
    assert set(obs["placed"]) == writes
    assert all(len(held) == 1 for held in obs["placed"].values()), obs["placed"]
    assert obs["misplaced"] == []
    assert res.violations == []
