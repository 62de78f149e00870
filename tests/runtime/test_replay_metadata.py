"""Per-message schedule metadata exists only under a controller.

Deliveries and retransmission timers carry a replay ``label`` and a
commute ``footprint`` for :mod:`repro.explore`'s controller, their only
reader.  An uncontrolled run builds neither; a controlled run builds
exactly the labels exploration has always recorded."""

import pytest

from repro.explore.explorer import run_schedule
from repro.explore.scenarios import arch_scenario
from repro.runtime.sim import Simulator
from repro.semantics.commute import Footprint

#: scheduling sites, by the qualified name of the callback they arm
SITES = {
    "ClockTransport.deliver.<locals>.fire": "deliver:",
    "ReliableDelivery._arm_timer.<locals>.<lambda>": "retransmit:",
}


@pytest.fixture
def scheduled(monkeypatch):
    """Every ``(site, label, footprint)`` a delivery or retransmission
    timer is scheduled with (both go through ``call_after``)."""
    seen = []
    call_after = Simulator.call_after

    def spy(self, delay, callback, priority=0, *, label=None, footprint=None):
        site = getattr(callback, "__qualname__", "")
        if site in SITES:
            seen.append((site, label, footprint))
        return call_after(self, delay, callback, priority, label=label, footprint=footprint)

    monkeypatch.setattr(Simulator, "call_after", spy)
    return seen


def test_uncontrolled_run_builds_no_replay_metadata(scheduled):
    arch_scenario("sharding").run()
    assert {site for site, _, _ in scheduled} == set(SITES)
    assert all(label is None and fp is None for _, label, fp in scheduled)


def test_controlled_run_labels_every_message(scheduled):
    res = run_schedule(arch_scenario("sharding"))
    assert {site for site, _, _ in scheduled} == set(SITES)
    for site, label, fp in scheduled:
        assert label.startswith(SITES[site]) and fp is not None
    # the first request's update, its timer and its ack, spelled as
    # recorded schedules expect them
    assert [label for _, label, _ in scheduled[:3]] == [
        "deliver:update:Fnt::junction->Bck1::junction#n:1",
        "retransmit:Fnt::junction->Bck1::junction:1",
        "deliver:ack:Bck1::junction->Fnt::junction:1",
    ]
    assert scheduled[0][2] == Footprint.make(writes=["Bck1::junction#n"])
    assert res.trace  # the controller saw choice points
