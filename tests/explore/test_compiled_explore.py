"""Exploration runs the code we ship.

``System`` compiles junctions under a schedule controller like anywhere
else, so ``repro explore``, DPOR and the nightly fuzz exercise the
generated code every benchmark and deployment runs.  That is only sound
because choice points are made by the machine's ops, which both
front-ends call: for every shipped architecture the schedules visited
under ``sim`` (compiled) and ``sim,compiled=off`` (tree-walked) must be
the same, id for id and label for label.
"""

import pytest

from repro.arch.catalog import CATALOG
from repro.explore import explore
from repro.explore.scenarios import arch_scenario
from repro.runtime import default_engine

BUDGET = 12


def _visited(name, engine):
    """``[(schedule id, labels)]`` in visiting order, and whether each
    bound junction of the last run had compiled code."""
    seen, compiled = [], []

    def on_run(res):
        seen.append((res.schedule.schedule_id, tuple(res.schedule.labels)))
        compiled[:] = [
            jr.code is not None
            for inst in res.system.instances.values()
            for jr in inst.junctions.values()
            if jr.body is not None
        ]

    with default_engine(engine):
        explore(arch_scenario(name), budget=BUDGET, on_run=on_run)
    return seen, compiled


@pytest.mark.parametrize("name", CATALOG)
def test_same_schedules_compiled_and_tree_walked(name):
    on, on_codes = _visited(name, "sim")
    off, off_codes = _visited(name, "sim,compiled=off")
    # non-vacuity: a controller no longer switches compilation off, and
    # compiled=off still does
    assert on_codes and all(on_codes), f"{name}: tree-walked under the controller"
    assert off_codes and not any(off_codes)
    assert on and on == off


@pytest.mark.parametrize("engine,compiles", (("sim", True), ("sim,compiled=off", False)))
def test_cli_explores_what_the_engine_spec_says(engine, compiles, monkeypatch, capsys):
    """``repro explore --engine sim,compiled=off`` is how CI keeps the
    tree-walker explored: the spec's compile mode must reach the
    systems the exploration builds."""
    import repro.compile
    from repro.cli import main

    lowered = []
    real = repro.compile.compile_junction_code
    monkeypatch.setattr(
        repro.compile, "compile_junction_code",
        lambda system, jr: lowered.append(jr.node) or real(system, jr),
    )
    assert main(["explore", "caching", "--budget", "2", "--engine", engine]) == 0
    assert "no violations" in capsys.readouterr().out
    assert bool(lowered) is compiles
