"""The catalog is the one per-architecture table: the exploration
scenarios and the workload adapters are derived from it."""

import re
from pathlib import Path

from repro.arch.catalog import CATALOG
from repro.arch.loader import ARCHITECTURES
from repro.explore.scenarios import _ARCH_SCENARIOS, arch_scenario
from repro.workload import ADAPTERS


def test_one_row_per_shipped_architecture():
    assert tuple(CATALOG) == ARCHITECTURES


def test_nightly_explore_matrix_is_the_shipped_names():
    """The workflow is plain text to us (no YAML dependency): the
    ``- name`` items under ``arch:`` are ARCHITECTURES, in its order."""
    workflow = Path(__file__).parents[2] / ".github/workflows/explore.yml"
    matrix = re.search(r"^ +arch:\n((?: +- \w+\n)+)", workflow.read_text(), re.M)
    assert matrix, "explore.yml has no `arch:` matrix"
    assert tuple(re.findall(r"- (\w+)", matrix.group(1))) == ARCHITECTURES


def test_scenarios_are_derived_from_the_rows():
    assert set(_ARCH_SCENARIOS) == set(ARCHITECTURES)
    for name in ARCHITECTURES:
        sc = arch_scenario(name)
        assert sc.name == name and sc.row is CATALOG[name]
        assert sc.horizon == CATALOG[name].horizon


def test_adapters_are_the_rows_that_speak_a_protocol():
    speaking = {name for name, row in CATALOG.items() if row.protocol is not None}
    assert set(ADAPTERS) <= speaking
    assert {"broker_sharded", "broker_failover", "sharding", "failover"} <= set(ADAPTERS)


def test_a_row_without_a_protocol_brings_its_drive():
    for name, row in CATALOG.items():
        assert row.protocol in ("redis", "broker", None), name
        assert row.protocol is not None or row.drive is not None, name


def test_scenario_exposes_its_system_once_built():
    sc = arch_scenario("elastic")
    assert sc.system is None
    system = sc.run()
    assert sc.system is system
    system.shutdown()
