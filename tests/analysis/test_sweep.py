"""Regression sweep: the analyzer reports no unsuppressed errors for
any shipped architecture or example script.

Every accepted hazard in ``src/repro/arch/dsl/*.csaw`` is annotated
with an ``# analyze:`` directive in the source; anything new that the
analyzer flags as an error fails here first."""

import contextlib
import io
import runpy
from pathlib import Path

import pytest

from repro.analysis.analyzer import analyze_program, analyze_source
from repro.analysis.capture import capture_programs
from repro.arch.loader import ARCHITECTURES, load_source

EXAMPLES = Path(__file__).resolve().parents[2] / "examples"

FAST_EXAMPLES = (
    "quickstart.py",
    "watched_failover.py",
    "elastic_workers.py",
    "curl_auditing.py",
    "live_migration.py",
)
SLOW_EXAMPLES = (
    "redis_checkpointing.py",
    "redis_sharding.py",
    "suricata_failover.py",
)


def _errors(report):
    return [f for f in report.unsuppressed() if f.severity == "error"]


def _fmt(findings):
    return "\n".join(f"{f.kind} at {f.node} (key {f.key!r})" for f in findings)


@pytest.mark.parametrize("name", ARCHITECTURES)
def test_architecture_has_no_unsuppressed_errors(name):
    report = analyze_source(load_source(name), label=name)
    assert _errors(report) == [], _fmt(_errors(report))


def _analyze_example(filename):
    with capture_programs() as captured, contextlib.redirect_stdout(io.StringIO()):
        runpy.run_path(str(EXAMPLES / filename), run_name="__main__")
    assert captured, f"{filename} constructed no System"
    reports = [
        analyze_program(prog, label=f"{filename}#{i}")
        for i, prog in enumerate(captured)
    ]
    for report in reports:
        assert _errors(report) == [], f"{report.source}:\n{_fmt(_errors(report))}"


@pytest.mark.parametrize("filename", FAST_EXAMPLES)
def test_example_has_no_unsuppressed_errors(filename):
    _analyze_example(filename)


@pytest.mark.slow
@pytest.mark.parametrize("filename", SLOW_EXAMPLES)
def test_slow_example_has_no_unsuppressed_errors(filename):
    _analyze_example(filename)


def test_example_list_is_exhaustive():
    on_disk = {p.name for p in EXAMPLES.glob("*.py")}
    assert on_disk == set(FAST_EXAMPLES) | set(SLOW_EXAMPLES)
