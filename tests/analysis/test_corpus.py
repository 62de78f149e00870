"""Analyzer corpus: each ``corpus/*.csaw`` fixture carries an
``.expected.json`` sidecar listing every finding the analyzer must
produce for it — no more, no fewer.  The projection compared is
(check, kind, severity, node, key, suppressed); messages and witnesses
are free to improve without touching the sidecars."""

import json
from pathlib import Path

import pytest

from repro.analysis.analyzer import analyze_source

CORPUS = Path(__file__).parent / "corpus"
FIXTURES = sorted(CORPUS.glob("*.csaw"))


def _analyze(path: Path):
    return analyze_source(path.read_text(), label=path.name)


def _projection(report):
    return [
        {
            "check": f.check,
            "kind": f.kind,
            "severity": f.severity,
            "node": f.node,
            "key": f.key,
            "suppressed": f.suppressed,
        }
        for f in report.sorted()
    ]


def test_corpus_is_nonempty():
    assert FIXTURES, "corpus directory is empty"
    for path in FIXTURES:
        assert path.with_suffix(".expected.json").exists(), path.name


@pytest.mark.parametrize("path", FIXTURES, ids=lambda p: p.stem)
def test_expected_findings(path):
    expected = json.loads(path.with_suffix(".expected.json").read_text())
    assert _projection(_analyze(path)) == expected["findings"]


def _one(name: str, kind: str):
    found = [f for f in _analyze(CORPUS / name).findings if f.kind == kind]
    assert len(found) == 1, found
    return found[0]


def test_seeded_race_has_witness_interleaving():
    race = _one("seeded_race.csaw", "concurrent-write-race")
    assert len(race.sites) == 2
    assert race.witness, "race finding must carry a witness schedule"
    assert "races the previous write" in race.witness[-1]
    assert any("Flag" in step for step in race.witness)


def test_cross_race_names_both_writers():
    race = _one("cross_race.csaw", "write-write-race")
    assert race.severity == "error"
    assert "a::j" in race.message and "b::j" in race.message
    assert len(race.sites) == 2
    assert race.witness


def test_suppression_names_the_directive():
    race = _one("suppressed_race.csaw", "concurrent-write-race")
    assert race.suppressed
    assert race.suppressed_by == "allow-race Flag"


def test_clean_fixture_has_no_findings():
    assert _analyze(CORPUS / "clean.csaw").findings == []


def test_json_schema_projection():
    report = _analyze(CORPUS / "contract.csaw")
    doc = report.to_json()
    assert doc["version"] == 1
    assert doc["summary"]["total"] == len(report.findings)
    for f in doc["findings"]:
        assert {"check", "kind", "severity", "node", "key", "message",
                "sites"} <= set(f)
