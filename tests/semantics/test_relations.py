"""The derived relations of an event structure, computed from adjacency
(``descendants`` / ``ancestors`` / ``straddling``), equal the paper's
definitions spelled out pair by pair.

The per-definition reference lives here: it is what sec. 8.1 / 8.2.1
say, quantifier for quantifier, and is far too slow for the structures
``repro semantics failover`` prints (``f::b``: 1,035 events)."""

from itertools import combinations

import pytest

from repro.arch.loader import load_program
from repro.core.parser import parse_expression
from repro.semantics import Denoter, denote_program
from repro.semantics.render import immediate_causality, minimal_conflicts

#: structures above this size are left to the fast definitions alone
SMALL = 80


# -- the definitions, literally ------------------------------------------------

def ref_closure(es):
    """Least transitive relation containing ``le``."""
    clo = set(es.le)
    while True:
        more = {(a, d) for a, b in clo for c, d in clo if b == c} - clo
        if not more:
            return clo
        clo |= more


def ref_history(es, clo, e):
    return {e} | {a for a, b in clo if b == e}


def ref_inherited(es, clo):
    """Least relation containing ``#`` with ``e1#e2 ∧ e2 ≤ e3 → e1#e3``."""
    inh = {p for p in es.conflict if len(p) == 2}
    while True:
        more = set()
        for pair in inh:
            for x, y in (tuple(pair), tuple(pair)[::-1]):
                more |= {frozenset((x, z)) for a, z in clo if a == y and z != x}
        if more <= inh:
            return inh
        inh |= more


def ref_immediate(es, clo):
    """``a < b`` with no ``c`` strictly between."""
    return {
        (a, b)
        for a, b in clo
        if a != b and not any((a, c) in clo and (c, b) in clo for c in es.ids - {a, b})
    }


def ref_minimal(es, clo, inh):
    """Conflicts not inherited from a conflict between smaller events."""
    hist = {e: ref_history(es, clo, e) for e in es.ids}
    return {
        pair
        for pair in inh
        if not any(
            ea != eb and frozenset((ea, eb)) in inh and frozenset((ea, eb)) != pair
            for a, b in [tuple(pair)]
            for ea in hist[a]
            for eb in hist[b]
        )
    }


def ref_concurrent(es, clo, inh, a, b):
    """Incomparable, with conflict-free histories."""
    if a == b or (a, b) in clo or (b, a) in clo:
        return False
    return not any(
        ea != eb and frozenset((ea, eb)) in inh
        for ea in ref_history(es, clo, a)
        for eb in ref_history(es, clo, b)
    )


# -- the structures --------------------------------------------------------------

def _small_structures():
    out = {}
    for name in ("failover", "remote_snapshot", "caching", "watched_failover", "elastic"):
        sem = denote_program(load_program(name))
        for node, es in [("startup", sem.startup), *sem.junctions.items()]:
            if es.size() <= SMALL:
                out[f"{name}/{node}"] = es
    for label, text in {
        "case": "case { A => assert[] P; break  B => skip; next otherwise => host H }",
        "otherwise": "({ save(n); write(n, g); wait[] !Work } otherwise[1] host Complain)",
        "reppar": "case { A => skip; break otherwise => (assert[] P + retract[] Q) }",
    }.items():
        out[label] = Denoter("J").denote_junction(parse_expression(text))
    return out


STRUCTURES = _small_structures()


def test_the_sample_is_not_vacuous():
    assert len(STRUCTURES) >= 15
    assert any(es.conflict for es in STRUCTURES.values())
    assert max(es.size() for es in STRUCTURES.values()) > 20
    # both the architecture's small back-end junctions the issue sized on
    assert {"failover/b1::serve", "failover/b1::reactivate"} <= set(STRUCTURES)


@pytest.mark.parametrize("label", STRUCTURES)
def test_relations_equal_their_definitions(label):
    es = STRUCTURES[label]
    clo = ref_closure(es)
    inh = ref_inherited(es, clo)

    assert es.closure_le() == clo
    assert es.inherited_conflicts() == inh
    assert immediate_causality(es) == ref_immediate(es, clo)
    assert minimal_conflicts(es) == ref_minimal(es, clo, inh)
    for e in es.ids:
        assert es.history(e) == ref_history(es, clo, e)
    for a, b in combinations(sorted(es.ids), 2):
        assert es.leq(a, b) == ((a, b) in clo)
        assert es.conflicts(a, b) == (frozenset((a, b)) in inh)
        assert es.concurrent(a, b) == ref_concurrent(es, clo, inh, a, b)
