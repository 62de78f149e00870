"""Fig. 21: the event structure of the remote-snapshot Act instance.

The paper renders Act's behaviour as::

    Sched_Act → Wr_Act(n,*) → Wr_Aud(n,*) → Wr_{Act,Aud}(Work,tt)
              → Rd_Act(Work,ff) → Unsched_Act

with ``complain`` alternatives branching off (in minimal conflict with)
the steps of the guarded block.  We denote the real ``Act::junction``
from ``remote_snapshot.csaw`` and check that structure.
"""

from repro.arch.loader import load_program
from repro.core.expand import resolve_me_expr, specialize
from repro.semantics.denote import Denoter
from repro.semantics.render import immediate_causality, minimal_conflicts


def act_structure():
    prog = load_program("remote_snapshot")
    cj = prog.junction("Actual", "junction")
    body, decls = specialize(cj.body, cj.decls, {"t": 5.0})
    body = resolve_me_expr(body, "Act", "junction")
    den = Denoter("Act")
    return den.denote_junction(body)


def test_fig21_causal_chain():
    es = act_structure()
    es.validate()
    imm = immediate_causality(es)

    def one(label):
        found = es.find_label(label)
        assert found, f"missing event {label}"
        return found[0]

    sched = one("Sched_Act")
    wr_n_local = one("Wr_Act(n,*)")
    wr_n_remote = one("Wr_Aud(n,*)")
    wr_work_local = one("Wr_Act(Work,tt)")
    wr_work_remote = one("Wr_Aud(Work,tt)")
    rd_work = one("Rd_Act(Work,ff)")

    # the chain of Fig. 21 (save → write → assert → wait-read)
    assert (wr_n_local.id, wr_n_remote.id) in imm
    assert (wr_n_remote.id, wr_work_local.id) in imm
    assert (wr_n_remote.id, wr_work_remote.id) in imm
    assert (wr_work_local.id, rd_work.id) in es.closure_le()
    # Sched reaches everything on the happy path
    for e in (wr_n_local, wr_n_remote, rd_work):
        assert es.leq(sched.id, e.id)
    # Unsched events close the junction
    assert es.find(lambda e: str(e.label) == "Unsched_Act")


def test_fig21_complain_alternatives_conflict():
    es = act_structure()
    complains = es.find_label("Complain@Act")
    # one complain copy per event of the guarded block (Fig. 21 shows
    # several alternative complain branches)
    assert len(complains) >= 3
    conflicts = minimal_conflicts(es)
    conflict_members = {x for pair in conflicts for x in pair}
    assert any(c.id in conflict_members for c in complains)


def test_fig21_guarded_block_isolated():
    es = act_structure()
    # events inside the otherwise body are isolated (cannot enable
    # through composition — the paper's outward flag)
    wr_remote = es.find_label("Wr_Aud(n,*)")[0]
    assert not wr_remote.outward
    # but the host/ save before the block is not
    wr_local = es.find_label("Wr_Act(n,*)")
    assert any(e.outward for e in wr_local)
