"""Property-based differ/planner tests (hypothesis).

Random architectures are generated from a small pool of junction
templates (every template is valid C-Saw that the repo compiler
accepts), then:

* ``diff_programs(a, a)`` is empty for every generated ``a``;
* the oracle's ``apply_diff(a, diff_programs(a, b))`` reconstructs ``b`` up to
  :func:`program_signature` (the diff is a complete, applicable patch);
* every transition plan is a valid DAG whose order puts each spawn
  before each quiesce, each quiesce before the cutover and the cutover
  before stop → rebind → start → transfer → resume — the order the
  executor runs (``test_plan_is_execution.py`` checks that it does).
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.compiler import compile_program
from repro.reconfig import diff_programs, plan_transition

from .oracle import apply_diff, program_signature

#: junction template pool — each entry is the full indented decl+body
#: of ``def <T>::junction(t)``
TEMPLATES = (
    "  | init prop !P\n  | guard P\n  retract[] P",
    "  | init prop !P\n  | init data d\n  | guard P\n  retract[] P; save(d)",
    "  | init prop !Q\n  | guard Q\n  retract[] Q; host H",
    "  | init prop !P\n  | init prop !R\n  | guard P\n"
    "  retract[] P; assert[] R; retract[] R",
)

INSTANCES = ("i1", "i2", "i3", "i4", "i5")


def render(spec) -> str:
    """``spec`` is (type_templates, instance_types, started) where
    ``type_templates`` maps type name → template index, ``instance_types``
    maps instance → type, ``started`` is the tuple main starts."""
    type_templates, instance_types, started = spec
    lines = ["instance_types { " + ", ".join(sorted(type_templates)) + " }"]
    lines.append(
        "instances { "
        + ", ".join(f"{i}: {t}" for i, t in sorted(instance_types.items()))
        + " }"
    )
    lines.append("def main(t) = " + " + ".join(f"start {i}(t)" for i in started))
    for tname, ti in sorted(type_templates.items()):
        lines.append(f"def {tname}::junction(t) =\n{TEMPLATES[ti]}")
    return "\n".join(lines) + "\n"


@st.composite
def arch_specs(draw):
    n_types = draw(st.integers(1, 3))
    type_names = [f"T{i}" for i in range(1, n_types + 1)]
    type_templates = {
        t: draw(st.integers(0, len(TEMPLATES) - 1)) for t in type_names
    }
    n_insts = draw(st.integers(1, len(INSTANCES)))
    instance_types = {
        i: type_names[draw(st.integers(0, n_types - 1))]
        for i in INSTANCES[:n_insts]
    }
    k = draw(st.integers(1, n_insts))
    started = tuple(sorted(instance_types)[:k])
    return (type_templates, instance_types, started)


def compile_spec(spec):
    return compile_program(render(spec))


class TestDiffProperties:
    @given(arch_specs())
    @settings(max_examples=60, deadline=None)
    def test_self_diff_is_empty(self, spec):
        a = compile_spec(spec)
        d = diff_programs(a, a)
        assert d.is_empty, d.summary()

    @given(arch_specs(), arch_specs())
    @settings(max_examples=60, deadline=None)
    def test_apply_diff_roundtrip(self, spec_a, spec_b):
        a, b = compile_spec(spec_a), compile_spec(spec_b)
        patched = apply_diff(a, diff_programs(a, b))
        assert program_signature(patched) == program_signature(b)

    @given(arch_specs(), arch_specs())
    @settings(max_examples=60, deadline=None)
    def test_diff_is_directional(self, spec_a, spec_b):
        a, b = compile_spec(spec_a), compile_spec(spec_b)
        d = diff_programs(a, b)
        if program_signature(a) == program_signature(b):
            assert d.is_empty
        else:
            assert not d.is_empty


class TestPlanProperties:
    @given(arch_specs(), arch_specs(), st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_plan_respects_lifecycle_order(self, spec_a, spec_b, transfer):
        a, b = compile_spec(spec_a), compile_spec(spec_b)
        d = diff_programs(a, b)
        # rebind every kept instance — the richest plan shape
        kept = tuple(
            sorted(
                set(a.instance_map()) & set(b.instance_map())
            )
        )
        plan = plan_transition(d, rebind=kept, transfer=transfer)
        plan.validate()
        order = [s.step_id for s in plan.ordered()]
        pos = {sid: i for i, sid in enumerate(order)}
        cut = pos["cutover"]
        for s in plan.steps:
            if s.kind in ("quiesce", "snapshot", "spawn"):
                assert pos[s.step_id] < cut, f"{s.step_id} after cutover"
            elif s.kind in ("rebind", "stop", "start", "transfer", "resume"):
                assert pos[s.step_id] > cut, f"{s.step_id} before cutover"
        for s in plan.by_kind("snapshot"):
            assert pos[f"quiesce:{s.target}"] < pos[s.step_id]
        for s in plan.by_kind("resume"):
            assert pos[s.step_id] > cut
            if transfer:
                assert pos["transfer"] < pos[s.step_id]

        def last(kind):
            return max((pos[s.step_id] for s in plan.by_kind(kind)), default=-1)

        def first(kind):
            return min((pos[s.step_id] for s in plan.by_kind(kind)), default=len(order))

        # the slow spawn stays outside the pause window
        assert last("spawn") < first("quiesce")
        assert last("stop") < first("rebind")
        assert max(last("stop"), last("rebind")) < first("start")
        # the transfer reads the removed instances' apps
        assert last("stop") < first("transfer")
        # only what was paused and kept is resumed
        assert {s.target for s in plan.by_kind("resume")} == (
            {s.target for s in plan.by_kind("quiesce")}
            - {s.target for s in plan.by_kind("stop")}
        )
