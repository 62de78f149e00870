"""Static-analysis gate for reconfiguration targets.

A live transition is only as safe as its *target* architecture, so the
analyzer must stay green not just for the shipped sources (the
``tests/analysis`` sweep) but for every source the reconfiguration
machinery generates: the swapped failover programs and the resharded
sharding programs.  This is the gate the ``reconfig-parity`` CI job
runs — it re-sweeps the shipped ten too, so the job is self-contained.

The diff layer is also exercised on the real shipped programs (the
hypothesis suite uses synthetic ones): every generated transition has
a non-empty diff, and ``apply_diff`` reconstructs the target up to
:func:`program_signature`.
"""

import pytest

from repro.analysis import analyze_program
from repro.arch.loader import ARCHITECTURES, load_program, load_source
from repro.core.compiler import compile_program
from repro.reconfig import apply_diff, diff_programs, program_signature


def _errors(report):
    return [f for f in report.unsuppressed() if f.severity == "error"]


def _fmt(findings):
    return "\n".join(f"{f.kind} at {f.node} (key {f.key!r})" for f in findings)


def assert_green(program, label):
    report = analyze_program(program, label=label)
    assert _errors(report) == [], _fmt(_errors(report))


@pytest.mark.parametrize("name", ARCHITECTURES)
def test_shipped_source_is_green(name):
    assert_green(load_program(name), name)


# -- generated reconfiguration targets --------------------------------------


def swap_variants():
    from repro.arch.failover import swap_backend_source

    for program_name in ("failover", "failover_fast"):
        yield (
            f"{program_name}:b2->b3",
            compile_program(load_source(program_name)),
            compile_program(
                swap_backend_source("b2", "b3", program_name=program_name)
            ),
        )


def reshard_variants():
    for name in ("sharding", "parallel_sharding"):
        for n_old, n_new in ((2, 3), (2, 4), (3, 5)):
            yield (
                f"{name}:{n_old}->{n_new}",
                load_program(name, n_backends=n_old),
                load_program(name, n_backends=n_new),
            )


TRANSITIONS = {label: (old, new) for label, old, new in (
    *swap_variants(), *reshard_variants()
)}


@pytest.mark.parametrize("label", sorted(TRANSITIONS))
def test_generated_target_is_green(label):
    _, new = TRANSITIONS[label]
    assert_green(new, label)


@pytest.mark.parametrize("label", sorted(TRANSITIONS))
def test_transition_diff_applies(label):
    old, new = TRANSITIONS[label]
    d = diff_programs(old, new)
    assert not d.is_empty, label
    assert program_signature(apply_diff(old, d)) == program_signature(new)
    # and the reverse direction patches back
    back = diff_programs(new, old)
    assert program_signature(apply_diff(new, back)) == program_signature(old)


@pytest.mark.parametrize("name", ("sharding", "parallel_sharding", "broker_sharded"))
def test_a_reshard_is_a_diff_of_one_argument(name):
    old, new = (load_program(name, n_backends=n) for n in (4, 5))
    lines = diff_programs(old, new).summary().splitlines()
    # the family's new size, the instance it declares, and the two
    # templates that name the family's set — nothing else
    assert lines == [
        "+ instance Bck5: Back",
        "~ family Bck[5]: Back",
        "~ junction Front::junction",
        "~ main",
    ]
    assert diff_programs(load_program(name), old).is_empty  # 4 is the default


def test_a_family_comes_and_goes_with_its_program():
    sharded, cached = load_program("sharding", n_backends=2), load_program("caching")
    there, back = diff_programs(sharded, cached), diff_programs(cached, sharded)
    assert "- families" in there.summary() and "~ family Bck[2]: Back" in back.summary()
    assert program_signature(apply_diff(sharded, there)) == program_signature(cached)
    assert program_signature(apply_diff(cached, back)) == program_signature(sharded)
    assert apply_diff(cached, back).family("Bck") == ("Bck1", "Bck2")


@pytest.mark.parametrize("size", (0, -2, 2.5, True, "4"))
def test_bad_size_is_one_error_naming_the_family(size):
    from repro.arch.sharding import ShardedRedis
    from repro.core.errors import CompileError

    for build in (
        lambda: load_program("sharding", n_backends=size),
        lambda: compile_program(load_source("sharding"), config={"Bck": size}),
        lambda: ShardedRedis(n_shards=size),
    ):
        with pytest.raises(CompileError, match="instance family 'Bck' needs a size ≥ 1"):
            build()
