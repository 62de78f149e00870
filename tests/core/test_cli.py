"""CLI tests."""

import pytest

from repro.arch.catalog import CATALOG
from repro.arch.loader import dsl_path, load_program, load_source
from repro.cli import main
from repro.core.topology import topology
from repro.explore import Schedule

GOOD = """
instance_types { T }
instances { x: T }
def main() = start x()
def T::j() =
  | init prop !P
  assert[] P
"""

BAD = """
instance_types { T }
instances { x: Nope }
def main() = start x()
"""


@pytest.fixture
def good_file(tmp_path):
    f = tmp_path / "arch.csaw"
    f.write_text(GOOD)
    return str(f)


class TestCheck:
    def test_ok(self, good_file, capsys):
        assert main(["check", good_file]) == 0
        assert "OK" in capsys.readouterr().out

    def test_invalid_program(self, tmp_path, capsys):
        f = tmp_path / "bad.csaw"
        f.write_text(BAD)
        assert main(["check", str(f)]) == 1
        assert "error" in capsys.readouterr().err

    def test_missing_file(self, capsys):
        assert main(["check", "/nonexistent.csaw"]) == 1

    def test_config_values(self, tmp_path, capsys):
        f = tmp_path / "cfg.csaw"
        f.write_text(
            """
            instance_types { T }
            instances { x: T }
            def main() = start x()
            def T::j() =
              | set Backs
              | for b in Backs init prop !Up[b]
              skip
            """
        )
        assert main(["check", str(f), "--config", "Backs=a,b"]) == 0


class TestFmt:
    def test_prints_normalized(self, good_file, capsys):
        assert main(["fmt", good_file]) == 0
        out = capsys.readouterr().out
        assert "instance_types { T }" in out
        from repro.core.parser import parse_program

        assert parse_program(out) == parse_program(GOOD)

    def test_write_in_place(self, good_file, capsys):
        assert main(["fmt", good_file, "--write"]) == 0
        assert main(["check", good_file]) == 0

    def test_a_non_ascii_digit_is_an_error_line_not_a_traceback(self, tmp_path, capsys):
        f = tmp_path / "sup.csaw"
        f.write_text(GOOD.replace("assert[] P", "assert[\u00b2] P"))
        assert main(["fmt", str(f)]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert "unexpected character '\u00b2' (line 7, column 10)" in err


class TestTrace:
    SCRIPT = f"""
from repro.core import compile_program
from repro.runtime import System
from repro.telemetry import Telemetry

system = System(compile_program({GOOD!r}), latency=0.01,
                telemetry=Telemetry(capacity=CAPACITY))
system.start()
system.run_until(2.0)
"""

    def _trace(self, tmp_path, capsys, capacity):
        f = tmp_path / "tiny.py"
        f.write_text(self.SCRIPT.replace("CAPACITY", str(capacity)))
        assert main(["trace", str(f)]) == 0
        return capsys.readouterr()

    def test_ring_overflow_is_reported_per_system(self, tmp_path, capsys):
        full = self._trace(tmp_path, capsys, 65536)
        total = len(full.out.splitlines())
        assert "dropped" not in full.err and total > 4
        cut = self._trace(tmp_path, capsys, 4)
        assert (f"system: the ring kept the last 4 of {total} event(s) (capacity 4); "
                f"{total - 4} dropped") in cut.err
        # stdout carries exactly the retained events, as before
        assert cut.out.splitlines() == full.out.splitlines()[-4:]


class TestExploreReplayTrace:
    SCRIPT = f"""
from repro.core import compile_program
from repro.explore import Scenario
from repro.runtime import System
from repro.telemetry import Telemetry


class Tiny(Scenario):
    def run(self):
        self.system = System(compile_program({GOOD!r}), latency=0.01,
                             telemetry=Telemetry(capacity=CAPACITY))
        self.system.start()
        self.system.run_until(self.horizon)
        return self.system


def build_scenario():
    return Tiny("tiny", horizon=2.0)
"""

    def _replay(self, tmp_path, capsys, capacity):
        script = tmp_path / "tiny.py"
        script.write_text(self.SCRIPT.replace("CAPACITY", str(capacity)))
        schedule = tmp_path / "schedule.json"
        schedule.write_text(Schedule(scenario="tiny").dumps())  # the default choices
        out = tmp_path / f"trace{capacity}.jsonl"
        assert main(["explore", str(script), "--replay", str(schedule),
                     "--trace-out", str(out)]) == 0
        return capsys.readouterr(), out.read_text().splitlines()

    def test_ring_overflow_is_reported(self, tmp_path, capsys):
        full, events = self._replay(tmp_path, capsys, 65536)
        total = len(events)
        assert "dropped" not in full.err and total > 4
        cut, kept = self._replay(tmp_path, capsys, 4)
        label = f"schedule:{Schedule().schedule_id}"
        assert (f"{label}: the ring kept the last 4 of {total} event(s) (capacity 4); "
                f"{total - 4} dropped") in cut.err
        assert kept == events[-4:]


class TestTopo:
    def test_edges_listed(self, tmp_path, capsys):
        f = tmp_path / "t.csaw"
        f.write_text(
            """
            instance_types { F, G }
            instances { f: F, g: G }
            def main() = start f() + start g()
            def F::j() = | init prop !W
              assert[g] W
            def G::j() = | init prop !W
              skip
            """
        )
        assert main(["topo", str(f)]) == 0
        out = capsys.readouterr().out
        assert "f::j -> g::j" in out

    @pytest.mark.parametrize("name", CATALOG)
    def test_output_is_the_topology(self, name, capsys):
        # the header counts every junction and every edge, and one line
        # per edge follows in sorted order
        nodes, edges = topology(load_program(name))
        assert main(["topo", name]) == 0
        header, *lines = capsys.readouterr().out.splitlines()
        assert header == f"# {len(nodes)} junction(s), {len(edges)} edge(s)"
        assert lines == [f"{src} -> {dst}" for src, dst in sorted(edges)]


class TestSemantics:
    def test_text_output(self, good_file, capsys):
        assert main(["semantics", good_file]) == 0
        out = capsys.readouterr().out
        assert "== startup ==" in out
        assert "Sched_x::j" in out

    def test_dot_output(self, good_file, capsys):
        assert main(["semantics", good_file, "--dot"]) == 0
        assert "digraph" in capsys.readouterr().out

    @pytest.mark.parametrize("flags", ([], ["--dot"]), ids=("text", "dot"))
    def test_output_does_not_depend_on_the_hash_seed(self, flags):
        # event numbering once followed set iteration order: same lines,
        # shuffled, and shuffled predecessor lists inside ``[...]``
        import os
        import subprocess
        import sys

        def run(seed):
            env = {**os.environ, "PYTHONHASHSEED": seed,
                   "PYTHONPATH": os.pathsep.join(sys.path)}
            return subprocess.run(
                [sys.executable, "-m", "repro", "semantics", "remote_snapshot", *flags],
                env=env, capture_output=True, check=True,
            ).stdout

        assert run("1") == run("2")


class TestLoc:
    def test_counts(self, good_file, capsys):
        assert main(["loc", good_file]) == 0
        assert int(capsys.readouterr().out.strip()) == 6


class TestOneTargetRule:
    """Every verb resolves its target the same way: a shipped name, or
    a ``.csaw`` file — and the shipped files are C-Saw as written, so
    the two are the same source."""

    TARGETS = ("sharding", str(dsl_path("sharding")))

    @pytest.mark.parametrize("target", TARGETS, ids=("name", "placeholder-file"))
    @pytest.mark.parametrize(
        "verb", ("check", "topo", "semantics", "trace", "run", "analyze", "loc", "fmt")
    )
    def test_verb_accepts_target(self, verb, target, capsys):
        assert main([verb, target]) == 0, capsys.readouterr().err

    def test_name_and_file_are_the_same_source(self, capsys):
        outs = []
        for target in self.TARGETS:
            assert main(["topo", target]) == 0
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1] and "Fnt::junction -> Bck4::junction" in outs[0]

    def test_trace_starts_a_bare_file_like_run(self, capsys):
        # failover.csaw leaves main's ``t`` open and binds no host
        # block: trace stubs and defaults exactly as run does
        target = str(dsl_path("failover"))
        for verb in ("run", "trace"):
            assert main([verb, target, "--until", "5"]) == 0
            err = capsys.readouterr().err
            assert "defaulted main parameter(s) to 1.0: ['t']" in err
            assert "stubbed host bindings" in err

    @pytest.mark.parametrize("target", TARGETS[:1], ids=("name",))
    def test_fmt_write_refuses_to_expand_a_source_in_place(self, target):
        before = dsl_path("sharding").read_text()
        with pytest.raises(SystemExit, match="fmt --write"):
            main(["fmt", target, "--write"])
        assert dsl_path("sharding").read_text() == before

    @pytest.mark.parametrize("name", ("sharding", "parallel_sharding", "broker_sharded"))
    def test_fmt_formats_a_family_file(self, name, tmp_path, capsys):
        f = tmp_path / f"{name}.csaw"
        f.write_text(dsl_path(name).read_text())
        assert main(["fmt", str(f), "--write"]) == 0
        capsys.readouterr()
        written = f.read_text()
        assert "Bck[4]: Back" in written and "for b in Bck" in written
        assert main(["fmt", str(f)]) == 0
        assert capsys.readouterr().out == written  # a fixed point

    def test_script_where_a_source_is_needed(self, tmp_path, capsys):
        f = tmp_path / "s.py"
        f.write_text("print('hi')\n")
        assert main(["check", str(f)]) == 1
        assert "expected a shipped architecture name or a .csaw file" in (
            capsys.readouterr().err
        )


class TestFamilySize:
    """The back-end count is one ``--config`` entry on every verb."""

    TARGETS = TestOneTargetRule.TARGETS

    @pytest.mark.parametrize("target", TARGETS, ids=("name", "file"))
    @pytest.mark.parametrize(
        "verb",
        (["check", "--strict"], ["analyze"], ["topo"], ["semantics"], ["run"],
         ["trace"], ["explore", "--budget", "4"]),
        ids=lambda v: v[0],
    )
    def test_verb_honours_the_size(self, verb, target, capsys):
        # the architecture's one open finding (every back-end answers
        # into Fnt's ``m``) is a warning: strict stays 0
        assert main([*verb, target, "--config", "Bck=2"]) == 0, capsys.readouterr().err
        out = capsys.readouterr().out
        if verb[0] not in ("run", "explore"):  # those print a one-line summary
            assert "Bck2" in out
        assert "Bck3" not in out

    def test_a_running_verb_sizes_the_shipped_deployment(self, capsys):
        assert main(["trace", "sharding", "--config", "Bck=3"]) == 0
        out = capsys.readouterr().out
        assert '"Bck3::junction"' in out and "Bck4" not in out

    def test_strict_check_at_16(self, capsys):
        assert main(["check", "sharding", "--config", "Bck=16", "--strict"]) == 0
        out = capsys.readouterr().out
        assert "17 instance(s)" in out and "dead-junction" not in out

    @pytest.mark.parametrize("size", ("0", "-2", "2.5", "four"))
    def test_bad_size_names_the_family(self, size, capsys):
        for argv in (
            ["check", "sharding", "--config", f"Bck={size}"],
            ["run", "sharding", "--config", f"Bck={size}"],
        ):
            assert main(argv) == 1
            assert "instance family 'Bck' needs a size ≥ 1" in capsys.readouterr().err

    def test_reconfigure_sizes_each_side(self, capsys):
        argv = ["reconfigure", "sharding", "sharding", "--diff-only"]
        assert main([*argv, "--old-backends", "4", "--new-backends", "5"]) == 0
        out = capsys.readouterr().out
        assert "+ instance Bck5: Back" in out and "~ family Bck[5]: Back" in out
        assert main([*argv, "--old-backends", "0", "--new-backends", "4"]) == 1
        assert "needs a size ≥ 1, got 0" in capsys.readouterr().err
        with pytest.raises(ValueError, match="not parameterized by back-end count"):
            main(["reconfigure", "caching", "caching", "--old-backends", "2",
                  "--diff-only"])

    def test_plan_only_lists_what_the_executor_runs(self, capsys):
        """The rebind set is derived statically: ``Fnt`` names the
        family's set, so a reshard quiesces and rebinds it — and the
        added back-end, never paused, has no resume."""
        argv = ["reconfigure", "sharding", "sharding", "--plan-only"]
        assert main([*argv, "--old-backends", "4", "--new-backends", "5"]) == 0
        steps = [line.split("  (after")[0] for line in capsys.readouterr().out.splitlines()]
        for step in ("spawn Bck5", "quiesce Fnt", "snapshot Fnt", "rebind Fnt",
                     "start Bck5", "resume Fnt"):
            assert step in steps
        assert "resume Bck5" not in steps
        assert steps.index("spawn Bck5") < steps.index("quiesce Fnt")

    def test_plan_only_refuses_a_main_a_fresh_start_refuses(self, tmp_path, capsys):
        """The plan elaborates the new ``main`` as a start binds it, so
        a write of undeclared data is the start's error, not a plan."""
        bad = tmp_path / "bad.csaw"
        bad.write_text(
            load_source("sharding").replace("start b(t)\n", "start b(t) + write(zz, Fnt)\n", 1)
        )
        argv = ["reconfigure", "sharding", str(bad), "--plan-only"]
        assert main([*argv, "--old-backends", "4", "--new-backends", "5"]) == 1
        captured = capsys.readouterr()
        assert "error: __init__::main: write of undeclared data 'zz'" in captured.err
        assert "quiesce" not in captured.out
