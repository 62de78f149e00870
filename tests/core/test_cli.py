"""CLI tests."""

import pytest

from repro.arch.loader import dsl_path
from repro.cli import main

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


class TestSemantics:
    def test_text_output(self, good_file, capsys):
        assert main(["semantics", good_file]) == 0
        out = capsys.readouterr().out
        assert "== startup ==" in out
        assert "Sched_x::j" in out

    def test_dot_output(self, good_file, capsys):
        assert main(["semantics", good_file, "--dot"]) == 0
        assert "digraph" in capsys.readouterr().out


class TestLoc:
    def test_counts(self, good_file, capsys):
        assert main(["loc", good_file]) == 0
        assert int(capsys.readouterr().out.strip()) == 6


class TestOneTargetRule:
    """Every verb resolves its target the same way: a shipped name, or
    a ``.csaw`` file whose placeholders are expanded."""

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

    @pytest.mark.parametrize("target", TARGETS, ids=("name", "placeholder-file"))
    def test_fmt_write_refuses_to_expand_a_source_in_place(self, target):
        before = dsl_path("sharding").read_text()
        with pytest.raises(SystemExit, match="fmt --write"):
            main(["fmt", target, "--write"])
        assert dsl_path("sharding").read_text() == before

    def test_script_where_a_source_is_needed(self, tmp_path, capsys):
        f = tmp_path / "s.py"
        f.write_text("print('hi')\n")
        assert main(["check", str(f)]) == 1
        assert "expected a shipped architecture name or a .csaw file" in (
            capsys.readouterr().err
        )
