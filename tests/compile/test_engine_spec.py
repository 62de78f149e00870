"""EngineSpec: the one value that says how a System executes.

Covers the textual form, round-tripping, uniform acceptance by
``System`` (spec string / EngineSpec / explicit kwarg precedence) and
by the CLI's ``--engine`` flag.
"""

import argparse

import pytest

from repro.cli import _engine_spec
from repro.core.compiler import compile_program
from repro.runtime.engine import EngineSpec
from repro.runtime.system import System

SRC = """
instance_types { T }
instances { t: T }
def main(x) = start t(x)
def T::j(x) =
  | init prop !Go
  skip
"""


def _system(**kw):
    return System(compile_program(SRC), **kw)


class TestParse:
    def test_bare_name(self):
        assert EngineSpec.parse("sim") == EngineSpec()

    def test_options(self):
        spec = EngineSpec.parse("realtime,time_scale=0.05,compiled=off")
        assert spec.name == "realtime"
        assert spec.time_scale == 0.05
        assert spec.compiled is False

    def test_workers_and_passthrough(self):
        spec = EngineSpec.parse("cluster,workers=4,heartbeat_timeout=2.5")
        assert spec.workers == 4
        assert spec.options == (("heartbeat_timeout", 2.5),)

    def test_leading_option_defaults_name_to_sim(self):
        assert EngineSpec.parse("compiled=on").name == "sim"

    @pytest.mark.parametrize("bad", ["", "sim,compiled=maybe", "sim,oops"])
    def test_rejects(self, bad):
        with pytest.raises(ValueError):
            EngineSpec.parse(bad)

    @pytest.mark.parametrize(
        "text",
        ["sim", "sim,compiled=off", "realtime,time_scale=0.05", "cluster,workers=4"],
    )
    def test_str_round_trips(self, text):
        spec = EngineSpec.parse(text)
        assert EngineSpec.parse(str(spec)) == spec

    def test_of(self):
        assert EngineSpec.of(None) == EngineSpec()
        spec = EngineSpec(name="realtime")
        assert EngineSpec.of(spec) is spec
        assert EngineSpec.of("sim,compiled=on").compiled is True
        with pytest.raises(TypeError):
            EngineSpec.of(42)


class TestSystemAcceptance:
    def test_spec_string_selects_compile_mode(self):
        assert _system(engine="sim,compiled=off")._compiled is False
        assert _system(engine="sim,compiled=on")._compiled is True

    def test_engine_spec_value(self):
        assert _system(engine=EngineSpec(compiled=False))._compiled is False


class TestCliShims:
    def test_no_flags_no_warning(self):
        import warnings

        args = argparse.Namespace(engine="sim")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert _engine_spec(args) == EngineSpec()


class TestBadEngine:
    """A spec no engine takes is a ``ValueError`` naming the engine, the
    unknown option and the accepted ones — before anything is built —
    and, on the command line, one line on stderr and exit status 2."""

    @pytest.mark.parametrize("spec,unknown", [
        ("realtime,bogus=1", "bogus"),
        ("realtime,max_workers=4", "max_workers"),
        ("cluster,bogus=1", "bogus"),
        ("cluster,python=/bin/false", "python"),  # workers are forked, not run by path
        ("realtime-tcp,transport=inproc", "transport"),
    ])
    def test_unknown_option_names_engine_option_and_accepted(self, spec, unknown):
        with pytest.raises(ValueError) as err:
            _system(engine=spec)
        msg = str(err.value)
        name = spec.split(",")[0]
        assert f"engine {name!r}" in msg and unknown in msg
        assert "accepted: " in msg and "time_scale" in msg

    def test_unknown_engine(self):
        with pytest.raises(ValueError, match="unknown engine 'nosuch'"):
            _system(engine="nosuch")

    @pytest.mark.parametrize("spec", [
        "realtime,bogus=1", "realtime,max_workers=4", "nosuch", "sim,workers=x",
    ])
    def test_cli_reports_one_line_and_exits_2(self, capsys, spec):
        from repro.cli import main

        with pytest.raises(SystemExit) as exit_:
            main(["run", "sharding", "--engine", spec])
        assert exit_.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.count("\n") == 1 and err.startswith("error: --engine: ")

    @pytest.mark.parametrize("argv", [
        ["trace", "sharding"],
        ["workload"],
        ["cluster", "sharding"],
        ["reconfigure", "sharding", "sharding"],
        ["explore", "sharding"],
    ])
    def test_every_verb_taking_engine_exits_2(self, capsys, argv):
        from repro.cli import main

        with pytest.raises(SystemExit) as exit_:
            main([*argv, "--engine", "realtime,bogus=1"])
        assert exit_.value.code == 2
        assert capsys.readouterr().err.count("\n") == 1
