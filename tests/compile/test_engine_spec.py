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

    def test_explicit_kwarg_beats_spec(self):
        sys_ = _system(engine="sim,compiled=off", compiled=True)
        assert sys_._compiled is True


class TestCliShims:
    def test_no_flags_no_warning(self):
        import warnings

        args = argparse.Namespace(engine="sim")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert _engine_spec(args) == EngineSpec()
