"""Each architecture text is parsed once per load-time config.

The compile memo (``repro.core.compiler.compile_program``) and the code
loader (``test_codeload.py``) are the two instances of one helper,
:class:`repro.memo.TextMemo`: a bounded, process-wide LRU keyed by the
text.  The parser keeps nothing: a text is parsed on a compile-memo
miss, so every caller of one (text, config) — each rebuild, reshard and
explore schedule — shares one compiled program and its parsed tree.
"""

import sys
import threading

import pytest

from repro import codeload
from repro.arch.catalog import CATALOG
from repro.arch.loader import load_program
from repro.core import compile_program, compiler
from repro.core.errors import ParseError
from repro.core.parser import Parser, parse_program
from repro.explore.scenarios import arch_scenario
from repro.memo import TextMemo
from repro.runtime import System

PROGRAM = """
instance_types { T }
instances { x: T }
def main() = start x()
def T::j() =
  | init prop !P
  | init prop !Q
  | guard P
  assert[] Q
"""


# each user of the helper: its module, the memo's name, the bound's
# name, a function from a distinct int to a derived value (compared by
# identity), a call that fails to derive, and the error it raises
USERS = {
    "compile": (
        compiler, "_programs", "MAX_PROGRAMS",
        lambda i: compile_program(f"instance_types {{ T }}\ninstances {{ x{i}: T }}\n"),
        lambda: compile_program("instance_types {"),
        ParseError,
    ),
    "codeload": (
        codeload, "_codes", "MAX_CODES",
        lambda i: codeload.load(f"def f():\n    return {i}\n", "<test>")["f"].__code__,
        lambda: codeload.load("x = (\n", "<test>"),
        SyntaxError,
    ),
}


@pytest.fixture(params=sorted(USERS))
def user(request, monkeypatch):
    """One user of the helper, with an empty memo of its own bound."""
    module, memo, bound, derive, bad, error = USERS[request.param]
    monkeypatch.setattr(module, memo, TextMemo(getattr(module, bound)))
    return getattr(module, memo), derive, bad, error


class TestTextMemo:
    def test_the_least_recently_used_text_is_evicted_past_the_bound(self, user):
        memo, derive, _, _ = user
        first = [derive(i) for i in range(memo.bound)]
        assert len(memo) == memo.bound
        assert derive(0) is first[0]  # a hit, and now the most recent
        derive(memo.bound)  # evicts text 1, the least recently used
        assert len(memo) == memo.bound
        assert derive(0) is first[0]
        assert derive(2) is first[2]
        assert derive(1) is not first[1]  # derived again
        assert len(memo) == memo.bound

    def test_an_error_raises_on_every_call_and_is_not_remembered(self, user):
        memo, derive, bad, error = user
        derive(0)
        for _ in range(3):
            with pytest.raises(error):
                bad()
            assert len(memo) == 1

    def test_a_derived_none_is_remembered(self, user):
        memo, _, _, _ = user
        runs = []
        for _ in range(2):
            assert memo.get("none", lambda: runs.append(1)) is None
        assert runs == [1]
        assert len(memo) == 1

    def test_threads_sharing_one_memo_lose_nothing(self):
        memo = TextMemo(8)
        errors = []

        def worker(seed):
            try:
                for i in range(2000):
                    key = f"t{(seed * 7 + i) % 12}"
                    assert memo.get(key, lambda: ("parsed", key)) == ("parsed", key)
                    assert len(memo) <= memo.bound
            except Exception as e:  # a thread's failure is reported by the test
                errors.append(e)

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(n,)) for n in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
        finally:
            sys.setswitchinterval(old)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        assert len(memo) == memo.bound


def _parses(monkeypatch):
    """Counts the parser's real runs (memo misses)."""
    runs = []
    real = Parser.parse_program

    def spy(self):
        runs.append(self)
        return real(self)

    monkeypatch.setattr(Parser, "parse_program", spy)
    return runs


class TestParseMemo:
    @pytest.mark.parametrize("name", sorted(CATALOG))
    def test_every_shipped_architecture_is_parsed_once(self, name, monkeypatch):
        # a fresh compile memo: the first load of each config parses
        monkeypatch.setattr(compiler, "_programs", TextMemo(compiler.MAX_PROGRAMS))
        runs = _parses(monkeypatch)
        # the family size is load-time config, not part of the text
        sizes = (None,) if CATALOG[name].backends is None else (2, 5)
        for n in sizes:
            first = load_program(name, n_backends=n)
            assert load_program(name, n_backends=n) is first
            if n is not None:
                assert len(first.family("Bck")) == n
        assert len(runs) == len(sizes)

    def test_the_traced_name_is_the_memo(self):
        # the tracer times ``compiler.parse_program``: the parse the
        # compile memo runs on a miss
        assert compiler.parse_program is parse_program

    def test_two_systems_from_one_text_keep_separate_state(self):
        one = System(compile_program(PROGRAM), latency=0.01)
        two = System(compile_program(PROGRAM), latency=0.01)
        assert one.program.source.defs is two.program.source.defs
        for system in (one, two):
            system.start()
            system.run_until(1.0)
        one.external_update("x::j", "P", True)
        one.run_until(2.0)
        two.run_until(2.0)
        assert one.read_state("x::j", "Q") is True
        assert two.read_state("x::j", "Q") is False
        assert not one.failures and not two.failures

    @pytest.mark.parametrize("name", sorted(CATALOG))
    def test_a_shared_parse_leaves_the_telemetry_unchanged(self, name, monkeypatch):
        # a fresh compile memo: the cold run parses its text
        monkeypatch.setattr(compiler, "_programs", TextMemo(compiler.MAX_PROGRAMS))
        runs = _parses(monkeypatch)
        cold = arch_scenario(name).run().telemetry.export("jsonl")  # parses its text
        n = len(runs)
        assert n >= 1
        warm = [arch_scenario(name).run().telemetry.export("jsonl") for _ in range(2)]
        assert len(runs) == n  # both built from the cold run's program
        assert warm == [cold, cold]
