"""A junction is closed once per template and environment.

``compile_program`` returns one program per distinct (text, config),
and each of its junction templates keeps what binding it produced
(``CompiledJunction.closures``): the specialised, validated body per
(environment, instance, junction), and the text the junction compiler
emitted for it.  A rebuild therefore specialises, validates and emits
nothing; it re-resolves the static targets against its own ``System``
and loads the remembered text into fresh functions.
"""

import gc
import sys
import threading
import types

import pytest

from repro.arch.catalog import CATALOG
from repro.compile import codegen, compilation
from repro.core import compile_program, compiler
from repro.core.errors import CompileError, ValidationError
from repro.explore.scenarios import arch_scenario
from repro.memo import TextMemo
from repro.runtime import System
from repro.runtime import system as system_mod
from repro.runtime.instance import InstanceRuntime, InstanceTypeRuntime, JunctionRuntime
from repro.runtime.kvtable import KVTable

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

# ``y``'s template closes to a junction that fails validation: its
# ``keep`` names no state
INVALID = """
instance_types { T, U }
instances { x: T, y: U }
def main() = start x()
def T::j() = skip
def U::j() =
  | init data a
  keep(k)
"""

SET_FROM_CONFIG = """
instance_types { T }
instances { x: T }
def main() = start x()
def T::j() =
  | set S
  | for s in S init prop !Up[s]
  assert[] Up[a]
"""

MAIN_WITH_PARAM = """
instance_types { T }
instances { x: T }
def main(n) = start x(n)
def T::j(n) =
  | init prop !P
  skip
"""

ROWS = [
    (name, n)
    for name in sorted(CATALOG)
    for n in ((2, 5) if CATALOG[name].backends is not None else (None,))
]


def _build(name, n):
    row = CATALOG[name]
    sizes = dict(row.explore)
    if n is not None:
        sizes[row.backends] = n
    return row.build(seed=0, **sizes).system


def _spy(monkeypatch, owner, attr):
    """Counts the calls of ``owner.attr``."""
    calls = []
    real = getattr(owner, attr)

    def spy(*args, **kw):
        calls.append(args)
        return real(*args, **kw)

    monkeypatch.setattr(owner, attr, spy)
    return calls


def _bound(system):
    return {
        jr.node: jr
        for inst in system.instances.values()
        for jr in inst.junctions.values()
        if jr.closure is not None
    }


#: what one ``System`` owns; none of it may outlive the System through
#: the program it was built from
PER_SYSTEM = (System, InstanceRuntime, InstanceTypeRuntime, JunctionRuntime, KVTable)


def _per_system_reachable(root):
    """The per-System objects reachable from ``root`` by references
    other than classes and modules (a module may keep the last System
    for the telemetry facade; that is not the program's doing)."""
    modules = {id(m.__dict__) for m in list(sys.modules.values()) if m is not None}
    seen, found, todo = set(), [], [root]
    while todo:
        o = todo.pop()
        if id(o) in seen or isinstance(o, (type, types.ModuleType)) or id(o) in modules:
            continue
        seen.add(id(o))
        if isinstance(o, PER_SYSTEM):
            found.append(o)
            continue
        todo.extend(gc.get_referents(o))
    return found


class TestBindMemo:
    @pytest.mark.parametrize("name,n", ROWS)
    def test_a_rebuild_closes_and_emits_nothing(self, name, n, monkeypatch):
        one = _build(name, n)
        closes = _spy(monkeypatch, system_mod, "specialize")
        validations = _spy(monkeypatch, system_mod, "validate_closed_junction")
        emissions = _spy(monkeypatch, codegen.BodyCompiler, "compile")
        two = _build(name, n)
        # every close is a hit, ``main``'s included
        assert (closes, validations, emissions) == ([], [], [])
        assert two.program is one.program

        first, second = _bound(one), _bound(two)
        assert first and first.keys() == second.keys()
        mine = {id(jr) for inst in two.instances.values() for jr in inst.junctions.values()}
        for node, jr in second.items():
            old = first[node]
            assert jr.closure is old.closure
            assert jr.body is old.body and jr.decls is old.decls
            assert (jr.code is None) == (old.code is None)
            if jr.code is None:
                continue
            assert jr.code.source is old.code.source
            assert jr.code.body_fn is not old.code.body_fn  # a fresh namespace
            for (_, static), const in zip(jr.closure.emitted.recipe, jr.code.consts):
                if static:
                    assert isinstance(const, JunctionRuntime) and id(const) in mine
                assert not isinstance(const, JunctionRuntime) or id(const) in mine

    def test_a_failed_validation_raises_on_every_bind_and_stores_nothing(
        self, monkeypatch
    ):
        program = compile_program(INVALID)
        validations = _spy(monkeypatch, system_mod, "validate_closed_junction")
        for i in range(3):
            system = System(program, latency=0.01)
            system.start()
            with pytest.raises(ValidationError, match="keep of undeclared key 'k'"):
                system.start_instance("y")
            # main's and x's first binds, then each of y's
            assert len(validations) == i + 3
            assert program.junction("U", "j").closures == {}

    @pytest.mark.parametrize("name", sorted(CATALOG))
    def test_the_program_keeps_nothing_of_a_system(self, name):
        one, two = arch_scenario(name).run(), arch_scenario(name).run()
        assert two.program is one.program
        program = one.program
        assert program.main is not None and program.main.closures
        assert _per_system_reachable(program) == []

    def test_a_start_with_missing_parameters_can_be_retried(self):
        system = System(compile_program(MAIN_WITH_PARAM), latency=0.01)
        with pytest.raises(CompileError, match=r"missing values: \['n'\]"):
            system.start()
        system.start(n=1)
        system.run_until(1.0)
        assert system.instance("x").running
        with pytest.raises(CompileError, match="main already started"):
            system.start(n=1)

    def test_two_systems_from_one_program_keep_separate_state(self):
        one = System(compile_program(PROGRAM), latency=0.01)
        two = System(compile_program(PROGRAM), latency=0.01)
        assert one.program is two.program
        for system in (one, two):
            system.start()
            system.run_until(1.0)
        assert one.instance("x").junction("j").closure is two.instance("x").junction("j").closure
        one.external_update("x::j", "P", True)
        one.run_until(2.0)
        two.run_until(2.0)
        assert one.read_state("x::j", "Q") is True
        assert two.read_state("x::j", "Q") is False
        assert not one.failures and not two.failures

    def test_threads_binding_one_program_lose_nothing(self):
        program = compile_program(PROGRAM)
        errors = []

        def worker():
            try:
                for _ in range(30):
                    system = System(compile_program(PROGRAM), latency=0.01)
                    system.start()
                    system.run_until(1.0)
                    system.external_update("x::j", "P", True)
                    system.run_until(2.0)
                    assert system.read_state("x::j", "Q") is True
                    assert not system.failures
            except Exception as e:  # a thread's failure is reported by the test
                errors.append(e)

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker) for _ in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(old)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        assert len(program.junction("T", "j").closures) == 1

    @pytest.mark.parametrize("compiled", (True, False), ids=("compiled", "treewalk"))
    @pytest.mark.parametrize("name", sorted(CATALOG))
    def test_cold_and_warm_binds_export_the_same_telemetry(
        self, name, compiled, monkeypatch
    ):
        # a fresh compile memo: the first run closes every template
        monkeypatch.setattr(compiler, "_programs", TextMemo(compiler.MAX_PROGRAMS))
        closes = _spy(monkeypatch, system_mod, "validate_closed_junction")
        with compilation(compiled):
            cold = arch_scenario(name).run().telemetry.export("jsonl")
            n = len(closes)
            assert n >= 1
            warm = arch_scenario(name).run().telemetry.export("jsonl")
        assert len(closes) == n
        assert warm == cold

    def test_an_unhashable_config_is_compiled_on_every_call(self):
        programs = [compile_program(SET_FROM_CONFIG, config={"S": ["a", "b"]}) for _ in range(2)]
        assert programs[0] is not programs[1]
        for program in programs:
            assert program.config == {"S": ["a", "b"]}
            system = System(program, latency=0.01)
            system.start()
            system.run_until(1.0)
            assert system.read_state("x::j", "Up[a]") is True
            assert system.read_state("x::j", "Up[b]") is False
            assert not system.failures
