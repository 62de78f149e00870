"""A junction is closed once per template and environment.

``compile_program`` returns one program per distinct (text, config),
and each of its junction templates keeps what binding it produced
(``CompiledJunction.closures``): the specialised, validated body per
(environment, instance, junction), the table image of its
declarations, and the text the junction compiler emitted for it with
the functions its one load made.  A rebuild therefore specialises,
validates, emits and loads nothing and walks no declarations; it
re-resolves the static targets against its own ``System``, runs the
closure's functions with them, and copies the image into a table of
its own.
"""

import gc
import sys
import threading
import types

import pytest

from repro.arch.catalog import CATALOG
from repro.arch.sharding import ShardedRedis
from repro.compile import codegen, compilation
from repro.core import compile_program, compiler
from repro.core.errors import CompileError, UndeclaredKeyError, ValidationError
from repro.explore.scenarios import arch_scenario
from repro.memo import TextMemo
from repro.serde import codegen as serde_codegen
from repro.runtime import System
from repro.runtime import instance as instance_mod
from repro.runtime import system as system_mod
from repro.runtime.instance import InstanceRuntime, InstanceTypeRuntime, JunctionRuntime
from repro.runtime.kvtable import UNDEF, KVTable

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
    for the telemetry facade; that is not the program's doing), and the
    ids of every object the walk visited."""
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
    return found, seen


class TestBindMemo:
    @pytest.mark.parametrize("name,n", ROWS)
    def test_a_rebuild_closes_and_emits_nothing(self, name, n, monkeypatch):
        one = _build(name, n)
        closes = _spy(monkeypatch, system_mod, "specialize")
        validations = _spy(monkeypatch, system_mod, "validate_closed_junction")
        emissions = _spy(monkeypatch, codegen.BodyCompiler, "compile")
        # every caller of ``repro.codeload.load``
        loads = [_spy(monkeypatch, mod, "load") for mod in (codegen, serde_codegen)]
        images = _spy(monkeypatch, instance_mod, "table_image")
        two = _build(name, n)
        # every close is a hit, ``main``'s included
        assert (closes, validations, emissions) == ([], [], [])
        # and so is everything a closure determines: no module runs and
        # no declarations are walked
        assert (loads, images) == ([[], []], [])
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
            assert jr.code.body_fn is old.code.body_fn  # loaded once per closure
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
        found, seen = _per_system_reachable(program)
        assert found == []
        # the walk reached what the closures hold: table images and the
        # functions each closure's one load made
        closures = [c for cj in (program.main, *program.junctions) for c in cj.closures.values()]
        assert closures and all(id(c.image) in seen for c in closures)
        loaded = [c.emitted for c in closures if c.emitted is not None and c.emitted.source]
        assert loaded
        assert all(id(e.body_fn) in seen and id(e.body_fn.__globals__) in seen for e in loaded)

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


# ``j``'s wait admits ``Up[b]``, a family member it declares, so an
# update to it changes a slot of the table; ``Go`` ends the wait and
# ``j`` writes ``P``
WRITES = """
instance_types { T }
instances { x: T }
def main() = start x()
def T::j() =
  | init prop !P
  | init prop !Go
  | for s in {a, b} init prop !Up[s]
  | idx i of {a, b}
  | guard !P
  wait[] Go || Up[b]; assert[] P
"""


def _write(system, node):
    """Set ``Up[b]`` in ``node``'s table, then ``P``."""
    system.external_update(node, "Up[b]", True)
    system.external_update(node, "Go", True)
    system.run_until(system.now + 1.0)
    table = system.junction(node).table
    assert table.get("P") is True and table.get("Up[b]") is True
    return table


class TestTableImage:
    """A closure's table image lays out each table: the keys and index
    are the image's own immutable ones, the values a copy."""

    def _fresh(self, jr, image):
        table = jr.table
        assert table.keys is image.keys and table.index is image.index
        assert tuple(table.slots) == image.values and table.slots is not image.values

    def test_a_rebuild_and_a_restart_start_from_the_image(self):
        one = System(compile_program(WRITES), latency=0.01)
        one.start()
        one.run_until(1.0)
        jr = one.instance("x").junction("j")
        image = jr.closure.image
        assert image.keys == ("P", "Go", "Up[a]", "Up[b]", "i")
        assert image.values == (False, False, False, False, UNDEF)
        first = _write(one, "x::j")

        two = System(compile_program(WRITES), latency=0.01)
        two.start()
        two.run_until(1.0)
        assert two.instance("x").junction("j").closure is jr.closure
        self._fresh(two.instance("x").junction("j"), image)

        one.crash_instance("x")
        one.restart_instance("x", reinit=True)
        assert jr.table is not first
        self._fresh(jr, image)
        assert first.get("Up[b]") is True and image.values[image.index["Up[b]"]] is False

    def test_a_reshard_rebind_starts_from_the_image(self, monkeypatch):
        svc = ShardedRedis(n_shards=4)
        system = svc.system
        jr = system.instance("Fnt").junction("junction")
        closure, image = jr.closure, jr.closure.image
        system.external_update("Fnt::junction", "Work", True)
        with pytest.raises(UndeclaredKeyError, match="'Extra'"):
            system.external_update("Fnt::junction", "Extra", True)
        system.run_until(system.now + 1.0)
        written = jr.table
        assert written.get("Work") is True and not written.has("Extra")

        rebinds = []
        real = JunctionRuntime.init_state

        def init_state(self):
            real(self)
            if self is jr:  # the table as the rebind leaves it, before the transfer
                rebinds.append((self.closure, self.table.keys, tuple(self.table.slots)))

        monkeypatch.setattr(JunctionRuntime, "init_state", init_state)
        for n in (5, 4):
            assert svc.reconfigure_shards(n).ok
        # back on the 4-back-end closure, in a table of its own
        assert len(rebinds) == 2 and rebinds[1] == (closure, image.keys, image.values)
        assert jr.closure is closure and jr.table is not written
        # the transfer carries declared state by name
        assert jr.table.get("Work") is True and jr.table.keys is image.keys
        assert image.values[image.index["Work"]] is False

    def test_a_bind_cannot_change_its_name_sets_or_set_values(self):
        system = System(compile_program(WRITES), latency=0.01)
        system.start()
        system.run_until(1.0)
        jr = system.instance("x").junction("j")
        declared = jr.declared
        assert declared.idx == {"i"} and declared.props == {"P", "Go", "Up[a]", "Up[b]"}
        assert declared.set_values == {"i!of": ("a", "b")}
        for names in (declared.idx, declared.subset, declared.data, declared.props):
            with pytest.raises(AttributeError):
                names.add("k")
        with pytest.raises(TypeError):
            declared.set_values["k"] = ()
        with pytest.raises(TypeError):
            jr.closure.image.index["k"] = 9
