"""Generated code is compiled once per distinct text (``repro.codeload``).

Family members bound with equal parameters generate byte-identical
junction modules, and so does every rebuild of an architecture: they
share one code object.  Each load runs into a fresh namespace.  A
junction module is loaded once per closure, so each family member (a
closure of its own) has its own functions and namespace, and a rebuild
runs the functions of the first build; a serializer module gets a fresh
namespace per load.
"""

import pytest

from repro import codeload
from repro.arch.sharding import ParallelShardedRedis, ShardedRedis
from repro.core import compile_program
from repro.core.errors import HostError
from repro.memo import TextMemo
from repro.runtime import System
from repro.serde import Primitive, TypeRegistry, generate_module, load_generated


def _backends(system):
    return [system.instances[n].junctions["junction"] for n in sorted(system.instances)
            if n.startswith("Bck")]


@pytest.fixture
def compiles(monkeypatch):
    """Filenames of the ``compile()`` calls the loader makes."""
    seen = []

    def spy(source, filename, mode):
        seen.append(filename)
        return compile(source, filename, mode)

    monkeypatch.setattr(codeload, "compile", spy, raising=False)
    return seen


class TestFamilySharing:
    def test_sharding_backends_share_one_code_object(self):
        backends = _backends(ShardedRedis(n_shards=4).system)
        assert len(backends) == 4
        # identity: code objects with equal contents also compare equal
        assert len({id(jr.code.body_fn.__code__) for jr in backends}) == 1
        # one function object and one namespace per junction
        assert len({id(jr.code.body_fn) for jr in backends}) == 4
        assert len({id(jr.code.body_fn.__globals__) for jr in backends}) == 4
        assert [jr.code.node for jr in backends] == [f"Bck{i}::junction" for i in range(1, 5)]

    def test_a_rebuild_compiles_no_junction_module(self, compiles):
        ShardedRedis(n_shards=4)
        del compiles[:]
        ShardedRedis(n_shards=4)
        assert "<generated-junction>" not in compiles

    def test_junctions_whose_bodies_differ_do_not_share_code(self):
        system = ShardedRedis(n_shards=4).system
        front = system.instances["Fnt"].junctions["junction"].code
        back = _backends(system)[0].code
        assert front.source != back.source
        assert front.body_fn.__code__ is not back.body_fn.__code__
        # parallel_sharding's back-ends differ only in key literals
        backends = _backends(ParallelShardedRedis(n_backends=4).system)
        assert len({jr.code.source for jr in backends}) == 4
        assert len({id(jr.code.body_fn.__code__) for jr in backends}) == 4

    def test_host_failure_in_a_shared_body_names_its_own_junction(self):
        src = """
            instance_types { Back }
            instances { Bck[3]: Back }
            def main() = for b in Bck + start b()
            def Back::j() =
              host H
        """
        system = System(compile_program(src), latency=0.01)

        def h(ctx):
            if ctx.instance == "Bck2":
                raise RuntimeError("boom")

        system.bind_host("Back", "H", h)
        system.start()
        system.run_until(1.0)
        codes = {id(system.instances[f"Bck{i}"].junctions["j"].code.body_fn.__code__)
                 for i in (1, 2, 3)}
        assert len(codes) == 1
        [(_, node, exc)] = system.failures
        assert node == "Bck2::j"
        assert isinstance(exc, HostError) and str(exc).startswith("Bck2::j: ")


class TestLoader:
    def test_the_bound_holds(self, monkeypatch, compiles):
        monkeypatch.setattr(codeload, "_codes", TextMemo(codeload.MAX_CODES))
        n = codeload.MAX_CODES + 10
        for i in range(n):
            assert codeload.load(f"x = {i}\n", "<test>")["x"] == i
        assert len(codeload._codes) == codeload.MAX_CODES
        assert compiles == ["<test>"] * n
        # the least recently loaded texts went first
        codeload.load("x = 0\n", "<test>")
        codeload.load(f"x = {n - 1}\n", "<test>")
        assert compiles == ["<test>"] * (n + 1)

    def test_a_hit_refreshes_the_text(self, monkeypatch, compiles):
        monkeypatch.setattr(codeload, "_codes", TextMemo(codeload.MAX_CODES))
        codeload.load("x = 0\n", "<test>")
        for i in range(1, codeload.MAX_CODES):
            codeload.load(f"x = {i}\n", "<test>")
        codeload.load("x = 0\n", "<test>")  # now the most recent
        codeload.load("x = -1\n", "<test>")  # evicts x = 1
        del compiles[:]
        codeload.load("x = 0\n", "<test>")
        codeload.load("x = 1\n", "<test>")
        assert compiles == ["<test>"]

    def test_a_serializer_loaded_twice_gets_two_namespaces(self, compiles):
        reg = TypeRegistry()
        reg.struct("p", x=Primitive("int32"))
        src = generate_module(reg, "p")
        one, two = load_generated(src), load_generated(src)
        assert one is not two
        assert one["encode_p"] is not two["encode_p"]
        assert one["encode_p"].__code__ is two["encode_p"].__code__
        assert compiles.count("<generated-serializer>") <= 1
        assert two["decode_p"](one["encode_p"]({"x": 7})) == {"x": 7}
