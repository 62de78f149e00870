"""Which evaluator the statement-semantics suites run under.

``test_interpreter``, ``test_host``, ``test_system`` and ``test_delivery``
run with compiled junction bodies (the ambient default);
``test_treewalk`` re-collects the same cases under the tree-walker.
Either way the fixture checks the claim on every junction the test
bound, so neither half can silently compare an evaluator with itself.
"""

import pytest

from repro.compile import compilation
from repro.runtime.system import System

_COMPILED = {"test_interpreter": True, "test_host": True, "test_system": True,
             "test_delivery": True, "test_treewalk": False}


@pytest.fixture(autouse=True)
def evaluator(request, monkeypatch):
    compiled = _COMPILED.get(request.module.__name__.rpartition(".")[2])
    if compiled is None:
        yield
        return
    bound = []
    bind = System._bind_junction

    def recording_bind(self, inst, jr, *args):
        bind(self, inst, jr, *args)
        bound.append(jr)

    monkeypatch.setattr(System, "_bind_junction", recording_bind)
    with compilation(compiled):
        yield
    wrong = [jr.node for jr in bound if (jr.code is not None) != compiled]
    assert not wrong, f"expected compiled={compiled} bodies, got otherwise on {wrong}"
