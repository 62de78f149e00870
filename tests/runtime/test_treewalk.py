"""The statement-semantics suites again, under the tree-walking evaluator.

The cases are the ones in ``test_interpreter``, ``test_host``,
``test_system`` and ``test_delivery`` — re-collected here, not copied —
and the autouse ``evaluator`` fixture (conftest.py) builds their systems
with ``compilation(False)`` and asserts every bound junction has
``jr.code is None``.  (The same fixture asserts the opposite in the
original modules.)
"""

from . import test_delivery, test_host, test_interpreter, test_system

#: unit tests of ReliableDelivery over a bare Network: no junction runs
_NO_EVALUATOR = {"TestRetransmission", "TestCircuitBreaker"}

for _module in (test_interpreter, test_host, test_system, test_delivery):
    _suffix = _module.__name__.rpartition("test_")[2].capitalize()
    for _name, _case in vars(_module).items():
        if _name.startswith("Test") and _name not in _NO_EVALUATOR:
            globals()[f"{_name}{_suffix}"] = _case
