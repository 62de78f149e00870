"""Generated source text → executed namespace, compiled once per text.

Both code generators hand their output here: the junction compiler
(:mod:`repro.compile.codegen`) and the schema serializer generator
(:mod:`repro.serde.codegen`).  Generation is deterministic, so equal
inputs give byte-identical text — the members of an instance family
bound with equal parameters, and every rebuild of an architecture the
process has built before.  ``compile()`` is the expensive half of
loading such a module and its result, a code object, is immutable: it
runs once per distinct text and the code object is shared.  ``exec``
runs per load, into a fresh namespace, so every load gets its own
function objects and globals.  How often a module is loaded is the
caller's choice: a junction module is loaded once per closure (a
rebuild, a restart and a rebind run the functions its first bind
loaded, with their own constants), and a serializer module once per
``load_generated`` call.

The cache is a :class:`~repro.memo.TextMemo`: process-wide by design (a
build reuses what any earlier build compiled), keyed by the text itself,
and bounded: past :data:`MAX_CODES` distinct texts the least recently
loaded one is evicted.
"""

from __future__ import annotations

from types import CodeType

from .memo import TextMemo

#: distinct texts whose code objects are kept (least recently used out)
MAX_CODES = 256

_codes: TextMemo[CodeType] = TextMemo(MAX_CODES)


def load(source: str, filename: str, namespace: dict | None = None) -> dict:
    """Execute ``source`` into a copy of ``namespace``; return it.

    ``filename`` names the generator in tracebacks; it is part of the
    key, so it must not vary per caller of one text."""
    code = _codes.get((filename, source), lambda: compile(source, filename, "exec"))
    ns = dict(namespace) if namespace else {}
    exec(code, ns)
    return ns
