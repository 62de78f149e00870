"""Generated source text → executed namespace, compiled once per text.

Both code generators hand their output here: the junction compiler
(:mod:`repro.compile.codegen`) and the schema serializer generator
(:mod:`repro.serde.codegen`).  Generation is deterministic, so equal
inputs give byte-identical text — the members of an instance family
bound with equal parameters, and every rebuild of an architecture the
process has built before.  ``compile()`` is the expensive half of
loading such a module and its result, a code object, is immutable: it
runs once per distinct text and the code object is shared.  ``exec``
still runs per load, into a fresh namespace, so every caller gets its
own function objects and globals.

The cache is process-wide by design (a build reuses what any earlier
build compiled), keyed by the text itself, and bounded: past
:data:`MAX_CODES` distinct texts the least recently loaded one is
evicted.  A key that is the content needs no invalidation.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from types import CodeType

#: distinct texts whose code objects are kept (least recently used out)
MAX_CODES = 256

_codes: OrderedDict[tuple[str, str], CodeType] = OrderedDict()
_lock = threading.Lock()


def load(source: str, filename: str, namespace: dict | None = None) -> dict:
    """Execute ``source`` into a copy of ``namespace``; return it.

    ``filename`` names the generator in tracebacks; it is part of the
    key, so it must not vary per caller of one text."""
    key = (filename, source)
    with _lock:
        code = _codes.get(key)
        if code is not None:
            _codes.move_to_end(key)
    if code is None:
        code = compile(source, filename, "exec")
        with _lock:
            _codes[key] = code
            while len(_codes) > MAX_CODES:
                _codes.popitem(last=False)
    ns = dict(namespace) if namespace else {}
    exec(code, ns)
    return ns
