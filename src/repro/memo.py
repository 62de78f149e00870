"""One bounded, process-wide memo keyed by source text.

Two derivations in the toolchain are pure functions of a text whose
results are immutable: generated Python → code object
(:mod:`repro.codeload`) and an architecture's C-Saw text under a
load-time config → compiled program
(:func:`repro.core.compiler.compile_program`, which parses the text on
a miss).  Each runs once per distinct text in the process and every
later caller shares the result.  A key that is the content needs no
invalidation; the bound keeps a long-lived process (a fuzzer, the test
suite) from growing without limit.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from collections.abc import Callable, Hashable
from typing import Generic, TypeVar

V = TypeVar("V")

#: marks a miss, so that a derived ``None`` is remembered like any value
_MISSING = object()


class TextMemo(Generic[V]):
    """An LRU from a text key to the value derived from it.

    Past ``bound`` keys the least recently used one is evicted.  Safe
    across threads: ``derive`` runs outside the lock, so two threads
    missing on one key may both derive it (the results are equal).  A
    ``derive`` that raises stores nothing; one that returns ``None``
    stores it like any other value."""

    def __init__(self, bound: int):
        self.bound = bound
        self._items: OrderedDict[Hashable, V] = OrderedDict()
        self._lock = threading.Lock()

    def get(self, key: Hashable, derive: Callable[[], V]) -> V:
        """The value for ``key``, from ``derive()`` on a miss."""
        with self._lock:
            value = self._items.get(key, _MISSING)
            if value is not _MISSING:
                self._items.move_to_end(key)
                return value
        value = derive()
        with self._lock:
            self._items[key] = value
            while len(self._items) > self.bound:
                self._items.popitem(last=False)
        return value

    def __len__(self) -> int:
        return len(self._items)
