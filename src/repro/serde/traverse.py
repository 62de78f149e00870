"""Type-aware traversal of C-typed values.

Given a schema from :mod:`repro.serde.ctypes_model` and a Python value
shaped like the C data (dicts for structs, lists for arrays, ``None``
for NULL pointers, ``(tag, value)`` for tagged unions), :func:`visit`
performs a depth-bounded traversal that calls back on every leaf, as
C-strider's per-field serialization calls do.  Encoding and decoding
are not here: the schema codec is the generated serializer of
:mod:`repro.serde.codegen`.

The recursion-depth bound mirrors the paper's prototype: "recursive
datatypes [are supported] up to a maximum, though configurable,
recursion depth.  For instance, linked lists are only serialized up to
a maximum length" — pointer chains beyond ``max_depth`` are not
visited, as the codec encodes them as NULL.
"""

from __future__ import annotations

from typing import Callable, Iterator

from ..core.errors import SerdeError
from .ctypes_model import (
    Array,
    CString,
    CType,
    Pointer,
    Primitive,
    SizedBuffer,
    Struct,
    TaggedUnion,
    TypeRegistry,
)


def visit(
    registry: TypeRegistry,
    t: object,
    value: object,
    callback: Callable[[str, CType, object], None],
    path: str = "$",
    depth: int = 0,
) -> None:
    """Depth-bounded, type-aware traversal invoking ``callback(path,
    ctype, value)`` on every primitive/buffer/string leaf — the
    C-strider "heap traversal guided by user-defined callbacks"."""
    t = registry.resolve(t)
    if isinstance(t, (Primitive, SizedBuffer, CString)):
        callback(path, t, value)
        return
    if isinstance(t, Pointer):
        if value is None or depth >= registry.max_depth:
            return
        visit(registry, t.target, value, callback, path + "*", depth + 1)
        return
    if isinstance(t, Array):
        for i, v in enumerate(value or []):
            visit(registry, t.element, v, callback, f"{path}[{i}]", depth)
        return
    if isinstance(t, Struct):
        for f in t.fields:
            visit(registry, f.type, (value or {}).get(f.name), callback, f"{path}.{f.name}", depth)
        return
    if isinstance(t, TaggedUnion):
        if value is None:
            return
        tag, payload = value
        visit(registry, t.variant_map()[tag], payload, callback, f"{path}<{tag}>", depth)
        return
    raise SerdeError(f"cannot visit type {t!r}")


def leaf_paths(registry: TypeRegistry, t: object, value: object) -> Iterator[tuple[str, object]]:
    """Convenience: yield ``(path, leaf_value)`` pairs."""
    acc: list[tuple[str, object]] = []
    visit(registry, t, value, lambda p, _t, v: acc.append((p, v)))
    return iter(acc)
