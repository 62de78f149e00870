"""A model of C data types for the serialization framework.

The paper's serializer (sec. 9) is a libclang-based tool in the
C-strider tradition: it statically analyzes C datatype definitions and
generates type-aware traversal/serialization code.  This module models
the C type system that tool operates over:

* primitives (fixed-width integers, floats, chars, booleans),
* pointers (nullable; cycles and long chains handled by a configurable
  maximum recursion depth — the paper's linked-list cap),
* fixed-length arrays,
* length-prefixed buffers (the "implicit size of memory objects"
  problem: the tool asks the user size-related questions; here the
  answer is recorded in the schema as a ``SizedBuffer``),
* structs with named fields,
* tagged unions (the ``void*`` / arbitrary-cast problem: a ``void*``
  must be declared as a :class:`TaggedUnion` over the possible pointee
  types, with an explicit tag).

Schemas live in a :class:`TypeRegistry` so that named struct types can
reference each other (including recursively).
"""

from __future__ import annotations

from dataclasses import dataclass
from ..core.errors import SerdeError


class CType:
    """Base class for C type descriptions."""

    __slots__ = ()


@dataclass(frozen=True)
class Primitive(CType):
    """A fixed-width scalar.  ``kind`` is one of
    ``int8/int16/int32/int64/uint8/uint16/uint32/uint64/float32/
    float64/char/bool``."""

    kind: str

    _STRUCT_FMT = {
        "int8": "b",
        "int16": "h",
        "int32": "i",
        "int64": "q",
        "uint8": "B",
        "uint16": "H",
        "uint32": "I",
        "uint64": "Q",
        "float32": "f",
        "float64": "d",
        "char": "c",
        "bool": "?",
    }

    def __post_init__(self):
        if self.kind not in self._STRUCT_FMT:
            raise SerdeError(f"unknown primitive kind {self.kind!r}")

    @property
    def fmt(self) -> str:
        return self._STRUCT_FMT[self.kind]


@dataclass(frozen=True)
class Pointer(CType):
    """A nullable pointer to ``target`` (a CType or a named struct)."""

    target: object  # CType | str (registry name)


@dataclass(frozen=True)
class Array(CType):
    """A fixed-length array of ``element``."""

    element: object
    length: int

    def __post_init__(self):
        if self.length < 0:
            raise SerdeError("array length must be non-negative")


@dataclass(frozen=True)
class SizedBuffer(CType):
    """A variable-length byte buffer whose size is implicit in C (e.g.
    ``char *buf`` + ``size_t len``); the schema records the answer to
    the tool's "size question" as a maximum length."""

    max_length: int = 1 << 20


@dataclass(frozen=True)
class CString(CType):
    """A NUL-terminated ``char*`` (encoded as UTF-8 text)."""

    max_length: int = 1 << 16


@dataclass(frozen=True)
class Field:
    name: str
    type: object  # CType | str


@dataclass(frozen=True)
class Struct(CType):
    """A C struct with named, ordered fields."""

    name: str
    fields: tuple[Field, ...]


@dataclass(frozen=True)
class TaggedUnion(CType):
    """Models a ``void*`` or C union: a uint8 tag selects the variant.

    ``variants`` maps tag value -> CType (or registry name).
    """

    name: str
    variants: tuple[tuple[int, object], ...]

    def variant_map(self) -> dict[int, object]:
        return dict(self.variants)


class TypeRegistry:
    """Named struct/union schemas; supports recursive references."""

    def __init__(self, max_depth: int = 16):
        if max_depth < 1:
            raise SerdeError("max_depth must be >= 1")
        self._types: dict[str, CType] = {}
        self.max_depth = max_depth

    def register(self, name: str, ctype: CType, /) -> CType:
        if name in self._types:
            raise SerdeError(f"type {name!r} already registered")
        self._types[name] = ctype
        return ctype

    def struct(self, name: str, /, **fields: object) -> Struct:
        """Declare and register a struct in one call."""
        s = Struct(name, tuple(Field(k, v) for k, v in fields.items()))
        self.register(name, s)
        return s

    def resolve(self, t: object) -> CType:
        if isinstance(t, str):
            if t not in self._types:
                raise SerdeError(f"unknown type name {t!r}")
            return self._types[t]
        if isinstance(t, CType):
            return t
        raise SerdeError(f"not a C type: {t!r}")

    def get(self, name: str) -> CType | None:
        return self._types.get(name)

    def names(self) -> list[str]:
        return sorted(self._types)

    def validate(self) -> None:
        """Check that every referenced name resolves."""
        for name in self._types:
            self._validate_type(self._types[name], seen=set())

    def _validate_type(self, t: object, seen: set[str]) -> None:
        if isinstance(t, str):
            if t in seen:
                return
            seen.add(t)
            self._validate_type(self.resolve(t), seen)
            return
        if isinstance(t, Primitive):
            return
        if isinstance(t, (SizedBuffer, CString)):
            return
        if isinstance(t, Pointer):
            self._validate_type(t.target, seen)
            return
        if isinstance(t, Array):
            self._validate_type(t.element, seen)
            return
        if isinstance(t, Struct):
            if t.name in seen:
                return
            seen.add(t.name)
            for f in t.fields:
                self._validate_type(f.type, seen)
            return
        if isinstance(t, TaggedUnion):
            if t.name in seen:
                return
            seen.add(t.name)
            for _tag, vt in t.variants:
                self._validate_type(vt, seen)
            return
        raise SerdeError(f"not a C type: {t!r}")
