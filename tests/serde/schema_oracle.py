"""The interpretive schema codec that ``repro.serde.framing.Serializer``
ran before it switched to the generated serializers of
``repro.serde.codegen``, kept as the reference the generated code is
compared against (byte for byte on encode, value for value on decode).
One edit since: a sized buffer handed an int ``n`` past its maximum
(``bytes(n)`` is ``n`` zero bytes) is refused before the allocation
rather than after it, which rejects exactly what was rejected before.

It walks the schema at run time instead of emitting specialized code.
Its one documented divergence from the generated codec: decoding a
``CString`` that is not valid UTF-8 raises ``UnicodeDecodeError`` here
and ``SerdeError`` there.
"""

import struct as _struct

from repro.core.errors import SerdeError
from repro.serde.ctypes_model import (
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

_LEN = _struct.Struct("<I")


class Encoder:
    """Encodes a value of a given C type into bytes."""

    def __init__(self, registry: TypeRegistry):
        self.registry = registry

    def encode(self, t: object, value: object) -> bytes:
        out = bytearray()
        self._enc(self.registry.resolve(t), value, out, depth=0)
        return bytes(out)

    def _enc(self, t: CType, value: object, out: bytearray, depth: int) -> None:
        if isinstance(t, Primitive):
            self._enc_primitive(t, value, out)
            return
        if isinstance(t, Pointer):
            if value is None or depth >= self.registry.max_depth:
                out.append(0)
                return
            out.append(1)
            self._enc(self.registry.resolve(t.target), value, out, depth + 1)
            return
        if isinstance(t, Array):
            seq = list(value) if value is not None else []
            if len(seq) != t.length:
                raise SerdeError(f"array expects {t.length} elements, got {len(seq)}")
            elem = self.registry.resolve(t.element)
            for v in seq:
                self._enc(elem, v, out, depth)
            return
        if isinstance(t, SizedBuffer):
            if isinstance(value, int) and value > t.max_length:
                # refused as before, but before bytes(n) allocates n bytes
                raise SerdeError(
                    f"buffer of {value} bytes exceeds declared maximum {t.max_length}"
                )
            data = bytes(value or b"")
            if len(data) > t.max_length:
                raise SerdeError(
                    f"buffer of {len(data)} bytes exceeds declared maximum {t.max_length}"
                )
            out += _LEN.pack(len(data))
            out += data
            return
        if isinstance(t, CString):
            data = (value or "").encode("utf-8")
            if len(data) > t.max_length:
                raise SerdeError(f"string exceeds declared maximum {t.max_length}")
            out += _LEN.pack(len(data))
            out += data
            return
        if isinstance(t, Struct):
            if not isinstance(value, dict):
                raise SerdeError(f"struct {t.name} expects a dict, got {type(value).__name__}")
            for f in t.fields:
                if f.name not in value:
                    raise SerdeError(f"struct {t.name} missing field {f.name!r}")
                self._enc(self.registry.resolve(f.type), value[f.name], out, depth)
            return
        if isinstance(t, TaggedUnion):
            if not (isinstance(value, tuple) and len(value) == 2):
                raise SerdeError(f"union {t.name} expects (tag, value)")
            tag, payload = value
            variants = t.variant_map()
            if tag not in variants:
                raise SerdeError(f"union {t.name}: unknown tag {tag!r}")
            out.append(tag & 0xFF)
            self._enc(self.registry.resolve(variants[tag]), payload, out, depth)
            return
        raise SerdeError(f"cannot encode type {t!r}")

    @staticmethod
    def _enc_primitive(t: Primitive, value: object, out: bytearray) -> None:
        if t.kind == "char":
            if isinstance(value, str):
                value = value.encode("latin-1")
            if not (isinstance(value, bytes) and len(value) == 1):
                raise SerdeError("char expects a single byte")
            out += value
            return
        try:
            out += _struct.pack("<" + t.fmt, value)
        except _struct.error as exc:
            raise SerdeError(f"cannot pack {value!r} as {t.kind}: {exc}") from exc


class Decoder:
    """Decodes bytes back into the Python representation."""

    def __init__(self, registry: TypeRegistry):
        self.registry = registry

    def decode(self, t: object, data: bytes) -> object:
        value, offset = self._dec(self.registry.resolve(t), data, 0)
        if offset != len(data):
            raise SerdeError(f"{len(data) - offset} trailing byte(s) after decode")
        return value

    def _dec(self, t: CType, data: bytes, off: int):
        if isinstance(t, Primitive):
            if t.kind == "char":
                return data[off : off + 1], off + 1
            s = _struct.Struct("<" + t.fmt)
            if off + s.size > len(data):
                raise SerdeError("truncated input")
            return s.unpack_from(data, off)[0], off + s.size
        if isinstance(t, Pointer):
            if off >= len(data):
                raise SerdeError("truncated pointer flag")
            flag = data[off]
            off += 1
            if flag == 0:
                return None, off
            return self._dec(self.registry.resolve(t.target), data, off)
        if isinstance(t, Array):
            elem = self.registry.resolve(t.element)
            out = []
            for _ in range(t.length):
                v, off = self._dec(elem, data, off)
                out.append(v)
            return out, off
        if isinstance(t, (SizedBuffer, CString)):
            if off + _LEN.size > len(data):
                raise SerdeError("truncated length prefix")
            (n,) = _LEN.unpack_from(data, off)
            off += _LEN.size
            if off + n > len(data):
                raise SerdeError("truncated buffer")
            raw = data[off : off + n]
            off += n
            if isinstance(t, CString):
                return raw.decode("utf-8"), off
            return raw, off
        if isinstance(t, Struct):
            out = {}
            for f in t.fields:
                v, off = self._dec(self.registry.resolve(f.type), data, off)
                out[f.name] = v
            return out, off
        if isinstance(t, TaggedUnion):
            if off >= len(data):
                raise SerdeError("truncated union tag")
            tag = data[off]
            off += 1
            variants = t.variant_map()
            if tag not in variants:
                raise SerdeError(f"union {t.name}: unknown tag {tag}")
            v, off = self._dec(self.registry.resolve(variants[tag]), data, off)
            return (tag, v), off
        raise SerdeError(f"cannot decode type {t!r}")
