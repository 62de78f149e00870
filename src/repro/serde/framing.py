"""Wire framing and the runtime :class:`Serializer`.

``save`` produces a :class:`SavedData` — a schema-tagged opaque blob —
which is what lives in KV tables and crosses the network via ``write``.
Schemas registered against a :class:`~repro.serde.ctypes_model.TypeRegistry`
use the type-aware C encoding; unregistered data falls back to a small
generic codec covering the Python shapes substrates exchange (dict,
list, tuple, str, bytes, int, float, bool, None).
"""

from __future__ import annotations

import struct as _struct
from dataclasses import dataclass

from ..core.errors import SerdeError
from .ctypes_model import TypeRegistry
from .traverse import Decoder, Encoder

_LEN = _struct.Struct("<I")
_I64 = _struct.Struct("<q")
_F64 = _struct.Struct("<d")


@dataclass(frozen=True)
class SavedData:
    """A serialized value as stored in KV tables.

    ``schema`` is the registered type name (or ``None`` for the generic
    codec); ``blob`` the encoded bytes.
    """

    schema: str | None
    blob: bytes

    def __len__(self) -> int:
        return len(self.blob)


# ---------------------------------------------------------------------------
# Generic codec
# ---------------------------------------------------------------------------

#: tag byte + payload in one pack ("<" puts no padding between them)
_tag_len = _struct.Struct("<cI").pack
_tag_i64 = _struct.Struct("<cq").pack
_tag_f64 = _struct.Struct("<cd").pack
#: the ``isinstance`` chain subclasses go through, in the codec's
#: historical order: a subclass is encoded as the first kind it extends
_KINDS = (int, float, str, bytes, list, tuple, dict)


def _enc_generic(value: object, out: bytearray) -> None:
    # dispatch on the exact type, commonest first; a subclass (IntEnum,
    # a str or dict subclass, a namedtuple) falls through to the last
    # branch and is re-dispatched as its kind, by the same operations
    t = type(value)
    while True:
        if t is str:
            raw = value.encode("utf-8")
            out += _tag_len(b"s", len(raw))
            out += raw
        elif t is int:
            try:
                out += _tag_i64(b"i", value)
            except _struct.error:
                raise SerdeError(
                    f"generic codec cannot serialize {value!r}: outside the signed 64-bit range"
                ) from None
        elif t is dict:
            out += _tag_len(b"d", len(value))
            for k, v in value.items():
                _enc_generic(k, out)
                _enc_generic(v, out)
        elif value is None:
            out += b"N"
        elif t is bool:
            out += b"T" if value else b"F"
        elif t is bytes:
            out += _tag_len(b"b", len(value))
            out += value
        elif t is list or t is tuple:
            out += _tag_len(b"l" if t is list else b"t", len(value))
            for v in value:
                _enc_generic(v, out)
        elif t is float:
            out += _tag_f64(b"f", value)
        else:
            t = next((k for k in _KINDS if isinstance(value, k)), None)
            if t is not None:
                continue
            raise SerdeError(
                f"generic codec cannot serialize {type(value).__name__}; register a schema"
            )
        return


_N, _T, _F, _I, _FL, _S, _B, _L, _TU, _D = b"NTFifsbltd"  # tag byte values


def _dec_generic(data: bytes, off: int):
    end = len(data)
    if off >= end:
        raise SerdeError("truncated generic value")
    tag = data[off]
    off += 1
    if tag == _S or tag == _B:
        if off + 4 > end:
            raise SerdeError("truncated length prefix")
        stop = off + 4 + _LEN.unpack_from(data, off)[0]
        if stop > end:
            raise SerdeError("truncated string/bytes")
        if tag == _B:
            return data[off + 4 : stop], stop
        try:
            return data[off + 4 : stop].decode("utf-8"), stop
        except UnicodeDecodeError as exc:
            raise SerdeError(f"invalid utf-8 in string: {exc}") from exc
    if tag == _I:
        if off + 8 > end:
            raise SerdeError("truncated integer")
        return _I64.unpack_from(data, off)[0], off + 8
    if tag == _N:
        return None, off
    if tag == _T or tag == _F:
        return tag == _T, off
    if tag == _D or tag == _L or tag == _TU:
        if off + 4 > end:
            raise SerdeError("truncated length prefix")
        n = _LEN.unpack_from(data, off)[0]
        off += 4
        if tag == _D:
            d = {}
            for _ in range(n):
                k, off = _dec_generic(data, off)
                d[k], off = _dec_generic(data, off)
            return d, off
        items = []
        for _ in range(n):
            v, off = _dec_generic(data, off)
            items.append(v)
        return (items if tag == _L else tuple(items)), off
    if tag == _FL:
        if off + 8 > end:
            raise SerdeError("truncated float")
        return _F64.unpack_from(data, off)[0], off + 8
    raise SerdeError(f"unknown generic tag {bytes([tag])!r}")


def encode_generic(value: object) -> bytes:
    out = bytearray()
    _enc_generic(value, out)
    return bytes(out)


def decode_generic(data: bytes) -> object:
    value, off = _dec_generic(data, 0)
    if off != len(data):
        raise SerdeError("trailing bytes after generic decode")
    return value


# ---------------------------------------------------------------------------
# Serializer
# ---------------------------------------------------------------------------

class Serializer:
    """Schema-dispatching serializer used by the runtime's
    ``save``/``restore``/``write`` primitives."""

    def __init__(self, registry: TypeRegistry | None = None):
        self.registry = registry or TypeRegistry()
        self._encoder = Encoder(self.registry)
        self._decoder = Decoder(self.registry)

    def encode(self, schema: str | None, value: object) -> SavedData:
        if schema is None:
            return SavedData(None, encode_generic(value))
        if self.registry.get(schema) is None:
            raise SerdeError(f"unknown schema {schema!r}")
        return SavedData(schema, self._encoder.encode(schema, value))

    def decode(self, saved: SavedData) -> object:
        if not isinstance(saved, SavedData):
            raise SerdeError(f"expected SavedData, got {type(saved).__name__}")
        if saved.schema is None:
            return decode_generic(saved.blob)
        return self._decoder.decode(saved.schema, saved.blob)
