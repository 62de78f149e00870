"""The recursive generic codec as it was before the type-dispatched
rewrite in ``repro.serde.framing``, kept verbatim as the reference the
byte-identity suite compares the live codec against."""

import struct as _struct

from repro.core.errors import SerdeError

_LEN = _struct.Struct("<I")
_I64 = _struct.Struct("<q")
_F64 = _struct.Struct("<d")


def _enc_generic(value: object, out: bytearray) -> None:
    if value is None:
        out += b"N"
    elif value is True:
        out += b"T"
    elif value is False:
        out += b"F"
    elif isinstance(value, int):
        out += b"i"
        out += _I64.pack(value)
    elif isinstance(value, float):
        out += b"f"
        out += _F64.pack(value)
    elif isinstance(value, str):
        raw = value.encode("utf-8")
        out += b"s"
        out += _LEN.pack(len(raw))
        out += raw
    elif isinstance(value, bytes):
        out += b"b"
        out += _LEN.pack(len(value))
        out += value
    elif isinstance(value, (list, tuple)):
        out += b"l" if isinstance(value, list) else b"t"
        out += _LEN.pack(len(value))
        for v in value:
            _enc_generic(v, out)
    elif isinstance(value, dict):
        out += b"d"
        out += _LEN.pack(len(value))
        for k, v in value.items():
            _enc_generic(k, out)
            _enc_generic(v, out)
    else:
        raise SerdeError(
            f"generic codec cannot serialize {type(value).__name__}; register a schema"
        )


def _dec_generic(data: bytes, off: int):
    if off >= len(data):
        raise SerdeError("truncated generic value")
    tag = data[off : off + 1]
    off += 1
    if tag == b"N":
        return None, off
    if tag == b"T":
        return True, off
    if tag == b"F":
        return False, off
    if tag == b"i":
        if off + _I64.size > len(data):
            raise SerdeError("truncated integer")
        return _I64.unpack_from(data, off)[0], off + _I64.size
    if tag == b"f":
        if off + _F64.size > len(data):
            raise SerdeError("truncated float")
        return _F64.unpack_from(data, off)[0], off + _F64.size
    if tag in (b"s", b"b"):
        if off + _LEN.size > len(data):
            raise SerdeError("truncated length prefix")
        (n,) = _LEN.unpack_from(data, off)
        off += _LEN.size
        raw = data[off : off + n]
        if len(raw) != n:
            raise SerdeError("truncated string/bytes")
        off += n
        if tag == b"b":
            return raw, off
        try:
            return raw.decode("utf-8"), off
        except UnicodeDecodeError as exc:
            raise SerdeError(f"invalid utf-8 in string: {exc}") from exc
    if tag in (b"l", b"t"):
        if off + _LEN.size > len(data):
            raise SerdeError("truncated length prefix")
        (n,) = _LEN.unpack_from(data, off)
        off += _LEN.size
        items = []
        for _ in range(n):
            v, off = _dec_generic(data, off)
            items.append(v)
        return (items if tag == b"l" else tuple(items)), off
    if tag == b"d":
        if off + _LEN.size > len(data):
            raise SerdeError("truncated length prefix")
        (n,) = _LEN.unpack_from(data, off)
        off += _LEN.size
        d = {}
        for _ in range(n):
            k, off = _dec_generic(data, off)
            v, off = _dec_generic(data, off)
            d[k] = v
        return d, off
    raise SerdeError(f"unknown generic tag {tag!r}")


def encode_generic(value: object) -> bytes:
    out = bytearray()
    _enc_generic(value, out)
    return bytes(out)


def decode_generic(data: bytes) -> object:
    value, off = _dec_generic(data, 0)
    if off != len(data):
        raise SerdeError("trailing bytes after generic decode")
    return value
