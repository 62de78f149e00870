"""Serializer code generation — the schema codec.

The paper's tool analyzes C datatype definitions with libclang and
emits serialization source the programmer ``#include``s — no manual
edits to their definitions.  This module is the analogue: given a
schema in the :class:`~repro.serde.ctypes_model.TypeRegistry`, it emits
standalone Python source defining ``encode_<name>`` / ``decode_<name>``
functions specialized to the type (no registry lookups, fields inlined).

The generated source is what :class:`~repro.serde.framing.Serializer`
runs for every registered schema, so it carries every check of the
encoding: a struct is a dict with every field, an array has exactly its
length, buffers and strings respect their declared maximum on both
sides, a union tag is known, a ``char`` is one byte, and decode refuses
a non-NULL pointer at the recursion cap, where encode writes NULL (so
damaged input cannot recurse without bound).  Each rejection — of a value
or of damaged bytes — is a :class:`~repro.core.errors.SerdeError`.  Its
line count feeds the Table 2 "benefit" analysis, mirroring the paper's
182-LoC Redis key/value serializer and 2380-LoC Suricata packet
serializer.
"""

from __future__ import annotations

import struct as _struct

from ..codeload import load
from ..core.errors import SerdeError
from .ctypes_model import (
    Array,
    CString,
    Pointer,
    Primitive,
    SizedBuffer,
    Struct,
    TaggedUnion,
    TypeRegistry,
)

_HEADER = '''\
"""Auto-generated by repro.serde.codegen — do not edit.

Specialized serializers for schema {name!r} (and its dependencies).
Functions:  encode_{name}(value) -> bytes,  decode_{name}(data) -> value
Both raise SerdeError, and nothing else, on what they reject.
"""

import struct as _struct

from repro.core.errors import SerdeError

_LEN = _struct.Struct("<I")
MAX_DEPTH = {max_depth}


def _pack(fmt, kind, value):
    try:
        return _struct.pack(fmt, value)
    except _struct.error as exc:
        raise SerdeError(f"cannot pack {{value!r}} as {{kind}}: {{exc}}") from exc


def _char(value):
    if isinstance(value, str) and len(value) == 1 and value <= "\\xff":
        value = value.encode("latin-1")
    if not (isinstance(value, bytes) and len(value) == 1):
        raise SerdeError("char expects a single byte")
    return value


def _pack_sized(value, limit, text):
    if isinstance(value, int) and value > limit:  # bytes(n) would allocate n
        raise SerdeError(f"{{value}} bytes exceed the declared maximum {{limit}}")
    try:
        data = (value or "").encode("utf-8") if text else bytes(value or b"")
    except (AttributeError, TypeError, ValueError, OverflowError) as exc:
        raise SerdeError(f"cannot encode {{value!r}} as a sized buffer: {{exc}}") from exc
    if len(data) > limit:
        raise SerdeError(f"{{len(data)}} bytes exceed the declared maximum {{limit}}")
    return _LEN.pack(len(data)) + data


def _fields(value, name, fields):
    if not isinstance(value, dict):
        raise SerdeError(f"struct {{name}} expects a dict, got {{type(value).__name__}}")
    for f in fields:
        if f not in value:
            raise SerdeError(f"struct {{name}} missing field {{f!r}}")


def _seq(value, n):
    try:
        seq = list(value) if value is not None else []
    except TypeError as exc:
        raise SerdeError(f"array expects {{n}} elements: {{exc}}") from exc
    if len(seq) != n:
        raise SerdeError(f"array expects {{n}} elements, got {{len(seq)}}")
    return seq


def _union(value, name):
    if not (isinstance(value, tuple) and len(value) == 2):
        raise SerdeError(f"union {{name}} expects (tag, value)")
    return value


def _unpack(fmt, size, data, off):
    if off + size > len(data):
        raise SerdeError("truncated input")
    return _struct.unpack_from(fmt, data, off)[0], off + size


def _byte(data, off, what):
    if off >= len(data):
        raise SerdeError(f"truncated {{what}}")
    return data[off], off + 1


def _unpack_sized(data, off, limit, text):
    if off + 4 > len(data):
        raise SerdeError("truncated length prefix")
    (n,) = _LEN.unpack_from(data, off)
    off += 4
    if n > limit:
        raise SerdeError(f"{{n}} bytes exceed the declared maximum {{limit}}")
    if off + n > len(data):
        raise SerdeError("truncated buffer")
    try:
        return (data[off:off + n].decode("utf-8") if text else data[off:off + n]), off + n
    except UnicodeDecodeError as exc:
        raise SerdeError(f"invalid utf-8 in string: {{exc}}") from exc
'''


class CodeGenerator:
    """Emits specialized Python serializer source for named schemas."""

    def __init__(self, registry: TypeRegistry):
        self.registry = registry
        self._tmp_counter = 0

    def generate(self, root: str) -> str:
        """Generate source for ``root`` and every named type it uses.

        Output is deterministic: equal schemas generate byte-identical
        source regardless of process history (the artifact may be
        committed, diffed, or hashed)."""
        if self.registry.get(root) is None:
            raise SerdeError(f"unknown schema {root!r}")
        self._tmp_counter = 0
        lines: list[str] = [_HEADER.format(name=root, max_depth=self.registry.max_depth)]
        for name in self.registry.dependencies(root):
            if not name.isidentifier():
                raise SerdeError(f"schema name {name!r} is not an identifier")
            t = self.registry.resolve(name)
            lines.append(self._gen_encoder(name, t))
            lines.append(self._gen_decoder(name, t))
        return "\n".join(lines)

    def _tmp(self, prefix: str = "_v") -> str:
        self._tmp_counter += 1
        return f"{prefix}{self._tmp_counter}"

    # -- encoder emission --------------------------------------------------------

    def _gen_encoder(self, name: str, t: object) -> str:
        body: list[str] = []
        self._emit_enc(t, "value", body, indent="    ", depth_var="depth")
        code = [
            f"def _enc_{name}(value, out, depth):",
            *body,
            "",
            f"def encode_{name}(value):",
            "    out = bytearray()",
            f"    _enc_{name}(value, out, 0)",
            "    return bytes(out)",
            "",
        ]
        return "\n".join(code)

    def _emit_enc(self, t: object, var: str, out: list[str], indent: str, depth_var: str) -> None:
        if isinstance(t, str):
            out.append(f"{indent}_enc_{t}({var}, out, {depth_var})")
            return
        t = self.registry.resolve(t)
        if isinstance(t, Primitive):
            if t.kind == "char":
                out.append(f"{indent}out += _char({var})")
            else:
                out.append(f"{indent}out += _pack('<{t.fmt}', {t.kind!r}, {var})")
            return
        if isinstance(t, Pointer):
            out.append(f"{indent}if {var} is None or {depth_var} >= MAX_DEPTH:")
            out.append(f"{indent}    out.append(0)")
            out.append(f"{indent}else:")
            out.append(f"{indent}    out.append(1)")
            self._emit_enc(t.target, var, out, indent + "    ", f"{depth_var} + 1")
            return
        if isinstance(t, Array):
            elem = self._tmp("_e")
            out.append(f"{indent}for {elem} in _seq({var}, {t.length}):")
            self._emit_enc(t.element, elem, out, indent + "    ", depth_var)
            return
        if isinstance(t, (SizedBuffer, CString)):
            text = isinstance(t, CString)
            out.append(f"{indent}out += _pack_sized({var}, {t.max_length}, {text})")
            return
        if isinstance(t, Struct):
            names = tuple(f.name for f in t.fields)
            out.append(f"{indent}_fields({var}, {t.name!r}, {names!r})")
            for f in t.fields:
                self._emit_enc(f.type, f"{var}[{f.name!r}]", out, indent, depth_var)
            return
        if isinstance(t, TaggedUnion):
            tag, payload = self._tmp("_t"), self._tmp("_p")
            out.append(f"{indent}{tag}, {payload} = _union({var}, {t.name!r})")
            for i, (value, vt) in enumerate(t.variant_map().items()):
                out.append(f"{indent}{'if' if i == 0 else 'elif'} {tag} == {value!r}:")
                out.append(f"{indent}    out.append({value & 0xFF})")
                self._emit_enc(vt, payload, out, indent + "    ", depth_var)
            self._emit_unknown_tag(t, tag, out, indent)
            return
        raise SerdeError(f"cannot generate encoder for {t!r}")

    @staticmethod
    def _emit_unknown_tag(t: TaggedUnion, tag: str, out: list[str], indent: str) -> None:
        if t.variants:
            out.append(f"{indent}else:")
            indent += "    "
        out.append(f"{indent}raise SerdeError('union %s: unknown tag %r' % ({t.name!r}, {tag}))")

    # -- decoder emission --------------------------------------------------------

    def _gen_decoder(self, name: str, t: object) -> str:
        body: list[str] = []
        result = self._emit_dec(t, body, indent="    ", depth_var="depth")
        code = [
            f"def _dec_{name}(data, off, depth):",
            *body,
            f"    return {result}, off",
            "",
            f"def decode_{name}(data):",
            f"    value, off = _dec_{name}(data, 0, 0)",
            "    if off != len(data):",
            "        raise SerdeError('%d trailing byte(s) after decode' % (len(data) - off))",
            "    return value",
            "",
        ]
        return "\n".join(code)

    def _emit_dec(self, t: object, out: list[str], indent: str, depth_var: str) -> str:
        v = self._tmp()
        if isinstance(t, str):
            out.append(f"{indent}{v}, off = _dec_{t}(data, off, {depth_var})")
            return v
        t = self.registry.resolve(t)
        if isinstance(t, Primitive):
            size = _struct.calcsize("<" + t.fmt)
            out.append(f"{indent}{v}, off = _unpack('<{t.fmt}', {size}, data, off)")
            return v
        if isinstance(t, Pointer):
            flag = self._tmp("_f")
            out.append(f"{indent}{flag}, off = _byte(data, off, 'pointer flag')")
            out.append(f"{indent}if {flag} == 0:")
            out.append(f"{indent}    {v} = None")
            out.append(f"{indent}elif {depth_var} >= MAX_DEPTH:")
            out.append(f"{indent}    raise SerdeError('pointer chain deeper than MAX_DEPTH')")
            out.append(f"{indent}else:")
            inner = self._emit_dec(t.target, out, indent + "    ", f"{depth_var} + 1")
            out.append(f"{indent}    {v} = {inner}")
            return v
        if isinstance(t, Array):
            out.append(f"{indent}{v} = []")
            out.append(f"{indent}for _ in range({t.length}):")
            inner = self._emit_dec(t.element, out, indent + "    ", depth_var)
            out.append(f"{indent}    {v}.append({inner})")
            return v
        if isinstance(t, (SizedBuffer, CString)):
            text = isinstance(t, CString)
            out.append(f"{indent}{v}, off = _unpack_sized(data, off, {t.max_length}, {text})")
            return v
        if isinstance(t, Struct):
            out.append(f"{indent}{v} = {{}}")
            for f in t.fields:
                inner = self._emit_dec(f.type, out, indent, depth_var)
                out.append(f"{indent}{v}[{f.name!r}] = {inner}")
            return v
        if isinstance(t, TaggedUnion):
            tag = self._tmp("_t")
            out.append(f"{indent}{tag}, off = _byte(data, off, 'union tag')")
            for i, (value, vt) in enumerate(t.variant_map().items()):
                out.append(f"{indent}{'if' if i == 0 else 'elif'} {tag} == {value!r}:")
                inner = self._emit_dec(vt, out, indent + "    ", depth_var)
                out.append(f"{indent}    {v} = ({tag}, {inner})")
            self._emit_unknown_tag(t, tag, out, indent)
            return v
        raise SerdeError(f"cannot generate decoder for {t!r}")


def generate_module(registry: TypeRegistry, root: str) -> str:
    """Generate a standalone serializer module for schema ``root``."""
    return CodeGenerator(registry).generate(root)


def load_generated(source: str) -> dict:
    """Execute generated source into a fresh namespace; returns it
    (compiled once per distinct text, :func:`repro.codeload.load`)."""
    return load(source, "<generated-serializer>")
