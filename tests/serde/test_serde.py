"""Serialization framework tests: model, traversal, framing."""

import pytest

from repro.core.errors import SerdeError
from repro.serde import (
    Array,
    CString,
    Pointer,
    Primitive,
    SavedData,
    Serializer,
    SizedBuffer,
    Struct,
    TaggedUnion,
    TypeRegistry,
    decode_generic,
    encode_generic,
    leaf_paths,
    visit,
)


def point_registry():
    reg = TypeRegistry()
    reg.struct("point", x=Primitive("int32"), y=Primitive("int32"))
    return reg


class TestTypeModel:
    def test_unknown_primitive_rejected(self):
        with pytest.raises(SerdeError):
            Primitive("int128")

    def test_negative_array_rejected(self):
        with pytest.raises(SerdeError):
            Array(Primitive("int32"), -1)

    def test_duplicate_registration_rejected(self):
        reg = point_registry()
        with pytest.raises(SerdeError):
            reg.struct("point", x=Primitive("int32"))

    def test_resolve_by_name(self):
        reg = point_registry()
        assert isinstance(reg.resolve("point"), Struct)

    def test_resolve_unknown(self):
        with pytest.raises(SerdeError):
            point_registry().resolve("nope")

    def test_validate_detects_dangling_reference(self):
        reg = TypeRegistry()
        reg.struct("bad", p=Pointer("missing"))
        with pytest.raises(SerdeError):
            reg.validate()

    def test_validate_recursive_type_ok(self):
        reg = TypeRegistry()
        reg.struct("node", value=Primitive("int64"), next=Pointer("node"))
        reg.validate()


def box(reg, t):
    """Register a one-field struct around the anonymous type ``t`` and
    return its name: ``Serializer`` encodes registered schemas only."""
    name = f"box{len(reg.names())}"
    reg.struct(name, v=t)
    return name


def encode(reg, t, value):
    return Serializer(reg).encode(box(reg, t), {"v": value})


class TestEncodeDecode:
    def roundtrip(self, reg, t, value):
        ser = Serializer(reg)
        return ser.decode(encode(reg, t, value))["v"]

    def test_struct_roundtrip(self):
        reg = point_registry()
        assert self.roundtrip(reg, "point", {"x": -5, "y": 7}) == {"x": -5, "y": 7}

    def test_all_primitives(self):
        reg = TypeRegistry()
        for kind, value in [
            ("int8", -100), ("int16", -30000), ("int32", -2**31), ("int64", 2**60),
            ("uint8", 255), ("uint16", 65535), ("uint32", 2**32 - 1),
            ("uint64", 2**63), ("float64", 3.5), ("bool", True),
        ]:
            assert self.roundtrip(reg, Primitive(kind), value) == value

    def test_float32_lossy_but_stable(self):
        reg = TypeRegistry()
        out = self.roundtrip(reg, Primitive("float32"), 1.5)
        assert out == 1.5

    def test_char(self):
        reg = TypeRegistry()
        assert self.roundtrip(reg, Primitive("char"), b"A") == b"A"

    def test_null_pointer(self):
        reg = point_registry()
        assert self.roundtrip(reg, Pointer("point"), None) is None

    def test_pointer_to_struct(self):
        reg = point_registry()
        v = {"x": 1, "y": 2}
        assert self.roundtrip(reg, Pointer("point"), v) == v

    def test_array(self):
        reg = TypeRegistry()
        t = Array(Primitive("uint8"), 4)
        assert self.roundtrip(reg, t, [1, 2, 3, 4]) == [1, 2, 3, 4]

    def test_array_wrong_length(self):
        reg = TypeRegistry()
        for value in ([1], [1, 2, 3, 4, 5]):
            with pytest.raises(SerdeError):
                encode(reg, Array(Primitive("uint8"), 4), value)

    def test_sized_buffer(self):
        reg = TypeRegistry()
        assert self.roundtrip(reg, SizedBuffer(), b"hello") == b"hello"

    def test_sized_buffer_over_max(self):
        reg = TypeRegistry()
        with pytest.raises(SerdeError):
            encode(reg, SizedBuffer(4), b"too long")

    def test_cstring(self):
        reg = TypeRegistry()
        assert self.roundtrip(reg, CString(), "héllo") == "héllo"

    def test_tagged_union(self):
        reg = TypeRegistry()
        t = TaggedUnion("u", ((1, Primitive("int32")), (2, CString())))
        assert self.roundtrip(reg, t, (1, 42)) == (1, 42)
        assert self.roundtrip(reg, t, (2, "x")) == (2, "x")

    def test_union_unknown_tag(self):
        reg = TypeRegistry()
        t = TaggedUnion("u", ((1, Primitive("int32")),))
        with pytest.raises(SerdeError):
            encode(reg, t, (9, 0))

    def test_missing_struct_field(self):
        reg = point_registry()
        with pytest.raises(SerdeError):
            Serializer(reg).encode("point", {"x": 1})

    def test_trailing_bytes_rejected(self):
        reg = point_registry()
        data = Serializer(reg).encode("point", {"x": 1, "y": 2}).blob
        with pytest.raises(SerdeError):
            Serializer(reg).decode(SavedData("point", data + b"\x00"))

    def test_truncated_rejected(self):
        reg = point_registry()
        data = Serializer(reg).encode("point", {"x": 1, "y": 2}).blob
        with pytest.raises(SerdeError):
            Serializer(reg).decode(SavedData("point", data[:-1]))


class TestRecursionDepth:
    def linked_list(self, n):
        head = None
        for i in reversed(range(n)):
            head = {"value": i, "next": head}
        return head

    def list_len(self, node):
        n = 0
        while node is not None:
            n += 1
            node = node["next"]
        return n

    def roundtrip(self, reg, value):
        ser = Serializer(reg)
        return ser.decode(encode(reg, Pointer("node"), value))["v"]

    def test_list_within_depth_roundtrips(self):
        reg = TypeRegistry(max_depth=16)
        reg.struct("node", value=Primitive("int64"), next=Pointer("node"))
        out = self.roundtrip(reg, self.linked_list(5))
        assert self.list_len(out) == 5

    def test_list_truncated_at_max_depth(self):
        """The paper: 'linked lists are only serialized up to a maximum
        length' — protecting the serialization buffer."""
        reg = TypeRegistry(max_depth=4)
        reg.struct("node", value=Primitive("int64"), next=Pointer("node"))
        out = self.roundtrip(reg, self.linked_list(100))
        assert self.list_len(out) == 4

    def test_cycle_terminates(self):
        reg = TypeRegistry(max_depth=8)
        reg.struct("node", value=Primitive("int64"), next=Pointer("node"))
        a = {"value": 1, "next": None}
        a["next"] = a  # cycle
        out = self.roundtrip(reg, a)
        assert self.list_len(out) == 8

    def test_chain_deeper_than_max_depth_is_not_decoded(self):
        # the encoder writes NULL at the cap, so a present pointer there
        # is damaged input: refused, not followed towards RecursionError
        reg = TypeRegistry(max_depth=2)
        reg.struct("node", value=Primitive("uint8"), next=Pointer("node"))
        ser = Serializer(reg)
        assert ser.decode(SavedData("node", b"\x07\x01\x08\x01\x09\x00")) == {
            "value": 7, "next": {"value": 8, "next": {"value": 9, "next": None}},
        }
        with pytest.raises(SerdeError, match="deeper than MAX_DEPTH"):
            ser.decode(SavedData("node", b"\x07\x01\x08\x01\x09\x01\x0a\x00"))


class TestVisitor:
    def test_leaf_paths(self):
        reg = TypeRegistry()
        reg.struct(
            "rec",
            a=Primitive("int32"),
            arr=Array(Primitive("uint8"), 2),
            p=Pointer(CString()),
        )
        value = {"a": 1, "arr": [7, 8], "p": "hi"}
        paths = dict(leaf_paths(reg, "rec", value))
        assert paths["$.a"] == 1
        assert paths["$.arr[0]"] == 7
        assert paths["$.p*"] == "hi"

    def test_null_pointer_not_visited(self):
        reg = TypeRegistry()
        reg.struct("rec", p=Pointer(Primitive("int32")))
        paths = dict(leaf_paths(reg, "rec", {"p": None}))
        assert paths == {}

    def test_union_path(self):
        reg = TypeRegistry()
        t = TaggedUnion("u", ((1, Primitive("int32")),))
        seen = []
        visit(reg, t, (1, 5), lambda p, _t, v: seen.append((p, v)))
        assert seen == [("$<1>", 5)]


class TestGenericCodec:
    @pytest.mark.parametrize(
        "value",
        [
            None, True, False, 0, -1, 2**40, 3.25, "", "text", b"", b"bytes",
            [], [1, "a", None], (1, 2), {"k": "v", "n": {"deep": [1]}},
            {"mixed": [True, b"x", (None,)]},
        ],
    )
    def test_roundtrip(self, value):
        assert decode_generic(encode_generic(value)) == value

    def test_unsupported_type_rejected(self):
        with pytest.raises(SerdeError):
            encode_generic(object())

    def test_truncation_detected(self):
        data = encode_generic([1, 2, 3])
        with pytest.raises(SerdeError):
            decode_generic(data[:-2])

    @pytest.mark.parametrize("value", [2**63, -(2**63) - 1, 10**30])
    def test_int_outside_int64_is_a_serde_error_naming_the_value(self, value):
        # a raw struct.error used to escape here, from save and from the
        # cluster's wire.encode_message alike
        for encode in (encode_generic, lambda v: Serializer().encode(None, v)):
            with pytest.raises(SerdeError, match=str(value)):
                encode(value)
            with pytest.raises(SerdeError, match=str(value)):
                encode({"nested": [value]})

    def test_int64_bounds_roundtrip(self):
        for value in (2**63 - 1, -(2**63)):
            assert decode_generic(encode_generic(value)) == value


class TestSerializer:
    def test_generic_schema(self):
        s = Serializer()
        saved = s.encode(None, {"a": 1})
        assert isinstance(saved, SavedData)
        assert saved.schema is None
        assert s.decode(saved) == {"a": 1}

    def test_typed_schema(self):
        reg = point_registry()
        s = Serializer(reg)
        saved = s.encode("point", {"x": 3, "y": 4})
        assert saved.schema == "point"
        assert s.decode(saved) == {"x": 3, "y": 4}

    def test_unknown_schema(self):
        with pytest.raises(SerdeError):
            Serializer().encode("nope", {})

    def test_decode_requires_saveddata(self):
        with pytest.raises(SerdeError):
            Serializer().decode(b"raw")

    def test_len(self):
        saved = Serializer().encode(None, "abc")
        assert len(saved) == len(saved.blob)

    def test_invalid_utf8_is_a_serde_error(self):
        # the interpretive oracle leaks UnicodeDecodeError here
        reg = TypeRegistry()
        reg.register("r", CString())
        with pytest.raises(SerdeError, match="utf-8"):
            Serializer(reg).decode(SavedData("r", b"\x02\x00\x00\x00\xff\xfe"))

    def test_decode_respects_max_length(self):
        reg = TypeRegistry()
        reg.register("short", CString(2))
        reg.register("buf", SizedBuffer(2))
        ser = Serializer(reg)
        for schema in ("short", "buf"):
            with pytest.raises(SerdeError, match="declared maximum 2"):
                ser.decode(SavedData(schema, b"\x05\x00\x00\x00hello"))

    def test_truncated_char_reports_truncation(self):
        reg = TypeRegistry()
        reg.struct("rec", a=Primitive("uint8"), c=Primitive("char"))
        with pytest.raises(SerdeError, match="truncated"):
            Serializer(reg).decode(SavedData("rec", b"\x01"))

    def test_codec_is_generated_once_per_schema(self, monkeypatch):
        from repro.serde import framing

        generated = []
        real = framing.generate_module
        monkeypatch.setattr(
            framing, "generate_module",
            lambda reg, root: generated.append(root) or real(reg, root),
        )
        ser = Serializer(point_registry())
        for x in range(3):
            assert ser.decode(ser.encode("point", {"x": x, "y": 2})) == {"x": x, "y": 2}
        assert generated == ["point"]

    def test_non_identifier_schema_name_is_a_serde_error(self):
        reg = TypeRegistry()
        reg.struct("a-b", x=Primitive("int32"))
        with pytest.raises(SerdeError, match="identifier"):
            Serializer(reg).encode("a-b", {"x": 1})
