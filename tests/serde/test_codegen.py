"""Serializer code generation: generated code round-trips and agrees
with the interpretive oracle (``schema_oracle.py``)."""

import pytest

from repro.core.errors import SerdeError
from repro.serde import (
    Array,
    CString,
    Pointer,
    Primitive,
    SizedBuffer,
    TaggedUnion,
    TypeRegistry,
    generate_module,
    load_generated,
)

from .schema_oracle import Decoder, Encoder


def gen(reg, root):
    return load_generated(generate_module(reg, root))


class TestGeneratedRoundtrip:
    def test_flat_struct(self):
        reg = TypeRegistry()
        reg.struct("p", x=Primitive("int32"), y=Primitive("float64"))
        ns = gen(reg, "p")
        v = {"x": 4, "y": 2.5}
        assert ns["decode_p"](ns["encode_p"](v)) == v

    def test_nested_structs(self):
        reg = TypeRegistry()
        reg.struct("inner", a=Primitive("uint16"))
        reg.struct("outer", i="inner", b=Primitive("bool"))
        ns = gen(reg, "outer")
        v = {"i": {"a": 9}, "b": True}
        assert ns["decode_outer"](ns["encode_outer"](v)) == v

    def test_pointer_and_depth(self):
        reg = TypeRegistry(max_depth=3)
        reg.struct("node", v=Primitive("int64"), next=Pointer("node"))
        ns = gen(reg, "node")
        lst = {"v": 1, "next": {"v": 2, "next": {"v": 3, "next": {"v": 4, "next": None}}}}
        out = ns["decode_node"](ns["encode_node"](lst))
        # depth-capped like the interpreter: the root struct is depth 0,
        # each pointer hop adds one, so max_depth=3 keeps 4 nodes
        n = 0
        cur = out
        while cur is not None:
            n += 1
            cur = cur["next"]
        assert n == 4
        assert ns["encode_node"](lst) == Encoder(reg).encode("node", lst)

    def test_array_buffer_string(self):
        reg = TypeRegistry()
        reg.struct(
            "rec",
            arr=Array(Primitive("uint8"), 3),
            buf=SizedBuffer(),
            name=CString(),
        )
        ns = gen(reg, "rec")
        v = {"arr": [1, 2, 3], "buf": b"raw", "name": "x"}
        assert ns["decode_rec"](ns["encode_rec"](v)) == v

    def test_union(self):
        reg = TypeRegistry()
        reg.register("u", TaggedUnion("u", ((0, Primitive("int32")), (1, CString()))))
        reg.struct("rec", payload="u")
        ns = gen(reg, "rec")
        for v in [{"payload": (0, -9)}, {"payload": (1, "s")}]:
            assert ns["decode_rec"](ns["encode_rec"](v)) == v

    def test_union_of_inline_union_keeps_its_outer_tag(self):
        # the inner union's tag used to overwrite the outer one's
        reg = TypeRegistry()
        inner = TaggedUnion("inner", ((7, Primitive("uint8")),))
        reg.register("outer", TaggedUnion("outer", ((1, inner),)))
        ns = gen(reg, "outer")
        data = ns["encode_outer"]((1, (7, 5)))
        assert data == Encoder(reg).encode("outer", (1, (7, 5))) == b"\x01\x07\x05"
        assert ns["decode_outer"](data) == Decoder(reg).decode("outer", data) == (1, (7, 5))

    def test_empty_struct_and_union(self):
        reg = TypeRegistry()
        reg.struct("nothing")
        reg.register("never", TaggedUnion("never", ()))
        ns = gen(reg, "nothing")
        assert ns["encode_nothing"]({}) == b""
        assert ns["decode_nothing"](b"") == {}
        ns = gen(reg, "never")
        with pytest.raises(SerdeError, match="unknown tag"):
            ns["encode_never"]((0, 0))
        with pytest.raises(SerdeError, match="unknown tag"):
            ns["decode_never"](b"\x00")

    @pytest.mark.parametrize(
        "t, value",
        [
            (Primitive("int8"), 128),
            (Primitive("uint32"), "1"),
            (Primitive("char"), b"ab"),
            (Primitive("char"), "\u20ac"),
            (CString(), 5),
            (CString(), "\ud800"),
            (SizedBuffer(), "text"),
            (Array(Primitive("uint8"), 2), 7),
            (TaggedUnion("u", ((1, Primitive("uint8")),)), [1, 2]),
            (SizedBuffer(max_length=64), 2**62),  # refused, not allocated
        ],
    )
    def test_every_rejected_value_is_a_serde_error(self, t, value):
        reg = TypeRegistry()
        reg.struct("rec", v=t)
        with pytest.raises(SerdeError):
            gen(reg, "rec")["encode_rec"]({"v": value})

    def test_unknown_root(self):
        with pytest.raises(SerdeError):
            generate_module(TypeRegistry(), "nope")


class TestAgreementWithInterpreter:
    def test_same_bytes_as_interpreted_codec(self):
        reg = TypeRegistry()
        reg.struct("inner", a=Primitive("uint16"), s=CString())
        reg.struct("rec", i="inner", p=Pointer("inner"), n=Primitive("int64"))
        ns = gen(reg, "rec")
        v = {"i": {"a": 1, "s": "q"}, "p": {"a": 2, "s": "r"}, "n": -5}
        assert ns["encode_rec"](v) == Encoder(reg).encode("rec", v)

    def test_generated_decodes_interpreted(self):
        reg = TypeRegistry()
        reg.struct("rec", xs=Array(Primitive("int32"), 2))
        ns = gen(reg, "rec")
        v = {"xs": [10, 20]}
        assert ns["decode_rec"](Encoder(reg).encode("rec", v)) == v

    def test_interpreted_decodes_generated(self):
        reg = TypeRegistry()
        reg.struct("rec", b=SizedBuffer())
        ns = gen(reg, "rec")
        v = {"b": b"\x00\x01"}
        assert Decoder(reg).decode("rec", ns["encode_rec"](v)) == v


class TestSubstrateSchemas:
    def test_redis_entry_generated(self):
        from repro.direct.schemas import redis_entry_schema

        reg = TypeRegistry()
        root = redis_entry_schema(reg)
        reg.validate()
        ns = gen(reg, root)
        v = {
            "key": "user:1",
            "value": {"kind": 0, "data": b"hello", "int_value": 0},
            "expires_at": 0.0,
            "has_expiry": False,
            "lru_clock": 7,
        }
        assert ns[f"decode_{root}"](ns[f"encode_{root}"](v)) == v

    def test_suricata_packet_generated(self):
        from repro.direct.schemas import suricata_packet_schema

        reg = TypeRegistry()
        root = suricata_packet_schema(reg)
        reg.validate()
        ns = gen(reg, root)
        v = {
            "ts": 1.5,
            "pcap_cnt": 10,
            "eth": {"dst": [0] * 6, "src": [1] * 6, "ethertype": 0x0800},
            "ip": (4, {
                "version_ihl": 0x45, "tos": 0, "total_len": 60, "ident": 1,
                "flags_frag": 0, "ttl": 64, "proto": 6, "checksum": 0,
                "src": 0x0A000001, "dst": 0xC0A80001,
            }),
            "l4": (6, {
                "src_port": 1234, "dst_port": 80, "seq": 1, "ack": 0,
                "off_flags": 0x5002, "window": 65535, "checksum": 0, "urgent": 0,
            }),
            "payload": b"GET / HTTP/1.1",
            "flow": {
                "packets_toserver": 3, "packets_toclient": 2,
                "bytes_toserver": 300, "bytes_toclient": 200,
                "state": 1, "alerted": False, "app_proto": 1, "last_seen": 1.5,
            },
            "alerts": [None] * 15,
            "alert_count": 0,
            "flags": 0,
            "vlan_id": [0, 0],
            "livedev": "eth0",
            "next": None,
        }
        assert ns[f"decode_{root}"](ns[f"encode_{root}"](v)) == v

    def test_generated_loc_measured(self):
        from repro.arch.loc import serde_generated_loc

        loc = serde_generated_loc()
        # the Suricata packet serializer is much bigger than Redis's,
        # matching the paper's 2380 vs 182 relationship
        assert loc["suricata_packet"] > 3 * loc["redis_kv"]
