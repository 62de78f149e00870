"""C-type schemas for the substrates' wire data.

These model the structures the paper's serializer tool handled: Redis's
key/value entry (the 182-LoC generated serializer) and Suricata's
packet structure (2380 LoC generated — a large nest of headers, flow
state and detection metadata).  The schemas feed
:mod:`repro.serde.codegen` both for the Table 2 benefit analysis and
for typed ``save``/``write`` payloads in tests.
"""

from __future__ import annotations

from repro.serde.ctypes_model import (
    Array,
    CString,
    Pointer,
    Primitive,
    SizedBuffer,
    TaggedUnion,
    TypeRegistry,
)

U8 = Primitive("uint8")
U16 = Primitive("uint16")
U32 = Primitive("uint32")
U64 = Primitive("uint64")
I64 = Primitive("int64")
F64 = Primitive("float64")
BOOL = Primitive("bool")


def redis_entry_schema(reg: TypeRegistry) -> str:
    """The redislite key/value entry (cf. the paper's Redis key and
    value structure)."""
    reg.struct(
        "redis_value",
        kind=U8,                      # string / int / ...
        data=SizedBuffer(1 << 20),
        int_value=I64,
    )
    reg.struct(
        "redis_entry",
        key=CString(512),
        value=Pointer("redis_value"),
        expires_at=F64,
        has_expiry=BOOL,
        lru_clock=U32,
    )
    reg.struct(
        "redis_keyspace_chunk",
        count=U32,
        entries=Array(Pointer("redis_entry"), 16),
        next=Pointer("redis_keyspace_chunk"),  # linked chunks: depth-capped
    )
    return "redis_entry"


def suricata_packet_schema(reg: TypeRegistry) -> str:
    """The suricatalite packet structure: layered headers, flow state
    and detection metadata (the paper's 2380-LoC generated case)."""
    reg.struct(
        "eth_header",
        dst=Array(U8, 6),
        src=Array(U8, 6),
        ethertype=U16,
    )
    reg.struct(
        "ipv4_header",
        version_ihl=U8,
        tos=U8,
        total_len=U16,
        ident=U16,
        flags_frag=U16,
        ttl=U8,
        proto=U8,
        checksum=U16,
        src=U32,
        dst=U32,
    )
    reg.struct(
        "ipv6_header",
        ver_class_flow=U32,
        payload_len=U16,
        next_header=U8,
        hop_limit=U8,
        src=Array(U8, 16),
        dst=Array(U8, 16),
    )
    reg.register(
        "ip_header",
        TaggedUnion("ip_header", ((4, "ipv4_header"), (6, "ipv6_header"))),
    )
    reg.struct(
        "tcp_header",
        src_port=U16,
        dst_port=U16,
        seq=U32,
        ack=U32,
        off_flags=U16,
        window=U16,
        checksum=U16,
        urgent=U16,
    )
    reg.struct(
        "udp_header",
        src_port=U16,
        dst_port=U16,
        length=U16,
        checksum=U16,
    )
    reg.struct("icmp_header", type=U8, code=U8, checksum=U16, rest=U32)
    reg.register(
        "l4_header",
        TaggedUnion(
            "l4_header", ((6, "tcp_header"), (17, "udp_header"), (1, "icmp_header"))
        ),
    )
    reg.struct(
        "flow_state",
        packets_toserver=U64,
        packets_toclient=U64,
        bytes_toserver=U64,
        bytes_toclient=U64,
        state=U8,
        alerted=BOOL,
        app_proto=U16,
        last_seen=F64,
    )
    reg.struct(
        "detect_alert",
        sid=U32,
        action=U8,
        msg=CString(256),
    )
    reg.struct(
        "suricata_packet",
        ts=F64,
        pcap_cnt=U64,
        eth=Pointer("eth_header"),
        ip=Pointer("ip_header"),
        l4=Pointer("l4_header"),
        payload=SizedBuffer(1 << 16),
        flow=Pointer("flow_state"),
        alerts=Array(Pointer("detect_alert"), 15),
        alert_count=U8,
        flags=U32,
        vlan_id=Array(U16, 2),
        livedev=CString(64),
        next=Pointer("suricata_packet"),  # capture-queue chain, depth-capped
    )
    return "suricata_packet"
