"""Packets and 5-tuples.

A packet carries the classic 5-tuple (source/destination IP and port,
protocol) the paper uses for flow-level sharding ("the 5-tuple of each
packet ... is hashed to determine which of four back-end Suricata
instances should process it", sec. 10.1).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..redislite.workload import djb2


@dataclass(frozen=True)
class FiveTuple:
    src_ip: str
    dst_ip: str
    src_port: int
    dst_port: int
    proto: str  # 'tcp' | 'udp' | 'icmp'

    def hash(self) -> int:
        """Deterministic hash used for packet steering (djb2 over the
        canonical textual form, mirroring the key-based sharding)."""
        return djb2(f"{self.src_ip}:{self.src_port}>{self.dst_ip}:{self.dst_port}/{self.proto}")

    def __str__(self) -> str:
        return f"{self.src_ip}:{self.src_port}->{self.dst_ip}:{self.dst_port}/{self.proto}"


@dataclass(frozen=True)
class Packet:
    ts: float
    flow: FiveTuple
    size: int
    payload: bytes = b""
    app: str = "unknown"  # generator annotation (http/dns/... )

    def to_record(self) -> dict:
        """The serde-safe dict a packet travels as inside a request
        (its timestamp stays behind: the receiver stamps arrival)."""
        f = self.flow
        return {
            "flow": (f.src_ip, f.dst_ip, f.src_port, f.dst_port, f.proto),
            "size": self.size,
            "payload": self.payload,
            "app": self.app,
        }

    @classmethod
    def from_record(cls, record: dict, ts: float) -> "Packet":
        f = record["flow"]
        return cls(
            ts=ts,
            flow=FiveTuple(f[0], f[1], int(f[2]), int(f[3]), f[4]),
            size=record["size"],
            payload=record.get("payload", b""),
            app=record.get("app", "unknown"),
        )
