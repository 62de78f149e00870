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
