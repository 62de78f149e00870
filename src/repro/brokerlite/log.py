"""The partitioned append-only log.

A :class:`PartitionLog` is one partition: a list of immutable
:class:`Record` objects addressed by a dense offset sequence starting
at 0.  Appends are totally ordered within a partition; reads are
offset-addressed ranges.  Keys map to partitions by djb2 hash
(:func:`partition_for`) — the same hash the sharding architectures use
for key routing, so "which instance owns this key" and "which
partition holds this key" agree by construction.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..redislite.workload import djb2


def partition_for(key: str, n_partitions: int) -> int:
    """The partition a key's records land in (djb2 mod N)."""
    if n_partitions <= 0:
        raise ValueError(f"n_partitions must be positive, got {n_partitions}")
    return djb2(key) % n_partitions


@dataclass(frozen=True)
class Record:
    """One log entry.  ``offset`` is dense per partition."""

    offset: int
    key: str
    value: bytes
    ts: float = 0.0

    def as_list(self) -> list:
        """Wire form: a plain list so serde framing round-trips it
        unchanged across the TCP and cluster transports."""
        return [self.offset, self.key, self.value, self.ts]

    @classmethod
    def from_list(cls, rec: list) -> "Record":
        return cls(offset=rec[0], key=rec[1], value=rec[2], ts=rec[3])


class PartitionLog:
    """A single append-only partition."""

    def __init__(self, partition: int):
        self.partition = partition
        self.records: list[Record] = []

    @property
    def next_offset(self) -> int:
        return len(self.records)

    def append(self, key: str, value: bytes, ts: float = 0.0) -> int:
        """Append a record; returns its offset."""
        rec = Record(offset=self.next_offset, key=key, value=value, ts=ts)
        self.records.append(rec)
        return rec.offset

    def read(self, offset: int, max_records: int = 64) -> list[Record]:
        """Records from ``offset`` (inclusive), at most ``max_records``."""
        if offset < 0:
            raise ValueError(f"negative offset {offset}")
        if max_records <= 0:
            return []
        return self.records[offset:offset + max_records]

    def size(self) -> int:
        return len(self.records)

    def snapshot(self) -> list[list]:
        return [r.as_list() for r in self.records]

    def restore(self, snap: list[list]) -> None:
        self.records = [Record.from_list(rec) for rec in snap]
