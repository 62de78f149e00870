"""Lines-of-code accounting for the Table 2 effort study.

The paper compares, per feature (Checkpointing / Sharding / Caching):

* **DSL in C** — generated host-language code realizing the DSL
  expression.  Our analogue is the DSL source itself plus the compiled
  junction templates; we count the ``.csaw`` source LoC (the artifact a
  programmer writes and maintains).
* **Redis(DSL)** / **Suricata(DSL)** — lines edited in the application
  to define junctions and package parameters.  Our analogue is the
  per-substrate binding code (host blocks + state providers) in the
  ``repro.arch`` integration modules, measured by source inspection of
  the marked regions.
* **Redis(C)** — re-architecting directly in the host language, with
  its own messaging/synchronization layer.  Our analogue is
  :mod:`repro.direct` (written against the substrate API without the
  DSL; its shared messaging layer is counted into each feature, as the
  paper adds its 195-line management system to each).

Counting rule: non-blank, non-comment lines.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass

from .loader import load_source


def count_loc_text(text: str, comment_prefixes: tuple[str, ...] = ("#",)) -> int:
    """Non-blank, non-comment lines of ``text``."""
    n = 0
    for line in text.splitlines():
        stripped = line.strip()
        if not stripped:
            continue
        if any(stripped.startswith(p) for p in comment_prefixes):
            continue
        n += 1
    return n


def dsl_loc(name: str) -> int:
    """LoC of an architecture's DSL source."""
    return count_loc_text(load_source(name))


def count_loc_object(obj: object) -> int:
    """LoC of a Python class/function/module via source inspection."""
    return count_loc_text(inspect.getsource(obj))


@dataclass
class Table2Row:
    feature: str
    dsl_loc: int
    redis_binding_loc: int
    suricata_binding_loc: int | None
    direct_loc: int


def table2() -> list[Table2Row]:
    """Compute the Table 2 analogue from the actual sources."""
    from .. import direct
    from . import caching as caching_mod
    from . import checkpointing as cp_mod
    from . import sharding as sh_mod
    from ..direct import messaging as direct_msg
    from ..direct import checkpointing as direct_cp
    from ..direct import sharding as direct_sh
    from ..direct import caching as direct_ca

    msg_loc = count_loc_object(direct_msg)

    rows = [
        Table2Row(
            feature="Checkpointing",
            dsl_loc=dsl_loc("checkpointing"),
            redis_binding_loc=count_loc_object(cp_mod.CheckpointedService.__init__),
            suricata_binding_loc=count_loc_object(cp_mod.CheckpointedService.__init__),
            direct_loc=count_loc_object(direct_cp) + msg_loc,
        ),
        Table2Row(
            feature="Sharding",
            dsl_loc=dsl_loc("sharding"),
            redis_binding_loc=count_loc_object(sh_mod.ShardedRedis),
            suricata_binding_loc=count_loc_object(sh_mod.ShardedSuricata),
            direct_loc=count_loc_object(direct_sh) + msg_loc,
        ),
        Table2Row(
            feature="Caching",
            dsl_loc=dsl_loc("caching"),
            redis_binding_loc=count_loc_object(caching_mod.CachedRedis),
            suricata_binding_loc=None,
            direct_loc=count_loc_object(direct_ca) + msg_loc,
        ),
    ]
    return rows


def serde_generated_loc() -> dict[str, int]:
    """LoC of generated serializers for the substrate schemas (the
    paper reports 182 LoC for Redis's key/value and 2380 for Suricata's
    packet structure)."""
    from ..serde import TypeRegistry, generate_module
    from ..direct.schemas import redis_entry_schema, suricata_packet_schema

    out = {}
    reg1 = TypeRegistry()
    redis_entry_schema(reg1)
    out["redis_kv"] = count_loc_text(generate_module(reg1, "redis_entry"), ('"',))
    reg2 = TypeRegistry()
    suricata_packet_schema(reg2)
    out["suricata_packet"] = count_loc_text(generate_module(reg2, "suricata_packet"), ('"',))
    return out
