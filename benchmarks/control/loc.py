"""Lines-of-code accounting for the Table 2 effort study.

The paper compares, per feature (Checkpointing / Sharding / Caching):

* **DSL in C** — generated host-language code realizing the DSL
  expression.  Our analogue is the DSL source itself plus the compiled
  junction templates; we count the ``.csaw`` source LoC (the artifact a
  programmer writes and maintains).
* **Redis(DSL)** / **Suricata(DSL)** — lines edited in the application
  to define junctions and package parameters.  Our analogue is the
  per-substrate binding code in the ``repro.arch`` integration modules:
  the source of the *substrate-specific class* (:func:`table2_bindings`).
  What those classes inherit — the ``arch/ports.py`` request/reply
  assembly and sharding's substrate-independent roles class — is
  :func:`table2_shared`, reported once beside the table as the paper
  reports its management layer, so a column cannot shrink by moving
  lines somewhere uncounted (:func:`uncounted_bases` is empty).
* **Redis(C)** — re-architecting directly in the host language, with
  its own messaging/synchronization layer.  Our analogue is
  :mod:`benchmarks.control` (written against the substrate API without the
  DSL; its shared messaging layer is counted into each feature, as the
  paper adds its 195-line management system to each).

Counting rule: non-blank, non-comment lines (:func:`repro.arch.loc.count_loc_text`,
which ``repro loc`` prints).
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass

from repro.arch.loader import load_source
from repro.arch.loc import count_loc_text
from repro.serde import TypeRegistry, generate_module

from .schemas import redis_entry_schema, suricata_packet_schema


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


def table2_bindings() -> dict[str, tuple[object, object | None]]:
    """Per feature, the substrate-specific object the Redis and the
    Suricata binding column count."""
    from repro.arch import caching, checkpointing, sharding

    checkpointed = checkpointing.CheckpointedService.__init__  # one binding, both
    return {
        "Checkpointing": (checkpointed, checkpointed),
        "Sharding": (sharding.ShardedRedis, sharding.ShardedSuricata),
        "Caching": (caching.CachedRedis, None),
    }


def table2_shared() -> dict[object, int]:
    """The layer the bindings are written against, each part's LoC."""
    from repro.arch import ports, sharding

    return {obj: count_loc_object(obj) for obj in (ports, sharding._ShardedService)}


def uncounted_bases() -> list[type]:
    """``repro.arch`` classes a binding inherits that neither a column
    nor :func:`table2_shared` counts — the counting rule says none."""
    shared = table2_shared()
    out = []
    for obj in {b for pair in table2_bindings().values() for b in pair if b}:
        owner = vars(inspect.getmodule(obj))[obj.__qualname__.split(".")[0]]
        out += [
            base for base in owner.__mro__[1:]
            if base.__module__.startswith("repro.arch")
            and base not in shared and inspect.getmodule(base) not in shared
        ]
    return out


def table2() -> list[Table2Row]:
    """Compute the Table 2 analogue from the actual sources."""
    from . import caching, checkpointing, messaging, sharding

    # a feature's DSL file and its direct module carry its name
    direct = {"checkpointing": checkpointing, "sharding": sharding, "caching": caching}
    msg_loc = count_loc_object(messaging)
    return [
        Table2Row(
            feature=feature,
            dsl_loc=dsl_loc(feature.lower()),
            redis_binding_loc=count_loc_object(redis),
            suricata_binding_loc=count_loc_object(suricata) if suricata else None,
            direct_loc=count_loc_object(direct[feature.lower()]) + msg_loc,
        )
        for feature, (redis, suricata) in table2_bindings().items()
    ]


def serde_generated_loc() -> dict[str, int]:
    """LoC of generated serializers for the substrate schemas (the
    paper reports 182 LoC for Redis's key/value and 2380 for Suricata's
    packet structure)."""
    out = {}
    reg1 = TypeRegistry()
    redis_entry_schema(reg1)
    out["redis_kv"] = count_loc_text(generate_module(reg1, "redis_entry"), ('"',))
    reg2 = TypeRegistry()
    suricata_packet_schema(reg2)
    out["suricata_packet"] = count_loc_text(generate_module(reg2, "suricata_packet"), ('"',))
    return out
