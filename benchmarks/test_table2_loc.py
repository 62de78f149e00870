"""Table 2: effort (LoC) needed to support software extensions.

Paper's numbers (C prototype):

    Feature        DSL  Redis(DSL)  Suricata(DSL)  Redis(C)
    Checkpointing   79           7             44       332
    Sharding       105           1             49       314
    Caching        106           6            N/A       306

We regenerate the analogous table from this repository's actual
sources: the DSL text, the per-substrate binding code, and the direct
(non-DSL) control implementations including their hand-rolled
messaging layer.  The *shape* to reproduce: DSL-side effort is a small
fraction of direct re-architecting, and the DSL text is reused across
Redis and Suricata.
"""

from conftest import print_table, run_once

from benchmarks.control.loc import serde_generated_loc, table2, table2_shared, uncounted_bases


def test_table2(benchmark):
    rows = run_once(benchmark, table2)
    print_table(
        "Table 2 — LoC to support software extensions (this repo)",
        ["Feature", "DSL", "Redis binding", "Suricata binding", "Direct (control)"],
        [
            [r.feature, r.dsl_loc, r.redis_binding_loc,
             r.suricata_binding_loc if r.suricata_binding_loc is not None else "N/A",
             r.direct_loc]
            for r in rows
        ],
    )
    # the counting rule: a binding column is the substrate-specific
    # class; what those classes inherit is counted once, here, as the
    # paper reports its 195-line management layer beside its table
    shared = table2_shared()
    print_table(
        "Shared binding layer — counted once, in no column",
        ["Part", "LoC"],
        [[getattr(part, "__qualname__", part.__name__), n] for part, n in shared.items()]
        + [["total", sum(shared.values())]],
    )
    assert uncounted_bases() == []
    gen = serde_generated_loc()
    print_table(
        "Serialization benefit — generated serializer LoC "
        "(paper: Redis KV 182, Suricata packet 2380)",
        ["Schema", "Generated LoC"],
        [["redis_kv", gen["redis_kv"]], ["suricata_packet", gen["suricata_packet"]]],
    )

    by_feature = {r.feature: r for r in rows}
    # Shape 1: the DSL (plus binding) is far cheaper than direct
    for r in rows:
        assert r.dsl_loc + r.redis_binding_loc < r.direct_loc, r
    # Shape 2: sharding & checkpointing DSL reused verbatim for Suricata
    assert by_feature["Sharding"].suricata_binding_loc is not None
    assert by_feature["Checkpointing"].suricata_binding_loc is not None
    # Shape 3: generated serializers — packet schema much larger than KV
    assert gen["suricata_packet"] > 3 * gen["redis_kv"]
