"""Table 2 LoC accounting tests."""

from benchmarks.control import loc
from benchmarks.control.loc import (
    count_loc_object,
    dsl_loc,
    serde_generated_loc,
    table2,
    table2_bindings,
    table2_shared,
    uncounted_bases,
)
from repro.arch import ports, sharding
from repro.arch.loader import load_program
from repro.arch.loc import count_loc_text
from repro.core.emit import emit_program


class TestCounting:
    def test_blank_and_comment_lines_skipped(self):
        text = "# comment\n\ncode line\n  # indented comment\nanother\n"
        assert count_loc_text(text) == 2

    def test_dsl_loc_positive(self):
        assert dsl_loc("remote_snapshot") > 10

    def test_sharding_expands_placeholders(self):
        # the count is a family size now, not text: Table 2's DSL column
        # is the same number at every size
        def at(n):
            return count_loc_text(
                emit_program(load_program("sharding", n_backends=n).source)
            )

        assert at(8) >= at(2)


class TestTable2:
    def test_rows_present(self):
        rows = {r.feature: r for r in table2()}
        assert set(rows) == {"Checkpointing", "Sharding", "Caching"}

    def test_dsl_much_smaller_than_direct(self):
        """The paper's headline: DSL effort is a fraction of direct
        re-architecting (Table 2: e.g. 79+7 vs 332 for checkpointing)."""
        for row in table2():
            assert row.dsl_loc < row.direct_loc / 2

    def test_caching_has_no_suricata_arm(self):
        row = next(r for r in table2() if r.feature == "Caching")
        assert row.suricata_binding_loc is None

    def test_reuse_across_substrates(self):
        """The same DSL text serves both Redis and Suricata — the cost
        of the second application is only its binding code."""
        row = next(r for r in table2() if r.feature == "Sharding")
        assert row.suricata_binding_loc is not None
        assert row.dsl_loc < row.direct_loc


class TestCountingRule:
    """A binding column is the substrate-specific class and nothing
    else; what the classes share is counted once, beside the table."""

    def test_a_column_is_its_substrate_specific_object(self):
        rows = {r.feature: r for r in table2()}
        for feature, (redis, suricata) in table2_bindings().items():
            assert rows[feature].redis_binding_loc == count_loc_object(redis)
            if suricata is not None:
                assert rows[feature].suricata_binding_loc == count_loc_object(suricata)

    def test_everything_a_binding_inherits_is_counted(self):
        assert set(table2_shared()) == {ports, sharding._ShardedService}
        assert uncounted_bases() == []

    def test_a_base_left_out_of_the_shared_layer_shows(self, monkeypatch):
        monkeypatch.setattr(loc, "table2_shared", lambda: {ports: 0})
        assert set(uncounted_bases()) == {sharding._ShardedService}


class TestSerdeBenefit:
    def test_generated_loc_reported(self):
        loc = serde_generated_loc()
        assert loc["redis_kv"] > 0
        assert loc["suricata_packet"] > loc["redis_kv"]
