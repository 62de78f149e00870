"""KV-table semantics: pending queues, local priority, windows, keep."""

import pytest

from repro.runtime.kvtable import KVTable, UNDEF, Update


def table():
    t = KVTable("test::j")
    t.declare("Work", False)
    t.declare("Done", False)
    t.declare("n", UNDEF)
    return t


def up(key, value, src="peer::j"):
    return Update(key=key, value=value, src=src)


class TestBasics:
    def test_declare_and_get(self):
        t = table()
        assert t.get("Work") is False
        assert t.get("n") is UNDEF

    def test_get_missing_raises(self):
        with pytest.raises(KeyError):
            table().get("zzz")

    def test_get_prop_type_checked(self):
        t = table()
        with pytest.raises(TypeError):
            t.get_prop("n")

    def test_set_local_unknown_key_raises(self):
        with pytest.raises(KeyError):
            table().set_local("zzz", 1)

    def test_snapshot_is_copy(self):
        t = table()
        snap = t.snapshot()
        t.set_local("Work", True)
        assert snap["Work"] is False


class TestPendingQueue:
    def test_idle_update_queued_not_applied(self):
        t = table()
        t.receive(up("Work", True))
        assert t.get("Work") is False
        assert len(t.pending) == 1

    def test_apply_pending_in_arrival_order(self):
        t = table()
        t.receive(up("Work", True))
        t.receive(up("Work", False))
        t.receive(up("Done", True))
        n = t.apply_pending()
        assert n == 3
        assert t.get("Work") is False  # last write wins
        assert t.get("Done") is True
        assert t.pending == ()

    def test_effective_overlays_pending(self):
        t = table()
        t.receive(up("Work", True))
        assert t.effective("Work") is True
        assert t.get("Work") is False

    def test_on_idle_update_hook(self):
        t = table()
        poked = []
        t.on_idle_update = lambda: poked.append(1)
        t.receive(up("Work", True))
        assert poked == [1]

    def test_no_idle_hook_while_executing(self):
        t = table()
        poked = []
        t.on_idle_update = lambda: poked.append(1)
        t.executing = True
        t.receive(up("Work", True))
        assert poked == []


class TestLocalPriority:
    def test_local_write_discards_pending_same_key(self):
        t = table()
        t.executing = True
        t.receive(up("Work", True))
        t.set_local("Work", False)
        assert t.pending == ()
        t.apply_pending()
        assert t.get("Work") is False

    def test_local_write_keeps_other_pending(self):
        t = table()
        t.executing = True
        t.receive(up("Done", True))
        t.set_local("Work", True)
        assert len(t.pending) == 1

    def test_update_after_local_write_survives(self):
        t = table()
        t.executing = True
        t.set_local("Work", True)
        t.receive(up("Work", False))
        assert len(t.pending) == 1

    def test_local_write_hook(self):
        t = table()
        seen = []
        t.on_local_write = lambda k, old: seen.append((k, old))
        t.set_local("Work", True)
        assert seen == [("Work", False)]


class TestWindows:
    def test_admitted_update_applied_immediately(self):
        t = table()
        t.executing = True
        hits = []
        t.open_window(frozenset({"Work"}), hits.append)
        t.receive(up("Work", True))
        assert t.get("Work") is True
        assert hits == ["Work"]
        assert t.pending == ()

    def test_unadmitted_update_queued(self):
        t = table()
        t.executing = True
        t.open_window(frozenset({"Work"}), lambda k: None)
        t.receive(up("Done", True))
        assert t.get("Done") is False
        assert len(t.pending) == 1

    def test_closed_window_stops_admitting(self):
        t = table()
        t.executing = True
        w = t.open_window(frozenset({"Work"}), lambda k: None)
        t.close_window(w)
        t.receive(up("Work", True))
        assert t.get("Work") is False

    def test_multiple_windows(self):
        t = table()
        t.executing = True
        hits = []
        t.open_window(frozenset({"Work"}), lambda k: hits.append(("w1", k)))
        t.open_window(frozenset({"Work", "Done"}), lambda k: hits.append(("w2", k)))
        t.receive(up("Work", True))
        assert ("w1", "Work") in hits and ("w2", "Work") in hits

    def test_data_key_window(self):
        t = table()
        t.executing = True
        t.open_window(frozenset({"n"}), lambda k: None)
        t.receive(up("n", b"payload"))
        assert t.get("n") == b"payload"


class TestApplyPendingFor:
    def test_applies_only_listed_keys(self):
        t = table()
        t.receive(up("Work", True))
        t.receive(up("Done", True))
        n = t.apply_pending_for({"Work"})
        assert n == 1
        assert t.get("Work") is True
        assert t.get("Done") is False
        assert [u.key for u in t.pending] == ["Done"]

    def test_arrival_order_preserved(self):
        t = table()
        t.receive(up("Work", True))
        t.receive(up("Work", False))
        t.apply_pending_for({"Work"})
        assert t.get("Work") is False

    def test_noop_on_empty(self):
        t = table()
        assert t.apply_pending_for({"Work"}) == 0


class TestKeep:
    def test_keep_discards_pending(self):
        t = table()
        t.receive(up("Work", True))
        t.receive(up("Done", True))
        t.keep(["Work"])
        assert [u.key for u in t.pending] == ["Done"]

    def test_keep_idempotent(self):
        t = table()
        t.receive(up("Work", True))
        t.keep(["Work"])
        t.keep(["Work"])
        assert t.pending == ()


class TestTransactions:
    def test_rollback_restores(self):
        t = table()
        t.tx_begin()
        t.set_local("Work", True)
        t.tx_rollback()
        assert t.get("Work") is False

    def test_commit_keeps(self):
        t = table()
        t.tx_begin()
        t.set_local("Work", True)
        t.tx_commit()
        assert t.get("Work") is True

    def test_nested(self):
        t = table()
        t.tx_begin()
        t.set_local("Work", True)
        t.tx_begin()
        t.set_local("Done", True)
        t.tx_rollback()
        assert t.get("Done") is False
        assert t.get("Work") is True
        t.tx_commit()
        assert t.get("Work") is True

    def test_in_transaction_flag(self):
        t = table()
        assert not t.in_transaction
        t.tx_begin()
        assert t.in_transaction
        t.tx_commit()
        assert not t.in_transaction


class TestPendingGauge:
    """The ``kv_pending_updates`` gauge must track every path that
    changes the backlog — including ``keep``, which used to drop
    buckets without re-syncing it (regression test)."""

    def instrumented(self):
        from repro.telemetry.facade import Telemetry

        class _Clock:
            now = 0.0

        tel = Telemetry(_Clock())
        t = table()
        t.attach_telemetry(tel)
        return t, tel.gauge("kv_pending_updates", node=t.owner)

    def test_keep_resyncs_gauge(self):
        t, gauge = self.instrumented()
        t.receive(up("Work", True))
        t.receive(up("Work", False))
        t.receive(up("Done", True))
        assert gauge.value == 3
        t.keep(["Work"])
        assert gauge.value == 1
        t.keep(["Work", "Done"])  # idempotent on Work, drops Done
        assert gauge.value == 0
        assert t.pending_count == 0

    def test_gauge_follows_enqueue_apply_and_discard(self):
        t, gauge = self.instrumented()
        t.receive(up("Work", True))
        t.receive(up("Done", True))
        assert gauge.value == 2
        t.apply_pending()
        assert gauge.value == 0
        t.executing = True
        t.receive(up("Work", True))
        assert gauge.value == 1
        t.set_local("Work", False)  # local priority discards the bucket
        assert gauge.value == 0


class TestRollbackStorageIdentity:
    """Rollback restores *values in place*: the flat slot list and the
    dict-like view keep their identity, so compiled bodies that closed
    over ``table.slots`` stay valid across an aborted transaction."""

    def test_storage_identity_survives_rollback(self):
        t = table()
        slots = t.slots
        values = t.values
        keys = t.keys
        t.tx_begin()
        t.set_local("Work", True)
        t.values["n"] = 7  # a by-name store inside the frame
        assert t.get("n") == 7
        t.tx_rollback()
        assert t.slots is slots
        assert t.values is values
        assert t.keys is keys
        assert t.get("Work") is False and t.get("n") is UNDEF
        # the alias still reads live storage after rollback
        t.set_local("Work", True)
        assert slots[t.index["Work"]] is True

    def test_rollback_of_mid_frame_declaration(self):
        """Inside a frame a table stores only declared keys: an
        undeclared by-name store raises and lays nothing out, and the
        frame's declared writes undo in reverse order."""
        t = table()
        t.tx_begin()
        with pytest.raises(KeyError):
            t.values["A9"] = 1
        t.values["n"] = 1
        t.values["n"] = 2
        t.set_local("Work", True)
        t.tx_rollback()
        assert not t.has("A9") and t.get("n") is UNDEF
        assert t.get("Work") is False
        assert len(t.slots) == len(t.keys) == len(t.index) == 3
