"""The sqlite result store: round-trips, schema gating, corruption semantics."""

import sqlite3
import threading

from repro.cache.store import (
    REOPEN_LIMIT,
    SCHEMA_VERSION,
    ResultStore,
    close_store,
    open_store,
)


class TestRoundTrip:
    def test_put_get_round_trip(self, tmp_path):
        store = ResultStore(str(tmp_path / "c.db"))
        assert store.put("k1", {"n": 2, "nodes": []})
        assert store.get("k1") == {"n": 2, "nodes": []}
        assert store.get("absent") is None
        assert len(store) == 1

    def test_put_is_an_upsert(self, tmp_path):
        store = ResultStore(str(tmp_path / "c.db"))
        store.put("k", {"v": 1})
        store.put("k", {"v": 2})
        assert store.get("k") == {"v": 2}
        assert len(store) == 1

    def test_entries_persist_across_handles(self, tmp_path):
        path = str(tmp_path / "c.db")
        first = ResultStore(path)
        first.put("k", {"v": 1})
        first.close()
        second = ResultStore(path)
        assert second.get("k") == {"v": 1}

    def test_closed_store_is_inert(self, tmp_path):
        store = ResultStore(str(tmp_path / "c.db"))
        store.close()
        assert store.get("k") is None
        assert store.put("k", {}) is False
        assert len(store) == 0


class TestDurability:
    """The store is what an interrupted run resumes from, so every commit
    must survive a crash or power loss: ``synchronous=FULL`` (2) syncs
    the write-ahead log on each commit."""

    @staticmethod
    def synchronous(store: ResultStore) -> int:
        return store._conn.execute("PRAGMA synchronous").fetchone()[0]

    def test_a_fresh_database_syncs_every_commit(self, tmp_path):
        store = ResultStore(str(tmp_path / "c.db"))
        assert self.synchronous(store) == 2

    def test_a_reopened_database_syncs_every_commit(self, tmp_path):
        path = str(tmp_path / "c.db")
        first = ResultStore(path)
        first.put("k", {"v": 1})
        first.close()
        store = ResultStore(path)
        assert self.synchronous(store) == 2
        # A connection rebuilt after a transient error keeps the setting.
        store._disable("transient hiccup (simulated)")
        store._next_reopen = 0.0
        assert store.get("k") == {"v": 1}
        assert self.synchronous(store) == 2


class TestCorruption:
    def test_garbage_file_disables_with_one_warning(self, tmp_path, capsys):
        path = tmp_path / "c.db"
        path.write_bytes(b"\x00this is not a database\xff" * 64)
        store = ResultStore(str(path))
        assert store.disabled
        # Every operation degrades to a miss/no-op without re-warning.
        assert store.get("k") is None
        assert store.put("k", {"v": 1}) is False
        assert len(store) == 0
        err = capsys.readouterr().err
        assert err.count("disabled") == 1
        assert "continuing without cache" in err

    def test_schema_version_mismatch_disables(self, tmp_path, capsys):
        path = str(tmp_path / "c.db")
        ResultStore(path).close()
        conn = sqlite3.connect(path)
        conn.execute(
            "UPDATE meta SET value = '999' WHERE key = 'schema_version'"
        )
        conn.commit()
        conn.close()
        store = ResultStore(path)
        assert store.disabled
        assert "schema version" in capsys.readouterr().err
        assert store.get("k") is None

    def test_fresh_database_is_stamped(self, tmp_path):
        path = str(tmp_path / "c.db")
        ResultStore(path).close()
        conn = sqlite3.connect(path)
        row = conn.execute(
            "SELECT value FROM meta WHERE key = 'schema_version'"
        ).fetchone()
        conn.close()
        assert row == (str(SCHEMA_VERSION),)

    def test_undecodable_payload_is_a_miss_not_a_crash(self, tmp_path):
        path = str(tmp_path / "c.db")
        store = ResultStore(path)
        store.put("good", {"v": 1})
        store._conn.execute(
            "INSERT OR REPLACE INTO results (key, payload, created) "
            "VALUES ('bad', 'not json {', 0)"
        )
        store._conn.execute(
            "INSERT OR REPLACE INTO results (key, payload, created) "
            "VALUES ('list', '[1, 2]', 0)"
        )
        assert store.get("bad") is None
        assert store.get("list") is None  # JSON but not an object
        assert not store.disabled  # bad rows never poison the store
        assert store.get("good") == {"v": 1}


class TestReopen:
    """A transiently-disabled store must heal; see ISSUE 8 satellite 3."""

    def test_transient_disable_recovers_on_next_use(self, tmp_path):
        # Pre-PR: any sqlite error disabled the store for the life of the
        # process -- fatal for a long-lived server.
        store = ResultStore(str(tmp_path / "c.db"))
        store.put("k", {"v": 1})
        store._disable("transient hiccup (simulated)")
        assert store.disabled
        store._next_reopen = 0.0  # cooldown elapsed
        assert store.get("k") == {"v": 1}
        assert not store.disabled
        assert store.put("k2", {"v": 2})

    def test_reopen_waits_for_the_cooldown(self, tmp_path):
        store = ResultStore(str(tmp_path / "c.db"))
        store.put("k", {"v": 1})
        store._disable("transient hiccup (simulated)")
        # _disable stamps a future _next_reopen; until it passes, the
        # store stays a pass-through.
        assert store.get("k") is None
        assert store.disabled

    def test_reopen_budget_is_bounded(self, tmp_path, monkeypatch):
        store = ResultStore(str(tmp_path / "c.db"))
        # Make every reopen fail, with no cooldown in the way.
        monkeypatch.setattr(
            ResultStore, "_open", lambda self: self._disable("still broken")
        )
        store._disable("transient hiccup (simulated)")
        for _ in range(REOPEN_LIMIT + 3):
            store._next_reopen = 0.0
            assert store.get("k") is None
        assert store._reopens_left == 0
        # Budget exhausted: even with the cooldown open, no more retries.
        store._next_reopen = 0.0
        assert store.get("k") is None

    def test_schema_mismatch_never_retries(self, tmp_path, capsys):
        path = str(tmp_path / "c.db")
        ResultStore(path).close()
        conn = sqlite3.connect(path)
        conn.execute(
            "UPDATE meta SET value = '999' WHERE key = 'schema_version'"
        )
        conn.commit()
        conn.close()
        store = ResultStore(path)
        assert store.disabled
        store._next_reopen = 0.0
        assert store.get("k") is None
        assert store.disabled  # reopening cannot change the file's schema
        assert store._reopens_left == REOPEN_LIMIT  # no attempt was burned

    def test_closed_store_never_reopens(self, tmp_path):
        store = ResultStore(str(tmp_path / "c.db"))
        store.put("k", {"v": 1})
        store.close()
        store._next_reopen = 0.0
        assert store.get("k") is None
        assert store.put("k", {}) is False

    def test_recovery_warns_only_once(self, tmp_path, capsys):
        store = ResultStore(str(tmp_path / "c.db"))
        store._disable("transient hiccup (simulated)")
        store._next_reopen = 0.0
        assert not store.get("k")
        store._disable("another hiccup")
        err = capsys.readouterr().err
        assert err.count("disabled") == 1

    def test_operations_are_thread_safe(self, tmp_path):
        store = ResultStore(str(tmp_path / "c.db"))
        errors = []

        def hammer(tid):
            try:
                for i in range(50):
                    store.put(f"{tid}-{i}", {"v": i})
                    assert store.get(f"{tid}-{i}") == {"v": i}
            except Exception as exc:  # noqa: BLE001
                errors.append(exc)

        threads = [
            threading.Thread(target=hammer, args=(t,)) for t in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert not store.disabled
        assert len(store) == 200


class TestOpenStore:
    def test_memoizes_one_store_per_path(self, tmp_path):
        path = str(tmp_path / "c.db")
        a = open_store(path)
        b = open_store(path)
        assert a is b
        assert open_store(str(tmp_path / "other.db")) is not a

    def test_close_evicts_the_memo_entry(self, tmp_path):
        # Pre-PR: the memo kept returning the closed (permanently inert)
        # store forever.
        path = str(tmp_path / "c.db")
        a = open_store(path)
        a.put("k", {"v": 1})
        a.close()
        b = open_store(path)
        assert b is not a
        assert b.get("k") == {"v": 1}
        b.close()

    def test_close_store_helper_is_idempotent(self, tmp_path):
        path = str(tmp_path / "c.db")
        close_store(path)  # nothing open: no-op
        store = open_store(path)
        store.put("k", {"v": 1})
        close_store(path)
        assert store.get("k") is None  # closed
        close_store(path)  # already evicted: still a no-op
        fresh = open_store(path)
        assert fresh is not store
        assert fresh.get("k") == {"v": 1}
        fresh.close()
