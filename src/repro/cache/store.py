"""The persistent result store: stdlib ``sqlite3``, WAL mode, never fatal.

One database file holds one ``results`` table mapping group keys
(semantic config digest + target + payload fingerprint, built by
:class:`repro.cache.group.GroupCache`) to JSON payloads.  Design rules:

- **schema-versioned**: a ``meta`` table records ``schema_version``; a
  mismatching or unreadable version disables the store for the run (warn
  once on stderr) instead of guessing at a migration or clobbering data.
- **atomic upsert**: ``INSERT OR REPLACE`` in autocommit mode -- sqlite
  serializes writers, and WAL journaling keeps concurrent readers (other
  synthesis runs warming from the same file) unblocked.
- **durable commits**: ``PRAGMA synchronous=FULL`` syncs the WAL on every
  commit, so a stored group survives a crash or power loss -- the store
  is what an interrupted run resumes from.
- **corruption degrades, never crashes**: any ``sqlite3.Error`` -- a
  truncated file, garbage bytes, a locked database -- turns into cache
  misses with a single stderr warning.  A cache must never make a run
  fail that would have succeeded without it.
- **transient errors heal**: a store disabled by a runtime
  ``sqlite3.Error`` (a brief lock, a hiccup on networked storage)
  retries the connection on the next use, up to :data:`REOPEN_LIMIT`
  times with a :data:`REOPEN_INTERVAL` cooldown -- essential for a
  long-lived ``repro serve`` process, where "disabled forever" would
  silently lose the cache for every future request.  Schema mismatches
  and explicit :meth:`ResultStore.close` are permanent.

The parent process owns the single writer connection (worker processes
return results to the parent; see ``docs/CACHING.md``), and
:func:`open_store` memoizes stores per absolute path so a batch of
engines shares one connection.  Store operations take an internal lock
(and the connection is opened with ``check_same_thread=False``) so
server runner threads can share the memoized store;
:meth:`ResultStore.close` evicts the memo entry so the next
:func:`open_store` gets a fresh handle.
"""

from __future__ import annotations

import json
import os
import sqlite3
import sys
import threading
import time

#: Version stamped into (and required from) the database's ``meta`` table.
SCHEMA_VERSION = 1

#: How many reopen-on-next-use attempts a transiently-disabled store gets.
REOPEN_LIMIT = 3

#: Minimum seconds between reopen attempts (monotonic cooldown).
REOPEN_INTERVAL = 1.0

_SCHEMA = """
CREATE TABLE IF NOT EXISTS meta (
    key   TEXT PRIMARY KEY,
    value TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS results (
    key     TEXT PRIMARY KEY,
    payload TEXT NOT NULL,
    created REAL NOT NULL
);
"""


class ResultStore:
    """One sqlite-backed key -> JSON-payload store.

    All methods are total: errors disable the store (``self.disabled``)
    with one stderr warning and make every subsequent ``get`` a miss and
    every ``put`` a no-op.  A store disabled by a *runtime* error retries
    the connection on the next use (bounded; see the module docstring);
    schema mismatches and :meth:`close` disable it permanently.  Methods
    are thread-safe (one internal lock serializes connection use).
    """

    def __init__(self, path: str) -> None:
        """Open (creating if needed) the database at ``path``."""
        self.path = path
        self.disabled = False
        self._conn: sqlite3.Connection | None = None
        self._closed = False
        self._retriable = True
        self._warned = False
        self._reopens_left = REOPEN_LIMIT
        self._next_reopen = 0.0
        self._lock = threading.RLock()
        with self._lock:
            self._open()

    def _open(self) -> None:
        """(Re)connect and validate the schema; disables itself on error."""
        try:
            # check_same_thread=False: server runner threads share the
            # memoized store; the RLock serializes every operation.
            self._conn = sqlite3.connect(
                self.path, timeout=5.0, check_same_thread=False
            )
            self._conn.isolation_level = None  # autocommit: atomic upserts
            self._conn.execute("PRAGMA journal_mode=WAL")
            self._conn.execute("PRAGMA synchronous=FULL")
            self._conn.executescript(_SCHEMA)
            self._check_schema()
            if self._conn is not None:  # _check_schema may have disabled us
                self.disabled = False
        except sqlite3.Error as exc:
            self._disable(f"cannot open cache db: {exc}")

    def _check_schema(self) -> None:
        """Stamp a fresh database; disable on a version mismatch."""
        assert self._conn is not None
        row = self._conn.execute(
            "SELECT value FROM meta WHERE key = 'schema_version'"
        ).fetchone()
        if row is None:
            self._conn.execute(
                "INSERT OR REPLACE INTO meta (key, value) VALUES (?, ?)",
                ("schema_version", str(SCHEMA_VERSION)),
            )
        elif row[0] != str(SCHEMA_VERSION):
            # Not a transient condition: reopening cannot change the file's
            # schema version, so don't burn reopen attempts on it.
            self._disable(
                f"schema version {row[0]!r} != supported {SCHEMA_VERSION}",
                retriable=False,
            )

    def _disable(self, reason: str, retriable: bool = True) -> None:
        """Warn once and turn the store into a pass-through (all misses)."""
        if not self._warned:
            print(
                f"repro: warning: result cache {self.path} disabled: "
                f"{reason} (continuing without cache)",
                file=sys.stderr,
            )
            self._warned = True
        self.disabled = True
        if not retriable:
            self._retriable = False
        self._next_reopen = time.monotonic() + REOPEN_INTERVAL
        if self._conn is not None:
            try:
                self._conn.close()
            except sqlite3.Error:
                pass
            self._conn = None

    def _maybe_reopen(self) -> None:
        """Retry a transiently-disabled store (bounded, cooled down).

        No-op unless the store was disabled by a retriable runtime error,
        has reopen budget left, and the cooldown has elapsed.  Closed
        stores never reopen.
        """
        if (
            not self.disabled
            or self._closed
            or not self._retriable
            or self._reopens_left <= 0
            or time.monotonic() < self._next_reopen
        ):
            return
        self._reopens_left -= 1
        self._open()

    def get(self, key: str) -> dict | None:
        """The JSON payload stored under ``key``, or None (a miss).

        Undecodable payloads and database errors are misses.
        """
        with self._lock:
            self._maybe_reopen()
            if self.disabled or self._conn is None:
                return None
            try:
                row = self._conn.execute(
                    "SELECT payload FROM results WHERE key = ?", (key,)
                ).fetchone()
            except sqlite3.Error as exc:
                self._disable(f"read failed: {exc}")
                return None
        if row is None:
            return None
        try:
            payload = json.loads(row[0])
        except (TypeError, ValueError):
            return None
        return payload if isinstance(payload, dict) else None

    def put(self, key: str, payload: dict) -> bool:
        """Atomically upsert ``payload`` under ``key``; True iff stored."""
        with self._lock:
            self._maybe_reopen()
            if self.disabled or self._conn is None:
                return False
            try:
                self._conn.execute(
                    "INSERT OR REPLACE INTO results (key, payload, created) "
                    "VALUES (?, ?, ?)",
                    (
                        key,
                        json.dumps(payload, separators=(",", ":")),
                        time.time(),
                    ),
                )
            except sqlite3.Error as exc:
                self._disable(f"write failed: {exc}")
                return False
        return True

    def __len__(self) -> int:
        """Number of stored results (0 when disabled)."""
        with self._lock:
            self._maybe_reopen()
            if self.disabled or self._conn is None:
                return 0
            try:
                return self._conn.execute(
                    "SELECT COUNT(*) FROM results"
                ).fetchone()[0]
            except sqlite3.Error as exc:
                self._disable(f"read failed: {exc}")
                return 0

    def close(self) -> None:
        """Close the connection and evict this store's memo entry.

        The store is permanently unusable afterwards (no reopen), but the
        next :func:`open_store` on the same path builds a fresh store --
        the hook the server's drain uses to release the shared database
        cleanly before exit.
        """
        with self._lock:
            self._closed = True
            self.disabled = True
            conn, self._conn = self._conn, None
        if conn is not None:
            try:
                conn.close()
            except sqlite3.Error:
                pass
        key = os.path.abspath(self.path)
        with _STORES_LOCK:
            if _STORES.get(key) is self:
                del _STORES[key]


#: Open stores by absolute path (one writer connection per process).
_STORES: dict[str, ResultStore] = {}

#: Guards the memo table against concurrent server-thread open/close.
_STORES_LOCK = threading.Lock()


def open_store(path: str) -> ResultStore:
    """The process-wide :class:`ResultStore` for ``path`` (memoized).

    Memoizing keeps one writer connection per database file however many
    engines a batch creates, and keeps the "warn once" promise: a store
    disabled by corruption warns once for the whole process instead of
    re-warning per circuit (transient failures still retry quietly; see
    the module docstring).  :meth:`ResultStore.close` evicts the entry,
    so a closed path reopens fresh.  Tests that need a private handle
    construct :class:`ResultStore` directly.
    """
    key = os.path.abspath(path)
    with _STORES_LOCK:
        store = _STORES.get(key)
        if store is None:
            store = ResultStore(path)
            _STORES[key] = store
        return store


def close_store(path: str) -> None:
    """Close and evict the memoized store for ``path``, if one is open.

    Safe to call when no store is open for the path.  Used by the server
    drain (release the shared ``--cache-db`` before exit) and by tests.
    """
    key = os.path.abspath(path)
    with _STORES_LOCK:
        store = _STORES.get(key)
    if store is not None:
        store.close()
