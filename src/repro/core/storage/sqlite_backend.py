"""The store's database: one WAL-mode SQLite file for the whole cache.

A million-entry cache is one file and one file descriptor, not a
million inodes.  :class:`SqliteBackend` holds the bytes behind
:class:`~repro.core.storage.ResultStore` — envelopes keyed by scope,
kind and key, with corruption read as a miss — on a single database
shared by every assignment and KB version pointed at the same root:

* **WAL mode** — readers never block the writer and the writer never
  blocks readers, so a grading service and a campaign runner can share
  one database without a coordinator.  ``synchronous=NORMAL`` keeps
  durability at the WAL-checkpoint level, which is the right trade for
  a cache that can always be regraded.
* **Batched transactional writes** — ``batch()`` wraps a block's writes
  in one ``BEGIN IMMEDIATE … COMMIT``.  The batch pipeline commits one
  transaction per batch (so the campaign runner commits one per shard)
  instead of one per report.  A crash mid-transaction rolls back to
  misses.
* **Connection-per-process/thread** — SQLite connections cannot cross
  ``fork`` or threads; the backend lazily opens one connection per
  ``(pid, thread)`` and discards inherited ones, so the batch
  pipeline's process workers and the service workers each get their own.
* **Corruption degrades to misses** — a corrupted database image or
  ``-wal`` sidecar makes reads raise inside SQLite; every exception is
  swallowed into a miss (and every failed write into ``False``), never
  a wrong report.

Layout: one ``records`` table keyed ``(assignment, kb, kind, key)``
where ``kind`` is ``entry`` / ``cluster`` / ``repair`` / ``campaign``
and the value is the record's JSON envelope.
"""

from __future__ import annotations

import json
import os
import sqlite3
import threading
import time
from contextlib import contextmanager
from pathlib import Path

#: Database filename used when the store root is a directory.
SQLITE_FILENAME = "store.sqlite"

#: Milliseconds a writer waits on a locked database before giving up
#: (reads under WAL never need it; write contention between processes
#: does).
BUSY_TIMEOUT_MS = 5000

_CREATE = """
CREATE TABLE IF NOT EXISTS records (
    assignment TEXT NOT NULL,
    kb TEXT NOT NULL,
    kind TEXT NOT NULL,
    key TEXT NOT NULL,
    entry TEXT NOT NULL,
    PRIMARY KEY (assignment, kb, kind, key)
) WITHOUT ROWID
"""


def _initialize(conn: sqlite3.Connection) -> None:
    """Put the database in WAL mode and create the records table.

    Switching a fresh database to WAL needs an exclusive lock, and when
    several connections race to do it SQLite answers "database is
    locked" at once instead of waiting out the busy timeout (16 threads
    writing to a fresh store lost a write in about 1 trial in 20); so
    retry until the busy timeout has passed.
    """
    deadline = time.monotonic() + BUSY_TIMEOUT_MS / 1000.0
    while True:
        try:
            conn.execute("PRAGMA journal_mode=WAL")
            conn.execute(_CREATE)
            conn.commit()
            return
        except sqlite3.OperationalError:
            if time.monotonic() >= deadline:
                raise
            time.sleep(0.005)


def database_path(root: Path) -> Path:
    """The database file for a store root (file path or directory)."""
    root = Path(root)
    if root.suffix in (".sqlite", ".db"):
        return root
    return root / SQLITE_FILENAME


class SqliteBackend:
    """Single-database representation of one store scope.

    ``scope`` is ``(assignment_component, kb_fingerprint)``; rows are
    filtered by both, so many scopes share the database file safely and
    a KB edit orphans the stale rows.
    """

    def __init__(self, root: Path, scope: tuple[str, str]):
        self.root = Path(root)
        self.db_path = database_path(self.root)
        self._assignment, self._kb = scope
        self._local = threading.local()

    # ------------------------------------------------------------------
    # connections

    def _connection(self) -> sqlite3.Connection:
        """One connection per (process, thread), created on demand.

        A connection inherited across ``fork`` is unusable (SQLite
        documents this as undefined behavior), so the owning pid is
        checked and stale connections are abandoned to the OS — closing
        them could corrupt the parent's view.
        """
        conn = getattr(self._local, "conn", None)
        if conn is not None and getattr(self._local, "pid", None) == os.getpid():
            return conn
        self.db_path.parent.mkdir(parents=True, exist_ok=True)
        conn = sqlite3.connect(
            self.db_path, timeout=BUSY_TIMEOUT_MS / 1000.0
        )
        conn.execute("PRAGMA synchronous=NORMAL")
        conn.execute(f"PRAGMA busy_timeout={BUSY_TIMEOUT_MS}")
        _initialize(conn)
        self._local.conn = conn
        self._local.pid = os.getpid()
        return conn

    # ------------------------------------------------------------------
    # backend contract

    def read(self, kind: str, key: str) -> dict | None:
        """Raw envelope for ``(kind, key)``, or ``None`` when unreadable."""
        try:
            row = self._connection().execute(
                "SELECT entry FROM records"
                " WHERE assignment = ? AND kb = ? AND kind = ? AND key = ?",
                (self._assignment, self._kb, kind, key),
            ).fetchone()
            if row is None:
                return None
            entry = json.loads(row[0])
            return entry if isinstance(entry, dict) else None
        except Exception:  # noqa: BLE001 - a bad entry is a miss, never an error
            self._discard_connection()
            return None

    def write(self, kind: str, key: str, entry: dict) -> bool:
        """Upsert one envelope; its own transaction unless inside ``batch``."""
        try:
            conn = self._connection()
            conn.execute(
                "INSERT OR REPLACE INTO records"
                " (assignment, kb, kind, key, entry) VALUES (?, ?, ?, ?, ?)",
                (
                    self._assignment,
                    self._kb,
                    kind,
                    key,
                    json.dumps(entry, separators=(",", ":")),
                ),
            )
            if not getattr(self._local, "in_batch", False):
                conn.commit()
            return True
        except Exception:  # noqa: BLE001 - callers treat a failed write as best-effort
            self._discard_connection()
            return False

    def count(self, kind: str) -> int:
        """Number of records of ``kind`` in this scope (0 when unreadable)."""
        try:
            row = self._connection().execute(
                "SELECT COUNT(*) FROM records"
                " WHERE assignment = ? AND kb = ? AND kind = ?",
                (self._assignment, self._kb, kind),
            ).fetchone()
            return int(row[0])
        except Exception:  # noqa: BLE001 - unreadable database counts as empty
            self._discard_connection()
            return 0

    @contextmanager
    def batch(self):
        """Group this thread's writes into one transaction.

        Exceptions inside the block roll the whole transaction back —
        either every write in the batch lands or none does, which is
        exactly the checkpoint semantics the campaign journal needs.
        Commit failures are swallowed like any other write failure (the
        batch degrades to unpersisted work, never to a torn store).
        """
        try:
            conn = self._connection()
            conn.execute("BEGIN IMMEDIATE")
        except Exception:  # noqa: BLE001 - degraded store: run the block unbatched
            self._discard_connection()
            yield
            return
        self._local.in_batch = True
        try:
            yield
        except BaseException:
            self._local.in_batch = False
            try:
                conn.rollback()
            except Exception:  # noqa: BLE001
                self._discard_connection()
            raise
        else:
            self._local.in_batch = False
            try:
                conn.commit()
            except Exception:  # noqa: BLE001 - failed batch = nothing persisted
                self._discard_connection()

    # ------------------------------------------------------------------
    # internals

    def _discard_connection(self) -> None:
        """Drop this thread's connection after an error.

        The next operation reopens from scratch, which is what recovers
        from transient lock storms — and keeps failing soft (as misses)
        on a genuinely corrupt database.
        """
        conn = getattr(self._local, "conn", None)
        self._local.conn = None
        self._local.in_batch = False
        if conn is not None and getattr(self._local, "pid", None) == os.getpid():
            try:
                conn.close()
            except Exception:  # noqa: BLE001
                pass
