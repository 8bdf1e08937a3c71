"""Persistent result storage: one SQLite database per cache directory.

:class:`ResultStore` keeps content-addressed grading reports,
cluster-bucket records, repair-corpus records and campaign journals for
one assignment under one KB version.  A million-entry cache is one file
and one file descriptor, not a million inodes: a single WAL-mode
database (``<root>/store.sqlite``, or ``root`` itself when it names a
``*.sqlite`` / ``*.db`` file) shared by every assignment, scope and
process pointed at the same root.

* **Content-addressed.**  Keys are :func:`repro.core.pipeline.source_key`
  hashes (SHA-256 of normalized source).
* **KB-versioned.**  Records are scoped by :func:`kb_fingerprint`; a KB
  edit changes the fingerprint and atomically orphans every stale
  record.  The full fingerprint is stored inside each envelope and
  verified on read.
* **WAL mode.**  Readers never block the writer and the writer never
  blocks readers, so a grading service and a campaign runner can share
  one database without a coordinator.  ``synchronous=NORMAL`` keeps
  durability at the WAL-checkpoint level, which is the right trade for
  a cache that can always be regraded.
* **Batched transactional writes.**  :meth:`ResultStore.batch` wraps a
  block's writes in one ``BEGIN IMMEDIATE … COMMIT``.  The batch
  pipeline commits one transaction per batch (so the campaign runner
  commits one per shard) instead of one per report.  A crash
  mid-transaction rolls back to misses.
* **Connection-per-process/thread.**  SQLite connections cannot cross
  ``fork`` or threads; the store lazily opens one connection per
  ``(pid, thread)`` and discards inherited ones, so the batch
  pipeline's process workers and the service workers each get their own.
* **Corruption-tolerant.**  A truncated, unreadable, or
  schema-mismatched record is a cache miss, never an error — and never
  a wrong report.  This holds for torn rows, corrupted database images,
  and corrupted ``-wal`` sidecars alike; every failed write returns
  ``False``.

Layout: one ``records`` table keyed ``(assignment, kb, kind, key)``
where ``kind`` is ``entry`` / ``cluster`` / ``repair`` / ``campaign``
and the value is the record's JSON envelope.
"""

from __future__ import annotations

import hashlib
import json
import os
import sqlite3
import threading
import time
from contextlib import contextmanager
from pathlib import Path

from repro.analysis.checks import analysis_fingerprint
from repro.core.assignment import Assignment
from repro.core.report import GradingReport

#: Entry format version.  Bump when the on-disk layout or the meaning of a
#: stored report changes; old entries then read as misses.  Version 2:
#: the template boundary guards treat non-ASCII characters as identifier
#: characters, which :func:`kb_fingerprint` cannot see.
SCHEMA_VERSION = 2

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

#: Characters allowed verbatim in an assignment's scope name.
_SAFE_CHARS = frozenset(
    "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789-_."
)


def _safe_component(name: str) -> str:
    """Make a name safe to use as a scope or campaign-id component."""
    cleaned = "".join(ch if ch in _SAFE_CHARS else "_" for ch in name)
    return cleaned or "_"


def kb_fingerprint(assignment: Assignment) -> str:
    """Hex digest of the assignment configuration grading depends on.

    Covers the expected methods (patterns, their occurrence counts,
    constraints, feedback texts — everything in their dataclass reprs),
    the matching flags, and the active static-analysis check set
    (:func:`repro.analysis.checks.analysis_fingerprint`) — stored reports
    carry diagnostics, so a report graded under a different check set
    must read as a miss.  Reference solutions, functional tests, and the
    synthesis space are deliberately excluded: they do not influence
    :meth:`FeedbackEngine.grade` output, so editing them must not
    invalidate cached reports.
    """
    canonical = repr(
        (
            SCHEMA_VERSION,
            assignment.name,
            assignment.enforce_headers,
            assignment.synthesize_else_conditions,
            assignment.expected_methods,
            analysis_fingerprint(),
        )
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def database_path(root: Path) -> Path:
    """The database file for a store root (file path or directory)."""
    root = Path(root)
    if root.suffix in (".sqlite", ".db"):
        return root
    return root / SQLITE_FILENAME


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


def _report(entry: dict) -> GradingReport:
    return GradingReport.from_dict(entry["report"])


def _record(entry: dict) -> dict | None:
    record = entry.get("record")
    return record if isinstance(record, dict) else None


class ResultStore:
    """On-disk grading cache for one assignment under one KB version.

    Rows are filtered by ``(assignment, fingerprint)``, so many scopes
    share the database file safely.  All methods are safe to call
    concurrently from multiple threads and multiple processes.  Reads
    return ``None`` for anything they cannot fully read and validate;
    writes return ``False`` instead of raising when the record cannot be
    written.
    """

    def __init__(
        self,
        root: str | os.PathLike[str],
        assignment: Assignment,
        repair: bool = False,
        perf: bool = False,
    ):
        self.assignment = assignment
        self.kb = kb_fingerprint(assignment)
        # With an opt-in channel on, everything in this store — reports
        # carrying suggestions or perf findings — lives under a derived
        # fingerprint (see :meth:`repro.core.profile.GradingProfile.scope`),
        # so plain consumers of the same directory keep reading exactly
        # what they always did.  (Imported here: the profile module
        # imports this one.)
        from repro.core.profile import GradingProfile

        self.fingerprint = GradingProfile(repair=repair, perf=perf).scope(
            assignment
        )
        self.root = Path(root)
        self.db_path = database_path(self.root)
        self._scope = (_safe_component(assignment.name), self.fingerprint)
        self._local = threading.local()

    # ------------------------------------------------------------------
    # read side

    def get(self, key: str) -> GradingReport | None:
        """Return the stored report for ``key``, or ``None`` on any miss.

        Missing entry, partial write, corrupt bytes, wrong schema, wrong
        fingerprint, or undecodable report all count as misses.  Entry
        keys other than the envelope's own (such as the ``cluster`` key
        older clustered runs wrote) are ignored.
        """
        return self._read("entry", key, _report)

    def get_cluster(self, fingerprint: str) -> dict | None:
        """Return the cluster record for a bucket fingerprint, or ``None``.

        Like :meth:`get`, anything unreadable or mismatched is a miss.
        The record's internal layout is owned by
        :mod:`repro.cluster.specialize`; the store only validates its own
        envelope.
        """
        return self._read("cluster", fingerprint, _record)

    def get_repair(self, key: str) -> dict | None:
        """Return a repair-corpus record, or ``None`` on any miss.

        Corpus records (verified correct solutions and their index) share
        the entry envelope, so a KB edit invalidates the corpus together
        with the reports graded against it, and corruption degrades to
        "no suggestion" — never to a wrong suggestion.  Record layout is
        owned by :mod:`repro.repair.corpus`.
        """
        return self._read("repair", key, _record)

    def get_campaign(self, key: str) -> dict | None:
        """Return a campaign-journal record, or ``None`` on any miss.

        The journal shares the entry envelope (and therefore the KB
        fingerprint scope): editing the knowledge base invalidates the
        journal together with the reports it checkpoints, so a resumed
        campaign re-grades under the new KB instead of trusting stale
        shard records.  Record layout is owned by
        :mod:`repro.core.campaign`.
        """
        return self._read("campaign", key, _record)

    # ------------------------------------------------------------------
    # write side

    def put(self, key: str, report: GradingReport) -> bool:
        """Persist ``report`` under ``key``; returns ``False`` on failure."""
        return self._write("entry", key, "report", report.to_dict())

    def put_cluster(self, fingerprint: str, record: dict) -> bool:
        """Persist a cluster record under its bucket fingerprint."""
        return self._write("cluster", fingerprint, "record", record)

    def put_repair(self, key: str, record: dict) -> bool:
        """Persist a repair-corpus record under its key."""
        return self._write("repair", key, "record", record)

    def put_campaign(self, key: str, record: dict) -> bool:
        """Persist a campaign-journal record under its key."""
        return self._write("campaign", key, "record", record)

    @contextmanager
    def batch(self):
        """Group this thread's writes into one transaction.

        The block runs inside a single ``BEGIN IMMEDIATE … COMMIT``,
        which is what makes high-volume campaign shards cheap — one
        commit per shard instead of one per report.  It holds the
        database's write lock, so keep grading out of it: another
        process writing meanwhile waits for the lock.  Exceptions inside
        the block roll the whole transaction back, and a commit that
        fails is swallowed like any other write failure: the batch
        degrades to unpersisted work, never to torn entries.
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
    # maintenance helpers

    def entry_count(self) -> int:
        """Number of readable-looking entries for this assignment+KB."""
        return self._count("entry")

    def repair_count(self) -> int:
        """Number of readable-looking repair-corpus records in scope."""
        return self._count("repair")

    # ------------------------------------------------------------------
    # the database

    def _read(self, kind: str, key: str, decode):
        """``decode(envelope)`` for ``(kind, key)``, or ``None`` on any miss.

        The envelope must carry this store's schema, fingerprint and
        ``key``; anything else — no row, torn JSON, an unreadable
        database, a payload ``decode`` rejects — is a miss.
        """
        try:
            row = self._connection().execute(
                "SELECT entry FROM records"
                " WHERE assignment = ? AND kb = ? AND kind = ? AND key = ?",
                (*self._scope, kind, key),
            ).fetchone()
            if row is None:
                return None
            entry = json.loads(row[0])
            if (
                not isinstance(entry, dict)
                or entry.get("schema") != SCHEMA_VERSION
                or entry.get("kb") != self.fingerprint
                or entry.get("key") != key
            ):
                return None
            return decode(entry)
        except Exception:  # noqa: BLE001 - a bad entry is a miss, never an error
            self._discard_connection()
            return None

    def _write(self, kind: str, key: str, field: str, payload) -> bool:
        """Upsert one envelope; its own transaction unless inside ``batch``."""
        entry = {
            "schema": SCHEMA_VERSION,
            "kb": self.fingerprint,
            "key": key,
            field: payload,
        }
        try:
            conn = self._connection()
            conn.execute(
                "INSERT OR REPLACE INTO records"
                " (assignment, kb, kind, key, entry) VALUES (?, ?, ?, ?, ?)",
                (*self._scope, kind, key,
                 json.dumps(entry, separators=(",", ":"))),
            )
            if not getattr(self._local, "in_batch", False):
                conn.commit()
            return True
        except Exception:  # noqa: BLE001 - callers treat a failed write as best-effort
            self._discard_connection()
            return False

    def _count(self, kind: str) -> int:
        """Number of records of ``kind`` in this scope (0 when unreadable)."""
        try:
            row = self._connection().execute(
                "SELECT COUNT(*) FROM records"
                " WHERE assignment = ? AND kb = ? AND kind = ?",
                (*self._scope, kind),
            ).fetchone()
            return int(row[0])
        except Exception:  # noqa: BLE001 - unreadable database counts as empty
            self._discard_connection()
            return 0

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


__all__ = [
    "BUSY_TIMEOUT_MS",
    "ResultStore",
    "SCHEMA_VERSION",
    "database_path",
    "kb_fingerprint",
]
