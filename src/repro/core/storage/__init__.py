"""Persistent result storage: one SQLite database per cache directory.

:class:`ResultStore` keeps content-addressed grading reports,
cluster-bucket records, repair-corpus records and campaign journals for
one assignment under one KB version.  The bytes live in
:mod:`repro.core.storage.sqlite_backend`: a single WAL-mode database
(``<root>/store.sqlite``, or ``root`` itself when it names a ``*.sqlite``
/ ``*.db`` file) shared by every assignment, scope and process pointed
at the same root.  Writes can be grouped into one transaction
(:meth:`ResultStore.batch`), which is what makes campaign shards cheap.

The envelope rules are owned here, not by the database layer:

* **Content-addressed.**  Keys are :func:`repro.core.pipeline.source_key`
  hashes (SHA-256 of normalized source).
* **KB-versioned.**  Entries are scoped by :func:`kb_fingerprint`; a KB
  edit changes the fingerprint and atomically orphans every stale entry.
  The full fingerprint is stored inside each entry and verified on read.
* **Corruption-tolerant.**  A truncated, unreadable, or
  schema-mismatched entry is a cache miss, never an error — and never a
  wrong report.  This holds for torn rows, corrupted database images,
  and corrupted ``-wal`` sidecars alike.
"""

from __future__ import annotations

import hashlib
import os
from pathlib import Path

from repro.analysis.checks import analysis_fingerprint
from repro.core.assignment import Assignment
from repro.core.report import GradingReport
from repro.core.storage.sqlite_backend import SqliteBackend

#: Entry format version.  Bump when the on-disk layout or the meaning of a
#: stored report changes; old entries then read as misses.  Version 2:
#: the template boundary guards treat non-ASCII characters as identifier
#: characters, which :func:`kb_fingerprint` cannot see.
SCHEMA_VERSION = 2

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


class ResultStore:
    """On-disk grading cache for one assignment under one KB version.

    All methods are safe to call concurrently from multiple threads and
    multiple processes.  ``get`` returns ``None`` for anything it cannot
    fully read and validate; ``put`` returns ``False`` instead of raising
    when the entry cannot be written.
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
        self.backend = SqliteBackend(
            self.root, (_safe_component(assignment.name), self.fingerprint)
        )

    # ------------------------------------------------------------------
    # read side

    def get(self, key: str) -> GradingReport | None:
        """Return the stored report for ``key``, or ``None`` on any miss.

        Missing entry, partial write, corrupt bytes, wrong schema, wrong
        fingerprint, or undecodable report all count as misses.
        """
        try:
            entry = self.backend.read("entry", key)
            if entry is None:
                return None
            if entry.get("schema") != SCHEMA_VERSION:
                return None
            if entry.get("kb") != self.fingerprint:
                return None
            if entry.get("key") != key:
                return None
            return GradingReport.from_dict(entry["report"])
        except Exception:  # noqa: BLE001 - a bad entry is a miss, never an error
            return None

    def cluster_key(self, key: str) -> str | None:
        """The bucket fingerprint recorded on entry ``key``, if any.

        Forward-compat by defaulting, exactly like the report decoder's
        handling of pre-diagnostics payloads: entries written before
        clustering existed simply lack the ``cluster`` key and read as
        ``None`` — they stay valid reports and never invalidate on
        upgrade.
        """
        try:
            entry = self.backend.read("entry", key)
            if entry is None:
                return None
            if entry.get("schema") != SCHEMA_VERSION:
                return None
            if entry.get("kb") != self.fingerprint:
                return None
            value = entry.get("cluster")
            return value if isinstance(value, str) else None
        except Exception:  # noqa: BLE001 - a bad entry is a miss, never an error
            return None

    def get_cluster(self, fingerprint: str) -> dict | None:
        """Return the cluster record for a bucket fingerprint, or ``None``.

        Like :meth:`get`, anything unreadable or mismatched is a miss.
        The record's internal layout is owned by
        :mod:`repro.cluster.specialize`; the store only validates its own
        envelope.
        """
        return self._get_record("cluster", fingerprint)

    def get_repair(self, key: str) -> dict | None:
        """Return a repair-corpus record, or ``None`` on any miss.

        Corpus records (verified correct solutions and their index) share
        the entry envelope, so a KB edit invalidates the corpus together
        with the reports graded against it, and corruption degrades to
        "no suggestion" — never to a wrong suggestion.  Record layout is
        owned by :mod:`repro.repair.corpus`.
        """
        return self._get_record("repair", key)

    def get_campaign(self, key: str) -> dict | None:
        """Return a campaign-journal record, or ``None`` on any miss.

        The journal shares the entry envelope (and therefore the KB
        fingerprint scope): editing the knowledge base invalidates the
        journal together with the reports it checkpoints, so a resumed
        campaign re-grades under the new KB instead of trusting stale
        shard records.  Record layout is owned by
        :mod:`repro.core.campaign`.
        """
        return self._get_record("campaign", key)

    def _get_record(self, kind: str, key: str) -> dict | None:
        try:
            entry = self.backend.read(kind, key)
            if entry is None:
                return None
            if entry.get("schema") != SCHEMA_VERSION:
                return None
            if entry.get("kb") != self.fingerprint:
                return None
            if entry.get("key") != key:
                return None
            record = entry.get("record")
            return record if isinstance(record, dict) else None
        except Exception:  # noqa: BLE001 - a bad entry is a miss, never an error
            return None

    # ------------------------------------------------------------------
    # write side

    def put(
        self, key: str, report: GradingReport, cluster: str | None = None
    ) -> bool:
        """Persist ``report`` under ``key``; returns ``False`` on failure.

        ``cluster`` optionally records the submission's bucket
        fingerprint alongside the report (see :meth:`cluster_key`).
        """
        entry = {
            "schema": SCHEMA_VERSION,
            "kb": self.fingerprint,
            "key": key,
            "report": report.to_dict(),
        }
        if cluster is not None:
            entry["cluster"] = cluster
        return self._write("entry", key, entry)

    def put_cluster(self, fingerprint: str, record: dict) -> bool:
        """Persist a cluster record under its bucket fingerprint."""
        return self._put_record("cluster", fingerprint, record)

    def put_repair(self, key: str, record: dict) -> bool:
        """Persist a repair-corpus record under its key."""
        return self._put_record("repair", key, record)

    def put_campaign(self, key: str, record: dict) -> bool:
        """Persist a campaign-journal record under its key."""
        return self._put_record("campaign", key, record)

    def _put_record(self, kind: str, key: str, record: dict) -> bool:
        entry = {
            "schema": SCHEMA_VERSION,
            "kb": self.fingerprint,
            "key": key,
            "record": record,
        }
        return self._write(kind, key, entry)

    def _write(self, kind: str, key: str, entry: dict) -> bool:
        try:
            return self.backend.write(kind, key, entry)
        except Exception:  # noqa: BLE001 - callers treat a failed write as best-effort
            return False

    def batch(self):
        """Context manager grouping writes into one transaction.

        The block runs inside a single ``BEGIN IMMEDIATE … COMMIT``,
        which is what makes high-volume campaign shards cheap — one
        commit per shard instead of one per report.  It holds the
        database's write lock, so keep grading out of it: another
        process writing meanwhile waits for the lock.  A transaction
        that never commits rolls back to misses, never to torn entries.
        """
        return self.backend.batch()

    # ------------------------------------------------------------------
    # maintenance helpers

    def entry_count(self) -> int:
        """Number of readable-looking entries for this assignment+KB."""
        return self.backend.count("entry")

    def repair_count(self) -> int:
        """Number of readable-looking repair-corpus records in scope."""
        return self.backend.count("repair")


__all__ = [
    "ResultStore",
    "SCHEMA_VERSION",
    "SqliteBackend",
    "kb_fingerprint",
]
