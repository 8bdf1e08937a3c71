"""The cluster grader: one full grade per bucket, specialization for the rest.

:class:`ClusterGrader` wraps a :class:`~repro.core.engine.FeedbackEngine`
and is a drop-in for it wherever only ``grade`` and ``assignment`` are
used (the batch pipeline's workers, the serve pool).  Per submission:

1. fingerprint the token stream (:mod:`repro.cluster.fingerprint`);
2. on a bucket hit — in memory, or fingerprint-keyed in the result
   store — specialize the bucket's canonical report to this member;
3. otherwise grade through the full path and, when the result is
   representable, register the bucket.

Everything the safety gates cannot prove equivalent falls back to the
engine's ordinary ``grade``: assignments whose knowledge base fails the
audit, sources that do not lex, records that fail to build or to
specialize.  Fallbacks cost one counter, never correctness.

The in-memory bucket registry keeps at most :data:`MAX_BUCKETS`
records and drops the oldest beyond that; a dropped bucket reloads
from the store, or its next member is graded in full, so reports never
change.

Counters (flowing into ``PipelineStats`` via the ambient phase
collector):

* ``cluster.submissions`` — grades routed through the cluster grader;
* ``cluster.representatives`` — full grades that registered a bucket;
* ``cluster.specialized`` — member grades served by specialization;
* ``cluster.store_hits`` — buckets revived from the result store;
* ``cluster.fallbacks`` — full grades forced by a safety gate;
* ``cluster.unsafe_kb`` — grades skipped because the audit failed;
* ``cluster.repair_fallbacks`` / ``cluster.perf_fallbacks`` — full
  grades forced because the wrapped engine carries a feedback channel
  (counted under its first channel): channel output is member-specific,
  so representative replay is unsound.
"""

from __future__ import annotations

import threading

from repro.cluster.audit import audit_assignment
from repro.cluster.fingerprint import fingerprint_source
from repro.cluster.specialize import (
    SpecializeError,
    build_cluster_record,
    specialize,
)
from repro.core.engine import FeedbackEngine
from repro.core.report import GradingReport
from repro.instrumentation import count, phase

#: Bucket records one grader keeps in memory, oldest dropped first — the
#: capacity of the :class:`~repro.core.pipeline.ResultCache` in front.
MAX_BUCKETS = 8192


class ClusterGrader:
    """Grade submissions bucket-wise through one wrapped engine.

    ``store`` is an optional :class:`~repro.core.storage.ResultStore`;
    when given, bucket records persist fingerprint-keyed, so a warm run
    specializes every member of a previously seen bucket without a
    single full grade.  Bucket state is guarded by a lock, so one
    instance can be shared across threads.
    """

    def __init__(
        self, engine: FeedbackEngine, store=None
    ) -> None:
        self.engine = engine
        self.store = store
        self.audit = audit_assignment(engine.assignment)
        self._buckets: dict[str, dict] = {}
        self._lock = threading.Lock()

    @property
    def assignment(self):
        return self.engine.assignment

    def grade(self, source: str) -> GradingReport:
        """Grade one submission, bucket-wise when provably safe."""
        count("cluster.submissions")
        if self.engine.channels:
            # Channel output is member-specific: repair suggestions are
            # phrased in the student's own identifiers, and perf findings
            # come from running the member's own code, whose constants
            # (loop bounds!) the fingerprint normalizes away.  Replaying
            # the representative's would be wrong, so with any channel
            # on every submission takes the full path.
            count(f"cluster.{self.engine.channels[0].name}_fallbacks")
            return self.engine.grade(source)
        if not self.audit.safe:
            count("cluster.unsafe_kb")
            return self.engine.grade(source)
        with phase("cluster_fingerprint"):
            sprint = fingerprint_source(source, self.audit)
        if sprint is None:
            # does not lex; the full path produces the syntax-error report
            return self.engine.grade(source)
        record = self._lookup(sprint.digest)
        if record is not None:
            try:
                with phase("cluster_specialize"):
                    report = specialize(record, sprint)
            except SpecializeError:
                count("cluster.fallbacks")
                return self.engine.grade(source)
            count("cluster.specialized")
            return report
        return self._grade_representative(source, sprint)

    def _lookup(self, digest: str) -> dict | None:
        with self._lock:
            record = self._buckets.get(digest)
        if record is not None:
            return record
        if self.store is None:
            return None
        record = self.store.get_cluster(digest)
        if record is not None:
            count("cluster.store_hits")
            self._register(digest, record)
        return record

    def _register(self, digest: str, record: dict) -> bool:
        """Remember a bucket record; ``False`` if the bucket was known."""
        with self._lock:
            buckets = self._buckets
            if digest in buckets:
                return False
            if len(buckets) >= MAX_BUCKETS:
                buckets.pop(next(iter(buckets)))
            buckets[digest] = record
            return True

    def _grade_representative(self, source: str, sprint) -> GradingReport:
        """Full-path grade that tries to become the bucket representative."""
        report = self.engine.grade(source)
        if not report.ok:
            # rejected-by-matching still buckets; parse errors and
            # engine failures never do
            return report
        record = build_cluster_record(self.assignment, sprint, report)
        if record is None:
            count("cluster.fallbacks")
            return report
        added = self._register(sprint.digest, record)
        count("cluster.representatives")
        if self.store is not None and added:
            self.store.put_cluster(sprint.digest, record)
        return report
