"""Batch grading pipeline: workers + content-keyed caching + metrics.

A MOOC assignment receives its submissions as a *stream* with heavy
duplication — students resubmit unchanged files, and cohorts converge
on identical solutions.  :class:`BatchGrader` exploits that: it grades
an iterable of submissions against one assignment using

* a **content-keyed result cache** (:class:`ResultCache`) so identical
  or resubmitted sources skip parse + EPDG build + matching entirely —
  duplicates inside one batch are graded exactly once, and the cache
  persists across batches of the same grader;
* a configurable **worker pool** (``mode="serial" | "process"``) —
  serial is fully deterministic and dependency-free, processes sidestep
  the GIL for CPU-bound cohorts on multicore hosts;
* an **instrumentation layer** (:mod:`repro.core.metrics`) recording
  per-phase wall time, cache hit rate, error counts, and throughput as
  a structured :class:`~repro.core.metrics.PipelineStats`.

Results are **order-stable and mode-independent**: the reports come
back in input order and are identical whichever mode produced them
(grading is deterministic, and duplicates share the representative's
report).  A submission that fails to parse — or whose grading raises —
is isolated into a ``parse-error`` / ``error`` report instead of
aborting the batch.

Usage:

>>> from repro import get_assignment
>>> from repro.core.pipeline import BatchGrader
>>> assignment = get_assignment("assignment1")
>>> good = assignment.reference_solutions[0]
>>> grader = BatchGrader(assignment)  # mode="serial", cache on
>>> result = grader.grade_batch(
...     [("alice", good), ("bob", good), ("carol", "int x = ;")]
... )
>>> [item.report.status for item in result.items]
['ok', 'ok', 'parse-error']
>>> [item.from_cache for item in result.items]  # bob reuses alice's work
[False, True, False]
>>> (result.stats.submissions, result.stats.graded, result.stats.cache_hits)
(3, 2, 1)
>>> again = grader.grade_batch([good])  # cross-batch cache hit
>>> (again.stats.cache_hits, again.stats.graded)
(1, 0)
"""

from __future__ import annotations

import hashlib
import os
import time
from collections import OrderedDict
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from repro.core.assignment import Assignment
from repro.core.metrics import PipelineStats
from repro.core.report import GradingReport
from repro.core.profile import GradingProfile, build_grader
from repro.core.storage import ResultStore
from repro.instrumentation import (
    DeadlineExceeded,
    PhaseCollector,
    collecting,
    deadline,
)

#: Supported worker models.
MODES = ("serial", "process")

#: Report statuses that are deterministic functions of the source text
#: and therefore safe to cache.  Internal ``error`` reports may be
#: transient (e.g. a worker dying) and ``timeout`` reports depend on
#: host load and the configured budget, so neither is ever cached —
#: neither in memory here nor on disk (:class:`TieredCache` checks this
#: set before persisting to a :class:`~repro.core.storage.ResultStore`).
CACHEABLE_STATUSES = frozenset({"ok", "rejected", "parse-error"})


def source_key(source: str) -> str:
    """Content key for a submission: SHA-256 of its normalized text.

    Normalization is deliberately conservative — it must never change
    what the parser sees.  Line endings are canonicalized, trailing
    whitespace is stripped per line, and leading/trailing blank lines
    are dropped; so a resubmission that only differs in CRLFs or a
    stray trailing newline still hits the cache.  Lone surrogates (an
    escaped ``"\\ud800"`` in a JSON body) are encoded with
    ``surrogatepass``: valid text encodes exactly as UTF-8, and no valid
    text shares the bytes of one that holds a surrogate.
    """
    lines = source.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    normalized = "\n".join(line.rstrip() for line in lines).strip("\n")
    return hashlib.sha256(
        normalized.encode("utf-8", "surrogatepass")
    ).hexdigest()


class ResultCache:
    """Bounded LRU cache of :class:`GradingReport` keyed by content.

    Grading is deterministic and the engine stateless, so a report can
    be replayed verbatim for any submission with the same key.  Eviction
    is least-recently-used; invalidation is by construction — the key
    is the content, so a changed submission is a different key, and a
    changed *assignment* requires a new cache (one cache belongs to one
    :class:`BatchGrader`, which is bound to one assignment).
    """

    def __init__(self, maxsize: int = 8192):
        if maxsize <= 0:
            raise ValueError("maxsize must be positive")
        self.maxsize = maxsize
        self._entries: OrderedDict[str, GradingReport] = OrderedDict()
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: str) -> bool:
        return key in self._entries

    def get(self, key: str) -> GradingReport | None:
        report = self._entries.get(key)
        if report is None:
            self.misses += 1
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        return report

    def put(self, key: str, report: GradingReport) -> None:
        if report.status not in CACHEABLE_STATUSES:
            return
        self._entries[key] = report
        self._entries.move_to_end(key)
        while len(self._entries) > self.maxsize:
            self._entries.popitem(last=False)

    def clear(self) -> None:
        self._entries.clear()


class TieredCache:
    """A :class:`ResultCache` in front of an optional persistent store.

    Reads try memory, then the store; a store hit is promoted to memory
    so the next lookup skips the disk.  Writes go to memory and, for
    cacheable statuses, through to the store.  Store traffic is counted
    on the caller's :class:`PipelineStats` as ``cache.store_hits`` /
    ``cache.store_misses`` / ``cache.store_writes`` /
    ``cache.store_errors``.  The batch pipeline and the grading service
    both answer repeats through one of these.
    """

    def __init__(
        self, memory: ResultCache, store: ResultStore | None = None
    ):
        self.memory = memory
        self.store = store

    def get(self, key: str, stats: PipelineStats) -> GradingReport | None:
        report = self.memory.get(key)
        if report is not None or self.store is None:
            return report
        report = self.store.get(key)
        if report is None:
            stats.record_counter("cache.store_misses")
            return None
        stats.record_counter("cache.store_hits")
        self.memory.put(key, report)
        return report

    def put(
        self, key: str, report: GradingReport, stats: PipelineStats
    ) -> None:
        self.memory.put(key, report)
        if self.store is None or report.status not in CACHEABLE_STATUSES:
            return
        if self.store.put(key, report):
            stats.record_counter("cache.store_writes")
        else:
            stats.record_counter("cache.store_errors")


@dataclass(frozen=True)
class GradedSubmission:
    """One batch item: its label, content key, and report."""

    label: str
    key: str
    report: GradingReport
    #: True when the report was replayed (cross-batch cache hit or
    #: duplicate of an earlier submission in the same batch) rather
    #: than graded fresh for this item.
    from_cache: bool


@dataclass
class BatchResult:
    """Everything one :meth:`BatchGrader.grade_batch` call produced."""

    assignment_name: str
    items: list[GradedSubmission] = field(default_factory=list)
    stats: PipelineStats = field(default_factory=PipelineStats)

    @property
    def reports(self) -> list[GradingReport]:
        return [item.report for item in self.items]

    def status_counts(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for item in self.items:
            status = item.report.status
            counts[status] = counts.get(status, 0) + 1
        return counts

    def rendered(self) -> list[str]:
        """Per-submission feedback texts, in input order."""
        return [item.report.render() for item in self.items]


# -- process-pool plumbing (must be module-level for pickling) -----------

_WORKER_ENGINE = None
_WORKER_MAX_SECONDS: float | None = None


def _init_process_worker(
    assignment: Assignment,
    profile: GradingProfile,
    max_seconds: float | None = None,
    store_root: str | None = None,
) -> None:
    """Build one grader per worker process (assignment pickled once).

    Cluster bucket registries are per-process (workers cannot share
    memory), but with a ``store_root`` every worker reads and writes
    the same fingerprint-keyed records and the same repair corpus.
    """
    global _WORKER_ENGINE, _WORKER_MAX_SECONDS
    store = (
        profile.open_store(store_root, assignment)
        if store_root is not None
        else None
    )
    _WORKER_ENGINE = build_grader(assignment, profile, store)
    _WORKER_MAX_SECONDS = max_seconds


def _process_grade(job: tuple[str, str]):
    key, source = job
    assert _WORKER_ENGINE is not None
    return (key, *_grade_one(_WORKER_ENGINE, source, _WORKER_MAX_SECONDS))


def _grade_one(
    engine, source: str, max_seconds: float | None = None
) -> tuple[GradingReport, PhaseCollector, float]:
    """Grade one source with per-phase timing and error isolation.

    ``engine`` is anything exposing ``grade``/``assignment`` — a
    :class:`FeedbackEngine` or a cluster grader wrapping one.

    ``max_seconds`` installs a cooperative wall-clock deadline around
    the grade: the pipeline phases and the matcher's search loop check
    it, so a pathological parse/match is abandoned (``timeout`` report)
    instead of hanging its worker.  Phases completed before the
    deadline fired are still in the returned collector — partial work
    is accounted for, not dropped.
    """
    collector = PhaseCollector()
    started = time.perf_counter()
    try:
        with collecting(collector), deadline(max_seconds):
            report = engine.grade(source)
    except DeadlineExceeded:
        report = GradingReport(
            assignment_name=engine.assignment.name,
            timeout=(
                f"grading exceeded the {max_seconds:g}s wall-clock limit"
                if max_seconds is not None
                else "grading exceeded its wall-clock limit"
            ),
        )
    except Exception as exc:  # noqa: BLE001 - isolate, don't abort the batch
        report = GradingReport(
            assignment_name=engine.assignment.name,
            error=f"{type(exc).__name__}: {exc}",
        )
    return report, collector, time.perf_counter() - started


class BatchGrader:
    """Grades many submissions against one assignment.

    Parameters
    ----------
    assignment:
        The assignment to grade against.
    mode:
        ``"serial"`` (deterministic in-process loop, the default) or
        ``"process"`` (one engine per worker process; requires the
        assignment to be picklable, which every registry assignment is).
    workers:
        Pool size for process mode; defaults to the host's CPU count.
        Ignored in serial mode.
    cache:
        ``True`` (default) for a private :class:`ResultCache` that
        replays repeats across this grader's batches, ``False`` to
        disable caching.
    max_seconds:
        Optional per-submission wall-clock budget.  A submission whose
        parse/match exceeds it is abandoned cooperatively (the matcher
        checks the ambient deadline in its search loop) and reported
        with ``status == "timeout"`` instead of hanging its worker.
        Timeout reports are never cached — they depend on host load,
        not just the source text.
    store:
        Optional persistent cross-process cache: a
        :class:`~repro.core.storage.ResultStore`, or a directory path from
        which one is built for this assignment.  Consulted after the
        in-memory cache misses and written through after fresh grades,
        so a later batch run — or a concurrent one in another process —
        replays reports instead of re-grading.  Requires ``cache`` to be
        enabled (with ``cache=False`` the grader is a deliberate
        no-reuse baseline and the store is ignored).  Store traffic is
        reported in ``stats.counters`` as ``cache.store_hits`` /
        ``cache.store_misses`` / ``cache.store_writes`` /
        ``cache.store_errors``.
    cluster:
        Opt into submission clustering (:mod:`repro.cluster`): bucket
        submissions by canonical fingerprint, grade one representative
        per bucket through the full path, and specialize its report to
        the other members.  Strictly output-preserving — specialized
        reports are byte-identical to full grades — and effective
        exactly when the content cache is not: structural duplicates
        under different variable names, constants, and spacing.
        Cluster traffic shows up in ``stats.counters`` under
        ``cluster.*``.  With a ``store``, bucket records persist
        fingerprint-keyed, so warm runs specialize whole buckets
        without a single full grade.
    store_backend:
        Must be ``"sqlite"``, the only store; any other value raises
        ``ValueError``.
    repair:
        Opt into the repair channel (:mod:`repro.repair`): rejected
        submissions additionally get corpus-backed, functionally
        verified minimal-fix suggestions on their reports.  Off by
        default, and strictly additive when off — disabled runs produce
        byte-identical output to a build without the channel, enforced
        by scoping repair-enabled store entries under a derived
        fingerprint (see :meth:`~repro.core.profile.GradingProfile.scope`).
        Repair traffic shows up in ``stats.counters`` under
        ``repair.*``.
    perf:
        Opt into performance diagnostics (:mod:`repro.analysis.perf`):
        every graded submission additionally runs the static loop
        anti-pattern detectors and — for assignments declaring a
        :class:`~repro.analysis.perf.model.PerfSpec` — the dynamic
        cost-shape fitter over the functional-test input ladder.
        Off by default and strictly additive when off (byte-identical
        output, enforced by the derived store fingerprint).  Perf
        traffic shows up in ``stats.counters`` under ``perf.*``.

    ``cluster``, ``repair`` and ``perf`` form the grader's
    :class:`~repro.core.profile.GradingProfile`; a ``store`` passed in
    must be scoped to it.
    """

    def __init__(
        self,
        assignment: Assignment,
        mode: str = "serial",
        workers: int | None = None,
        cache: bool = True,
        max_seconds: float | None = None,
        store: ResultStore | str | os.PathLike | None = None,
        cluster: bool = False,
        # removed with perfbench/batch_child.py's use of it (ROADMAP item 5)
        store_backend: str = "sqlite",
        repair: bool = False,
        perf: bool = False,
    ):
        if store_backend != "sqlite":
            raise ValueError(
                f"unknown store backend {store_backend!r}; the store is "
                "always 'sqlite'"
            )
        if mode not in MODES:
            raise ValueError(
                f"unknown mode {mode!r}; expected one of {MODES}"
            )
        if max_seconds is not None and max_seconds <= 0:
            raise ValueError("max_seconds must be positive")
        self.max_seconds = max_seconds
        self.assignment = assignment
        self.mode = mode
        self.workers = (
            1 if mode == "serial"
            else max(1, workers if workers is not None
                     else (os.cpu_count() or 1))
        )
        self.cache = ResultCache() if cache else None
        self.profile = GradingProfile(
            cluster=cluster, repair=repair, perf=perf
        )
        if store is None or isinstance(store, ResultStore):
            self.store: ResultStore | None = store
        else:
            self.store = self.profile.open_store(store, assignment)
        # serial mode grades with this grader; process mode builds one
        # per worker in _init_process_worker
        self.engine = build_grader(assignment, self.profile, self.store)
        self.tiers = (
            TieredCache(self.cache, self.store)
            if self.cache is not None
            else None
        )

    def grade_batch(
        self, submissions: Iterable[str | tuple[str, str]]
    ) -> BatchResult:
        """Grade a batch; returns reports in input order plus stats.

        ``submissions`` yields source texts or ``(label, source)``
        pairs; bare sources are labelled ``#0``, ``#1``, …
        """
        started = time.perf_counter()
        labelled = self._labelled(submissions)
        keys = [source_key(source) for _, source in labelled]
        # With the cache off, every item is its own job — no within-batch
        # dedupe either, so ``cache=False`` is a true no-reuse baseline.
        reuse = self.cache is not None
        job_keys = keys if reuse else [str(i) for i in range(len(keys))]

        # Resolve cross-batch cache hits — memory first, then the
        # persistent store — then dedupe what remains so each unique
        # uncached source is graded exactly once.
        stats = PipelineStats(mode=self.mode, workers=self.workers)
        tiers = self.tiers
        replayed: dict[str, GradingReport] = {}
        jobs: list[tuple[str, str]] = []
        seen: set[str] = set()
        for (_, source), job_key in zip(labelled, job_keys):
            if job_key in seen or job_key in replayed:
                continue
            cached = tiers.get(job_key, stats) if tiers is not None else None
            if cached is not None:
                replayed[job_key] = cached
            else:
                seen.add(job_key)
                jobs.append((job_key, source))

        fresh = self._run_jobs(jobs, stats)
        if tiers is not None and fresh:
            store = tiers.store
            # One store transaction for the batch's reports, opened only
            # after grading: process workers write bucket and corpus
            # records while they grade, and a write lock held across
            # that would stall each of them for the busy timeout.
            with store.batch() if store is not None else nullcontext():
                for job_key, report in fresh.items():
                    tiers.put(job_key, report, stats)

        # Reassemble in input order; only the first occurrence of a
        # freshly graded key counts as "graded", the rest are hits.
        items: list[GradedSubmission] = []
        first_use: set[str] = set()
        for (label, _), key, job_key in zip(labelled, keys, job_keys):
            if job_key in fresh and job_key not in first_use:
                first_use.add(job_key)
                report, from_cache = fresh[job_key], False
            else:
                report = fresh.get(job_key) or replayed[job_key]
                from_cache = True
                stats.record_submission(cache_hit=True)
            items.append(
                GradedSubmission(
                    label=label, key=key, report=report,
                    from_cache=from_cache,
                )
            )
        stats.wall_seconds = time.perf_counter() - started
        return BatchResult(
            assignment_name=self.assignment.name, items=items, stats=stats
        )

    # -- internals -------------------------------------------------------

    @staticmethod
    def _labelled(
        submissions: Iterable[str | tuple[str, str]]
    ) -> list[tuple[str, str]]:
        labelled = []
        for position, item in enumerate(submissions):
            if isinstance(item, tuple):
                labelled.append(item)
            else:
                labelled.append((f"#{position}", item))
        return labelled

    def _run_jobs(
        self, jobs: Sequence[tuple[str, str]], stats: PipelineStats
    ) -> dict[str, GradingReport]:
        """Grade unique uncached jobs under the configured worker model."""
        results: dict[str, GradingReport] = {}
        if not jobs:
            return results
        if self.mode == "serial":
            outcomes = (
                (key, *_grade_one(self.engine, source, self.max_seconds))
                for key, source in jobs
            )
        else:  # process
            pool = ProcessPoolExecutor(
                max_workers=self.workers,
                initializer=_init_process_worker,
                initargs=(
                    self.assignment,
                    self.profile,
                    self.max_seconds,
                    str(self.store.root) if self.store is not None else None,
                ),
            )
            with pool:
                outcomes = list(pool.map(_process_grade, jobs))
        # Each outcome carries the child's PhaseCollector back to the
        # parent (it crosses the process boundary by pickle), so the
        # batch snapshot aggregates per-phase timings and matcher
        # counters identically in both modes.
        for key, report, collector, seconds in outcomes:
            results[key] = report
            stats.merge_phases(collector)
            stats.record_submission(
                seconds=seconds,
                parse_error=report.status == "parse-error",
                timeout=report.status == "timeout",
                error=report.status == "error",
            )
        return results
