"""Pipeline instrumentation: structured metrics for batch grading.

:class:`PipelineStats` is the structured record a
:class:`~repro.core.pipeline.BatchGrader` run returns alongside the
reports: per-phase wall time (parse / EPDG build / pattern match /
constraint match, see :data:`repro.instrumentation.PIPELINE_PHASES`),
cache hit rate, error counts, and end-to-end throughput.  The CLI's
``grade-batch --stats`` prints :meth:`PipelineStats.summary`;
programmatic consumers use :meth:`PipelineStats.to_dict` (flat,
JSON-friendly).

The numbers come from two sources: the :class:`BatchGrader` itself
(wall time, cache counters, error counts) and the ambient
:mod:`repro.instrumentation` phase timers that the engine and matcher
wrap around their hot sections.

Usage — the fields are plain data, so stats can also be built by hand
(handy for tests and for aggregating across shards):

>>> from repro.core.metrics import PipelineStats
>>> stats = PipelineStats(mode="process", workers=4)
>>> stats.record_submission(cache_hit=False, seconds=0.25)
>>> stats.record_submission(cache_hit=True)
>>> stats.record_phase("parse", 0.05)
>>> stats.record_phase("pattern_match", 0.15)
>>> stats.wall_seconds = 0.5
>>> stats.submissions, stats.graded, stats.cache_hits
(2, 1, 1)
>>> stats.cache_hit_rate
0.5
>>> stats.throughput
4.0
>>> sorted(stats.to_dict())[:4]
['cache_hit_rate', 'cache_hits', 'counters', 'errors']
>>> print(stats.summary())
Pipeline stats (mode=process, workers=4)
  submissions: 2 (1 graded, 1 cache hits, 0 parse errors, 0 timeouts, 0 errors)
  cache hit rate: 50.0%
  throughput: 4.0 submissions/s (wall 0.500 s)
  per-phase wall time:
    parse                50.0ms  (1 calls)
    pattern_match       150.0ms  (1 calls)
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.instrumentation import PIPELINE_PHASES, PhaseCollector


@dataclass
class PipelineStats:
    """Metrics for one batch-grading run.

    Counter semantics:

    ``submissions``
        Every item in the batch, including failures and cache hits.
    ``graded``
        Submissions that went through the full pipeline (cache misses).
    ``cache_hits``
        Submissions answered from the result cache — either a previous
        batch's entry or a duplicate earlier in the same batch.
    ``parse_errors``
        Submissions rejected by the Java frontend (still *answered*:
        they get a ``parse-error`` report).
    ``timeouts``
        Submissions abandoned by the per-submission wall-clock guard
        (``max_seconds``) or a serving-layer deadline; they get a
        ``timeout`` report.
    ``errors``
        Submissions whose grading raised unexpectedly; the pipeline
        isolates these into ``error`` reports instead of aborting.
    """

    mode: str = "serial"
    workers: int = 1
    submissions: int = 0
    graded: int = 0
    cache_hits: int = 0
    parse_errors: int = 0
    timeouts: int = 0
    errors: int = 0
    wall_seconds: float = 0.0
    grading_seconds: float = 0.0
    phase_seconds: dict[str, float] = field(default_factory=dict)
    phase_counts: dict[str, int] = field(default_factory=dict)
    #: Event counters from :func:`repro.instrumentation.count` — matcher
    #: search statistics (``match.candidates_pruned``), analysis and
    #: repair events, and interpreter compile-cache traffic
    #: (``interp.compile_hits`` / ``interp.compile_misses``).
    counters: dict[str, int] = field(default_factory=dict)

    # -- recording -------------------------------------------------------

    def record_submission(
        self,
        cache_hit: bool = False,
        seconds: float = 0.0,
        parse_error: bool = False,
        timeout: bool = False,
        error: bool = False,
    ) -> None:
        """Count one batch item and its grading time (0 for cache hits)."""
        self.submissions += 1
        if cache_hit:
            self.cache_hits += 1
        else:
            self.graded += 1
            self.grading_seconds += seconds
        if parse_error:
            self.parse_errors += 1
        if timeout:
            self.timeouts += 1
        if error:
            self.errors += 1

    def record_phase(self, name: str, seconds: float, calls: int = 1) -> None:
        self.phase_seconds[name] = self.phase_seconds.get(name, 0.0) + seconds
        self.phase_counts[name] = self.phase_counts.get(name, 0) + calls

    def record_counter(self, name: str, amount: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def merge_phases(self, collector: PhaseCollector) -> None:
        """Fold a per-submission :class:`PhaseCollector` into the totals."""
        for name, seconds in collector.seconds.items():
            self.record_phase(name, seconds, collector.counts.get(name, 1))
        for name, amount in collector.counters.items():
            self.record_counter(name, amount)

    def merge(self, other: "PipelineStats") -> None:
        """Fold another run's counters in (sharded / multi-batch use)."""
        self.submissions += other.submissions
        self.graded += other.graded
        self.cache_hits += other.cache_hits
        self.parse_errors += other.parse_errors
        self.timeouts += other.timeouts
        self.errors += other.errors
        self.wall_seconds += other.wall_seconds
        self.grading_seconds += other.grading_seconds
        for name, seconds in other.phase_seconds.items():
            self.record_phase(name, seconds, other.phase_counts.get(name, 1))
        for name, amount in other.counters.items():
            self.record_counter(name, amount)

    # -- derived ---------------------------------------------------------

    @property
    def cache_hit_rate(self) -> float:
        """Fraction of submissions answered without grading."""
        return self.cache_hits / self.submissions if self.submissions else 0.0

    @property
    def throughput(self) -> float:
        """Submissions per wall-clock second, end to end."""
        return (
            self.submissions / self.wall_seconds if self.wall_seconds else 0.0
        )

    @property
    def grading_ms_per_submission(self) -> float:
        """Mean milliseconds actually spent grading one cache miss."""
        return 1000 * self.grading_seconds / self.graded if self.graded else 0.0

    # -- export ----------------------------------------------------------

    def to_dict(self) -> dict:
        """Flat JSON-friendly view (phase times in milliseconds)."""
        return {
            "mode": self.mode,
            "workers": self.workers,
            "submissions": self.submissions,
            "graded": self.graded,
            "cache_hits": self.cache_hits,
            "cache_hit_rate": round(self.cache_hit_rate, 4),
            "parse_errors": self.parse_errors,
            "timeouts": self.timeouts,
            "errors": self.errors,
            "wall_seconds": round(self.wall_seconds, 6),
            "grading_seconds": round(self.grading_seconds, 6),
            "throughput_per_second": round(self.throughput, 2),
            "phase_ms": {
                name: round(1000 * seconds, 3)
                for name, seconds in sorted(self.phase_seconds.items())
            },
            "phase_calls": dict(sorted(self.phase_counts.items())),
            "counters": dict(sorted(self.counters.items())),
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "PipelineStats":
        """Rebuild stats from a :meth:`to_dict` payload.

        The inverse of :meth:`to_dict` up to its rounding: phase times
        come back from milliseconds, derived rates are recomputed.  Used
        by the campaign runner to replay checkpointed shard stats into a
        whole-campaign aggregate on resume; unknown or missing fields
        default, so journals written by older versions still load.
        """
        stats = cls(
            mode=str(payload.get("mode", "serial")),
            workers=int(payload.get("workers", 1)),
            submissions=int(payload.get("submissions", 0)),
            graded=int(payload.get("graded", 0)),
            cache_hits=int(payload.get("cache_hits", 0)),
            parse_errors=int(payload.get("parse_errors", 0)),
            timeouts=int(payload.get("timeouts", 0)),
            errors=int(payload.get("errors", 0)),
            wall_seconds=float(payload.get("wall_seconds", 0.0)),
            grading_seconds=float(payload.get("grading_seconds", 0.0)),
        )
        phase_ms = payload.get("phase_ms") or {}
        phase_calls = payload.get("phase_calls") or {}
        for name, ms in phase_ms.items():
            stats.phase_seconds[name] = float(ms) / 1000.0
        for name, calls in phase_calls.items():
            stats.phase_counts[name] = int(calls)
        for name, amount in (payload.get("counters") or {}).items():
            stats.counters[name] = int(amount)
        return stats

    def summary(self) -> str:
        """Human-readable multi-line report (the CLI's ``--stats`` view)."""
        lines = [
            f"Pipeline stats (mode={self.mode}, workers={self.workers})",
            f"  submissions: {self.submissions} ({self.graded} graded, "
            f"{self.cache_hits} cache hits, {self.parse_errors} parse "
            f"errors, {self.timeouts} timeouts, {self.errors} errors)",
            f"  cache hit rate: {100 * self.cache_hit_rate:.1f}%",
            f"  throughput: {self.throughput:.1f} submissions/s "
            f"(wall {self.wall_seconds:.3f} s)",
        ]
        if self.phase_seconds:
            lines.append("  per-phase wall time:")
            known = [p for p in PIPELINE_PHASES if p in self.phase_seconds]
            extra = sorted(set(self.phase_seconds) - set(known))
            for name in [*known, *extra]:
                lines.append(
                    f"    {name:16s} {1000 * self.phase_seconds[name]:8.1f}ms"
                    f"  ({self.phase_counts.get(name, 0)} calls)"
                )
        if self.counters:
            lines.append("  event counters:")
            for name in sorted(self.counters):
                lines.append(f"    {name:32s} {self.counters[name]:>10d}")
        return "\n".join(lines)
