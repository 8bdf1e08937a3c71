"""Unit tests for the batch grading pipeline (repro.core.pipeline)."""

from __future__ import annotations

import pytest

from repro.core import FeedbackEngine, GradingReport
from repro.core.pipeline import (
    BatchGrader,
    ResultCache,
    source_key,
)
from repro.synth import sample_submissions

BROKEN = "void assignment1(int[] a) { int = ; }"


@pytest.fixture(scope="module")
def cohort(assignment1):
    """20 sampled submissions with duplicates sprinkled in."""
    originals = [
        s.source
        for s in sample_submissions(assignment1.space(), 12, seed=5)
    ]
    duplicated = originals + originals[:8]
    return [(f"s{i}", source) for i, source in enumerate(duplicated)]


class TestSourceKey:
    def test_identical_sources_share_a_key(self):
        assert source_key("int x = 0;") == source_key("int x = 0;")

    def test_different_sources_differ(self):
        assert source_key("int x = 0;") != source_key("int x = 1;")

    def test_normalizes_line_endings_and_trailing_whitespace(self):
        unix = "int x = 0;\nint y = 1;\n"
        windows = "int x = 0;  \r\nint y = 1;\r\n\r\n"
        assert source_key(unix) == source_key(windows)

    def test_leading_indentation_is_significant(self):
        assert source_key("  int x = 0;") != source_key("int x = 0;")


class TestResultCache:
    def test_put_get_roundtrip(self):
        cache = ResultCache()
        report = GradingReport(assignment_name="a", parse_error="nope")
        cache.put("k", report)
        assert cache.get("k") is report
        assert cache.hits == 1

    def test_miss_counts(self):
        cache = ResultCache()
        assert cache.get("absent") is None
        assert cache.misses == 1

    def test_lru_eviction_drops_oldest(self):
        cache = ResultCache(maxsize=2)
        reports = {
            k: GradingReport(assignment_name=k, parse_error="x")
            for k in "abc"
        }
        cache.put("a", reports["a"])
        cache.put("b", reports["b"])
        assert cache.get("a") is reports["a"]  # refresh a; b is now oldest
        cache.put("c", reports["c"])
        assert "b" not in cache
        assert cache.get("a") is reports["a"]
        assert cache.get("c") is reports["c"]

    def test_error_reports_are_not_cached(self):
        cache = ResultCache()
        cache.put("k", GradingReport(assignment_name="a", error="boom"))
        assert "k" not in cache

    def test_rejects_nonpositive_maxsize(self):
        with pytest.raises(ValueError):
            ResultCache(maxsize=0)


class TestDeterminism:
    def test_parallel_results_identical_to_serial(self, assignment1, cohort):
        serial = BatchGrader(assignment1, mode="serial", cache=False)
        parallel = BatchGrader(assignment1, mode="process", workers=2)
        expected = serial.grade_batch(cohort)
        actual = parallel.grade_batch(cohort)
        assert expected.rendered() == actual.rendered()
        assert [i.report.status for i in expected.items] == \
            [i.report.status for i in actual.items]

    def test_process_results_identical_to_serial(self, assignment1, cohort):
        small = cohort[:6]
        serial = BatchGrader(assignment1, mode="serial")
        proc = BatchGrader(assignment1, mode="process", workers=2)
        assert serial.grade_batch(small).rendered() == \
            proc.grade_batch(small).rendered()

    def test_order_is_stable(self, assignment1, cohort):
        result = BatchGrader(assignment1, mode="process",
                             workers=2).grade_batch(cohort)
        assert [item.label for item in result.items] == \
            [label for label, _ in cohort]

    def test_cached_rerun_is_identical(self, assignment1, cohort):
        grader = BatchGrader(assignment1)
        first = grader.grade_batch(cohort)
        second = grader.grade_batch(cohort)
        assert first.rendered() == second.rendered()
        assert second.stats.graded == 0


class TestCaching:
    def test_duplicate_within_batch_hits(self, assignment1):
        source = assignment1.reference_solutions[0]
        result = BatchGrader(assignment1).grade_batch([source, source])
        assert result.stats.graded == 1
        assert result.stats.cache_hits == 1
        assert not result.items[0].from_cache
        assert result.items[1].from_cache
        assert result.items[0].report is result.items[1].report

    def test_resubmission_across_batches_hits(self, assignment1):
        source = assignment1.reference_solutions[0]
        grader = BatchGrader(assignment1)
        grader.grade_batch([source])
        rerun = grader.grade_batch([source])
        assert rerun.stats.cache_hits == 1 and rerun.stats.graded == 0
        assert rerun.items[0].from_cache

    def test_crlf_resubmission_hits(self, assignment1):
        source = assignment1.reference_solutions[0]
        grader = BatchGrader(assignment1)
        grader.grade_batch([source])
        rerun = grader.grade_batch([source.replace("\n", "\r\n")])
        assert rerun.stats.cache_hits == 1

    def test_cache_disabled_grades_everything(self, assignment1):
        source = assignment1.reference_solutions[0]
        grader = BatchGrader(assignment1, cache=False)
        result = grader.grade_batch([source, source])
        assert result.stats.graded == 2
        assert result.stats.cache_hits == 0

    def test_parse_error_reports_are_cached_too(self, assignment1):
        grader = BatchGrader(assignment1)
        grader.grade_batch([BROKEN])
        rerun = grader.grade_batch([BROKEN])
        assert rerun.stats.cache_hits == 1
        assert rerun.items[0].report.status == "parse-error"


class TestErrorIsolation:
    def test_broken_submission_does_not_abort_batch(self, assignment1):
        good = assignment1.reference_solutions[0]
        result = BatchGrader(assignment1).grade_batch(
            [("good", good), ("bad", BROKEN), ("good2", good)]
        )
        statuses = [item.report.status for item in result.items]
        assert statuses == ["ok", "parse-error", "ok"]
        assert result.stats.parse_errors == 1
        assert result.stats.errors == 0

    def test_unexpected_exception_is_isolated(self, assignment1,
                                              monkeypatch):
        good = assignment1.reference_solutions[0]
        original = FeedbackEngine.grade

        def explode(self, source):
            if "boom-marker" in source:
                raise RuntimeError("matcher exploded")
            return original(self, source)

        monkeypatch.setattr(FeedbackEngine, "grade", explode)
        result = BatchGrader(assignment1).grade_batch(
            [("good", good), ("evil", "// boom-marker")]
        )
        assert [i.report.status for i in result.items] == ["ok", "error"]
        assert "matcher exploded" in result.items[1].report.error
        assert result.stats.errors == 1

    def test_error_reports_are_not_cached(self, assignment1, monkeypatch):
        calls = []
        original = FeedbackEngine.grade

        def explode(self, source):
            if "boom-marker" in source:
                calls.append(1)
                raise RuntimeError("transient")
            return original(self, source)

        monkeypatch.setattr(FeedbackEngine, "grade", explode)
        grader = BatchGrader(assignment1)
        grader.grade_batch(["// boom-marker"])
        grader.grade_batch(["// boom-marker"])
        assert len(calls) == 2  # regraded, not replayed


class TestBatchGraderApi:
    def test_bare_sources_get_positional_labels(self, assignment1):
        source = assignment1.reference_solutions[0]
        result = BatchGrader(assignment1).grade_batch([source, BROKEN])
        assert [item.label for item in result.items] == ["#0", "#1"]

    def test_unknown_mode_rejected(self, assignment1):
        with pytest.raises(ValueError, match="unknown mode"):
            BatchGrader(assignment1, mode="fibers")

    def test_serial_ignores_workers(self, assignment1):
        assert BatchGrader(assignment1, mode="serial", workers=9).workers == 1

    def test_status_counts(self, assignment1):
        good = assignment1.reference_solutions[0]
        result = BatchGrader(assignment1).grade_batch([good, BROKEN])
        assert result.status_counts() == {"ok": 1, "parse-error": 1}

    def test_stats_phase_times_recorded(self, assignment1):
        source = assignment1.reference_solutions[0]
        result = BatchGrader(assignment1).grade_batch([source])
        for phase_name in ("parse", "epdg_build", "pattern_match",
                           "constraint_match"):
            assert result.stats.phase_seconds[phase_name] >= 0
            assert result.stats.phase_counts[phase_name] >= 1

    def test_empty_batch(self, assignment1):
        result = BatchGrader(assignment1).grade_batch([])
        assert result.items == []
        assert result.stats.submissions == 0


class TestMaxSeconds:
    """The per-submission wall-clock guard (this PR's satellite)."""

    def test_rejects_nonpositive_limit(self, assignment1):
        with pytest.raises(ValueError, match="max_seconds"):
            BatchGrader(assignment1, max_seconds=0)
        with pytest.raises(ValueError, match="max_seconds"):
            BatchGrader(assignment1, max_seconds=-1.0)

    def test_expired_budget_yields_timeout_reports(self, assignment1):
        source = assignment1.reference_solutions[0]
        result = BatchGrader(
            assignment1, max_seconds=1e-9, cache=False
        ).grade_batch([source, source + "//2"])
        assert [i.report.status for i in result.items] == [
            "timeout", "timeout",
        ]
        assert result.stats.timeouts == 2
        assert "wall-clock limit" in result.items[0].report.timeout

    def test_generous_budget_changes_nothing(self, assignment1):
        source = assignment1.reference_solutions[0]
        unlimited = BatchGrader(assignment1, cache=False).grade_batch(
            [source]
        )
        limited = BatchGrader(
            assignment1, max_seconds=300.0, cache=False
        ).grade_batch([source])
        assert (
            limited.reports[0].to_dict() == unlimited.reports[0].to_dict()
        )
        assert limited.stats.timeouts == 0

    def test_timeout_reports_are_not_cached(self, assignment1):
        source = assignment1.reference_solutions[0]
        grader = BatchGrader(assignment1, max_seconds=1e-9)
        assert grader.grade_batch([source]).reports[0].status == "timeout"
        assert len(grader.cache) == 0
        # the resubmission must regrade, not replay the timeout
        retry = grader.grade_batch([source])
        assert retry.stats.cache_hits == 0 and retry.stats.graded == 1

    def test_timeout_applies_in_process_mode(self, assignment1):
        source = assignment1.reference_solutions[0]
        result = BatchGrader(
            assignment1, mode="process", workers=2,
            max_seconds=1e-9, cache=False,
        ).grade_batch([source, source + "//2"])
        assert [i.report.status for i in result.items] == [
            "timeout", "timeout",
        ]
        assert result.stats.timeouts == 2


class TestCrossModeStats:
    """Pin the cross-process stats aggregation (this PR's satellite):
    per-phase call counts and matcher counters must be identical no
    matter which execution mode graded the batch."""

    def test_process_stats_match_serial(self, assignment1, cohort):
        serial = BatchGrader(
            assignment1, mode="serial", cache=False
        ).grade_batch(cohort)
        process = BatchGrader(
            assignment1, mode="process", workers=2, cache=False
        ).grade_batch(cohort)
        assert process.stats.phase_counts == serial.stats.phase_counts
        assert process.stats.counters == serial.stats.counters
        assert process.stats.graded == serial.stats.graded
        assert process.stats.parse_errors == serial.stats.parse_errors
        assert process.stats.timeouts == serial.stats.timeouts
        assert process.stats.errors == serial.stats.errors
        # wall time is mode-dependent, but phase time must be real
        assert process.stats.phase_seconds["pattern_match"] > 0

