"""Unit tests for PipelineStats and the phase-timing instrumentation."""

from __future__ import annotations

import doctest
import time

import pytest

import repro.core.metrics
import repro.core.pipeline
from repro.core.metrics import PipelineStats
from repro.instrumentation import (
    DeadlineExceeded,
    PhaseCollector,
    active_collector,
    active_deadline,
    check_deadline,
    collecting,
    deadline,
    phase,
)


class TestPhaseCollector:
    def test_add_accumulates(self):
        collector = PhaseCollector()
        collector.add("parse", 0.1)
        collector.add("parse", 0.2)
        assert collector.seconds["parse"] == 0.1 + 0.2
        assert collector.counts["parse"] == 2

    def test_merge(self):
        first, second = PhaseCollector(), PhaseCollector()
        first.add("parse", 0.1)
        second.add("parse", 0.2)
        second.add("epdg_build", 0.3)
        first.merge(second)
        assert first.seconds["parse"] == 0.1 + 0.2
        assert first.counts["epdg_build"] == 1


class TestPhaseContext:
    def test_noop_without_collector(self):
        assert active_collector() is None
        with phase("parse"):
            pass  # must not raise, must not record anywhere

    def test_records_into_ambient_collector(self):
        with collecting() as collector:
            with phase("parse"):
                pass
        assert collector.counts["parse"] == 1
        assert collector.seconds["parse"] >= 0

    def test_records_on_exception(self):
        try:
            with collecting() as collector:
                with phase("parse"):
                    raise ValueError("boom")
        except ValueError:
            pass
        assert collector.counts["parse"] == 1

    def test_collector_uninstalled_after_block(self):
        with collecting():
            assert active_collector() is not None
        assert active_collector() is None

    def test_engine_phases_are_captured(self, engine1, assignment1):
        with collecting() as collector:
            engine1.grade(assignment1.reference_solutions[0])
        for name in ("parse", "epdg_build", "pattern_match",
                     "constraint_match"):
            assert name in collector.seconds


class TestPipelineStats:
    def test_counters(self):
        stats = PipelineStats()
        stats.record_submission(seconds=0.2)
        stats.record_submission(cache_hit=True)
        stats.record_submission(seconds=0.1, parse_error=True)
        stats.record_submission(seconds=0.1, error=True)
        assert stats.submissions == 4
        assert stats.graded == 3
        assert stats.cache_hits == 1
        assert stats.parse_errors == 1
        assert stats.errors == 1
        assert stats.cache_hit_rate == 0.25

    def test_throughput(self):
        stats = PipelineStats()
        stats.record_submission()
        stats.record_submission()
        stats.wall_seconds = 0.5
        assert stats.throughput == 4.0

    def test_zero_division_guards(self):
        stats = PipelineStats()
        assert stats.cache_hit_rate == 0.0
        assert stats.throughput == 0.0
        assert stats.grading_ms_per_submission == 0.0

    def test_merge_phases(self):
        stats = PipelineStats()
        collector = PhaseCollector()
        collector.add("parse", 0.25)
        stats.merge_phases(collector)
        stats.merge_phases(collector)
        assert stats.phase_seconds["parse"] == 0.5
        assert stats.phase_counts["parse"] == 2

    def test_merge_runs(self):
        first = PipelineStats()
        first.record_submission(seconds=0.1)
        first.record_phase("parse", 0.1)
        first.wall_seconds = 1.0
        second = PipelineStats()
        second.record_submission(cache_hit=True)
        second.record_phase("parse", 0.2)
        second.wall_seconds = 0.5
        first.merge(second)
        assert first.submissions == 2
        assert first.cache_hits == 1
        assert first.wall_seconds == 1.5
        assert first.phase_seconds["parse"] == 0.1 + 0.2

    def test_to_dict_is_json_friendly(self):
        import json

        stats = PipelineStats(mode="process", workers=2)
        stats.record_submission(seconds=0.1)
        stats.record_phase("parse", 0.05)
        stats.wall_seconds = 0.2
        payload = stats.to_dict()
        assert json.loads(json.dumps(payload)) == payload
        assert payload["phase_ms"]["parse"] == 50.0
        assert payload["mode"] == "process"

    def test_summary_mentions_every_phase(self):
        stats = PipelineStats()
        stats.record_phase("parse", 0.1)
        stats.record_phase("custom_phase", 0.1)
        text = stats.summary()
        assert "parse" in text and "custom_phase" in text


class TestModuleDoctests:
    """The ISSUE requires the module docstrings to stay runnable."""

    def test_metrics_doctest(self):
        failures, tested = doctest.testmod(repro.core.metrics)
        assert tested > 0 and failures == 0

    def test_pipeline_doctest(self):
        failures, tested = doctest.testmod(repro.core.pipeline)
        assert tested > 0 and failures == 0


class TestDeadline:
    """Cooperative deadline primitives in repro.instrumentation."""

    def test_none_is_a_no_op(self):
        with deadline(None):
            assert active_deadline() is None
            check_deadline()  # never raises

    def test_expired_deadline_raises(self):
        with deadline(1e-9):
            time.sleep(0.002)
            with pytest.raises(DeadlineExceeded):
                check_deadline()

    def test_unexpired_deadline_passes(self):
        with deadline(60.0):
            check_deadline()

    def test_phase_checks_deadline_on_entry(self):
        with deadline(1e-9):
            time.sleep(0.002)
            with pytest.raises(DeadlineExceeded):
                with phase("parse"):
                    pass

    def test_nested_keeps_earliest_expiry(self):
        with deadline(60.0):
            outer = active_deadline()
            with deadline(1e-9):
                assert active_deadline() < outer
                time.sleep(0.002)
                with pytest.raises(DeadlineExceeded):
                    check_deadline()
            # inner scope popped; the outer budget is intact
            assert active_deadline() == outer
            check_deadline()

    def test_inner_cannot_extend_outer(self):
        with deadline(1e-9):
            tight = active_deadline()
            with deadline(3600.0):
                assert active_deadline() == tight

    def test_reset_after_block(self):
        with deadline(5.0):
            pass
        assert active_deadline() is None
        check_deadline()

    def test_limit_hint_in_message(self):
        error = DeadlineExceeded(2.5)
        assert "2.5" in str(error)
        assert error.limit_seconds == 2.5

    def test_engine_grade_times_out_under_expired_deadline(
        self, engine1, assignment1
    ):
        # the pipeline converts this into a timeout report; at the
        # engine level the exception itself escapes
        with deadline(1e-9):
            time.sleep(0.002)
            with pytest.raises(DeadlineExceeded):
                engine1.grade(assignment1.reference_solutions[0])
