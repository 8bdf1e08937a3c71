"""Perf across the batch pipeline, clustering, campaigns, and serving.

The two load-bearing guarantees: with ``--perf`` *disabled* nothing
changes (byte-identical reports, untouched plain caches), and with it
*enabled* under clustering the grader falls back to full per-submission
grading — measured cost shapes are member-specific (rename-equivalent
members may differ in normalized constants), so representative replay
is unsound.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.analysis.perf.analyzer import PerfAnalyzer
from repro.cluster import ClusterGrader
from repro.core.engine import FeedbackEngine
from repro.core.pipeline import BatchGrader
from repro.core.storage import ResultStore
from repro.instrumentation import collecting
from repro.kb import get_assignment

SLOW_EVALUATE = """
void evaluate(int[] c, int x) {
    int r = 0;
    for (int i = 0; i < c.length; i++) {
        int p = 1;
        for (int k = 0; k < i; k++) {
            p = p * x;
        }
        r += c[i] * p;
    }
    System.out.println(r);
}
"""


@pytest.fixture(scope="module")
def polynomials():
    return get_assignment("mitx-polynomials")


def cohort_for(assignment):
    return [
        ("ok", assignment.reference_solutions[0]),
        ("slow", SLOW_EVALUATE),
    ]


class TestBatchGrader:
    def test_disabled_perf_is_byte_identical_to_plain(self, polynomials):
        cohort = cohort_for(polynomials)
        plain = BatchGrader(polynomials, cache=False).grade_batch(cohort)
        flagged = BatchGrader(
            polynomials, cache=False, perf=False
        ).grade_batch(cohort)
        for left, right in zip(plain.reports, flagged.reports):
            assert left.to_dict() == right.to_dict()
            assert left.render() == right.render()

    def test_enabled_perf_attaches_diagnostics(self, polynomials):
        grader = BatchGrader(polynomials, cache=False, perf=True)
        batch = grader.grade_batch(cohort_for(polynomials))
        results = {item.label: item.report for item in batch.items}
        assert results["ok"].perf == []
        assert results["slow"].perf
        assert results["slow"].perf[0].check == (
            "perf.loop-invariant-recomputation"
        )

    def test_perf_counters_reach_batch_stats(self, polynomials):
        grader = BatchGrader(polynomials, cache=False, perf=True)
        batch = grader.grade_batch(cohort_for(polynomials))
        counters = batch.stats.counters
        assert counters.get("perf.runs") == 2
        assert counters.get("perf.findings", 0) >= 1

    def test_perf_run_leaves_the_plain_store_cold(
        self, polynomials, tmp_path
    ):
        grader = BatchGrader(polynomials, store=tmp_path, perf=True)
        grader.grade_batch(cohort_for(polynomials))
        plain = ResultStore(tmp_path, polynomials)
        assert plain.entry_count() == 0
        scoped = ResultStore(tmp_path, polynomials, perf=True)
        assert scoped.entry_count() == 2


class TestClusterFallback:
    def test_perf_forces_full_grading(self, polynomials):
        engine = FeedbackEngine(
            polynomials, channels=[PerfAnalyzer(polynomials)]
        )
        grader = ClusterGrader(engine)
        with collecting() as phases:
            report = grader.grade(SLOW_EVALUATE)
        assert phases.counters.get("cluster.perf_fallbacks") == 1
        assert "cluster.representatives" not in phases.counters
        assert report.perf
        expected = engine.grade(SLOW_EVALUATE)
        assert report.to_dict() == expected.to_dict()

    def test_without_perf_clustering_is_untouched(self, polynomials):
        grader = ClusterGrader(FeedbackEngine(polynomials))
        with collecting() as phases:
            grader.grade(polynomials.reference_solutions[0])
        assert "cluster.perf_fallbacks" not in phases.counters
        assert phases.counters.get("cluster.representatives") == 1


class TestCampaignRunner:
    def test_perf_campaign_completes_and_scopes_its_store(
        self, polynomials, tmp_path
    ):
        from repro.core.campaign import CampaignRunner

        runner = CampaignRunner(
            polynomials, tmp_path / "store", shard_size=2, perf=True
        )
        result = runner.run(cohort_for(polynomials), campaign_id="c1")
        assert result.completed
        reports = {
            item.label: item.report
            for item in runner.grader.grade_batch(
                cohort_for(polynomials)
            ).items
        }
        assert reports["slow"].perf
        # Perf-scoped records never leak into a plain store on the path.
        plain = ResultStore(tmp_path / "store", polynomials)
        assert plain.entry_count() == 0


class TestServePool:
    def test_pool_grades_with_perf(self):
        from repro.core.profile import GradingProfile
        from repro.serve import GradingWorkerPool

        async def grade(profile):
            pool = GradingWorkerPool(workers=1, profile=profile)
            await pool.start()
            try:
                return await pool.grade(
                    "mitx-polynomials", SLOW_EVALUATE, 30.0
                )
            finally:
                await pool.stop()

        async def go():
            flagged = await grade(GradingProfile(perf=True))
            plain = await grade(GradingProfile())
            return flagged, plain

        flagged, plain = asyncio.run(go())
        assert flagged.report.perf
        assert plain.report.perf == []
