"""Repair across the batch pipeline, clustering, and result stores.

The two load-bearing guarantees here: with repair *disabled* nothing
changes (byte-identical reports, untouched plain caches), and with
repair *enabled* under clustering the grader falls back to full
per-submission grading so every member gets suggestions phrased in its
own identifiers.
"""

from __future__ import annotations

import pytest

from repro.cluster import ClusterGrader
from repro.core.engine import FeedbackEngine
from repro.core.pipeline import BatchGrader
from repro.core.storage import ResultStore
from repro.instrumentation import collecting
from repro.repair import RepairConfig, RepairCorpus, RepairEngine

from tests.repair.test_engine import BUGGY


@pytest.fixture(scope="module")
def repairer(assignment1):
    return RepairEngine(
        assignment1,
        corpus=RepairCorpus.build(assignment1, synth_samples=4),
    )


def cohort_for(assignment):
    return [
        ("ok", assignment.reference_solutions[0]),
        ("bad", BUGGY),
    ]


class TestBatchGrader:
    def test_disabled_repair_is_byte_identical_to_plain(self, assignment1):
        cohort = cohort_for(assignment1)
        plain = BatchGrader(assignment1, cache=False).grade_batch(cohort)
        flagged = BatchGrader(
            assignment1, cache=False, repair=False
        ).grade_batch(cohort)
        for left, right in zip(plain.reports, flagged.reports):
            assert left.to_dict() == right.to_dict()
            assert left.render() == right.render()

    def test_enabled_repair_attaches_suggestions(
        self, assignment1, repairer
    ):
        grader = BatchGrader(assignment1, cache=False, repair=True)
        grader.engine.channels = (repairer,)  # skip a per-test corpus build
        batch = grader.grade_batch(cohort_for(assignment1))
        results = {item.label: item.report for item in batch.items}
        assert results["ok"].repair == []
        assert results["bad"].repair
        assert results["bad"].repair[0].verified

    def test_store_scope_mismatch_is_rejected(self, assignment1, tmp_path):
        plain_store = ResultStore(tmp_path, assignment1)
        with pytest.raises(ValueError, match="repair scope"):
            BatchGrader(assignment1, store=plain_store, repair=True)
        scoped = ResultStore(tmp_path, assignment1, repair=True)
        with pytest.raises(ValueError, match="repair scope"):
            BatchGrader(assignment1, store=scoped, repair=False)

    def test_corpus_is_shared_across_channel_profiles(
        self, assignment1, tmp_path
    ):
        # save the corpus the way `repro repair corpus build` does: into
        # the repair-only scope of the cache directory
        corpus = RepairCorpus.build(assignment1, synth_samples=2)
        corpus.save(ResultStore(tmp_path, assignment1, repair=True))
        grader = BatchGrader(
            assignment1, store=tmp_path, repair=True, perf=True
        )
        batch = grader.grade_batch([BUGGY])
        counters = batch.stats.counters
        assert counters.get("repair.corpus_loads") == 1
        assert "repair.corpus_builds" not in counters

    def test_repair_run_leaves_the_plain_store_cold(
        self, assignment1, tmp_path, repairer
    ):
        grader = BatchGrader(assignment1, store=tmp_path, repair=True)
        grader.engine.channels = (repairer,)
        grader.grade_batch(cohort_for(assignment1))
        plain = ResultStore(tmp_path, assignment1)
        assert plain.entry_count() == 0


class TestClusterFallback:
    def test_repair_forces_full_grading(self, assignment1, repairer):
        engine = FeedbackEngine(assignment1, channels=[repairer])
        grader = ClusterGrader(engine)
        with collecting() as phases:
            report = grader.grade(BUGGY)
        assert phases.counters.get("cluster.repair_fallbacks") == 1
        assert "cluster.representatives" not in phases.counters
        assert report.repair
        # Full-path equivalence: same report the engine alone produces.
        expected = engine.grade(BUGGY)
        assert report.to_dict() == expected.to_dict()

    def test_suggestions_speak_each_members_identifiers(
        self, assignment1, repairer
    ):
        engine = FeedbackEngine(assignment1, channels=[repairer])
        grader = ClusterGrader(engine)
        renamed = BUGGY.replace("xs", "numbers")
        first = grader.grade(BUGGY)
        second = grader.grade(renamed)
        assert "xs" in first.repair[0].repaired_source
        assert "numbers" in second.repair[0].repaired_source

    def test_without_repairer_clustering_is_untouched(self, assignment1):
        grader = ClusterGrader(FeedbackEngine(assignment1))
        with collecting() as phases:
            grader.grade(assignment1.reference_solutions[0])
        assert "cluster.repair_fallbacks" not in phases.counters
        assert phases.counters.get("cluster.representatives") == 1


class TestCampaignRunner:
    def test_repair_campaign_completes_and_scopes_its_store(
        self, assignment1, tmp_path
    ):
        from repro.core.campaign import CampaignRunner

        runner = CampaignRunner(
            assignment1, tmp_path / "store", shard_size=2, repair=True
        )
        cohort = cohort_for(assignment1) + [
            ("bad2", BUGGY.replace("xs", "numbers")),
        ]
        result = runner.run(cohort, campaign_id="c1")
        assert result.completed
        reports = {
            item.label: item.report
            for item in runner.grader.grade_batch(cohort).items
        }
        assert reports["bad"].repair
        assert "numbers" in reports["bad2"].repair[0].repaired_source
        # The repair-scoped records never leak into a plain store on
        # the same path.
        plain = ResultStore(tmp_path / "store", assignment1)
        assert plain.entry_count() == 0
