"""RepairEngine behaviour and its wiring into the feedback pipeline."""

from __future__ import annotations

import hashlib

import pytest

from repro.core import FeedbackEngine
from repro.core.report import GradingReport
from repro.core.storage import ResultStore
from repro.instrumentation import collecting, deadline
from repro.java import parse_submission
from repro.pdg.builder import extract_all_epdgs
from repro.repair import RepairConfig, RepairCorpus, RepairEngine
from repro.testing import run_tests_on_source

# assignment1's reference with the odd/even guards swapped and the
# locals renamed — functionally wrong, structurally one rewrite away.
BUGGY = """
void assignment1(int[] xs) {
    int o = 0;
    int e = 1;
    int i = 0;
    while (i < xs.length) {
        if (i % 2 == 0)
            o += xs[i];
        if (i % 2 == 0)
            e *= xs[i];
        i++;
    }
    System.out.println(o);
    System.out.println(e);
}
"""


@pytest.fixture(scope="module")
def corpus1(assignment1):
    return RepairCorpus.build(assignment1, synth_samples=4)


@pytest.fixture(scope="module")
def repairer(assignment1, corpus1):
    return RepairEngine(assignment1, corpus=corpus1)


def graphs_of(assignment, source):
    return extract_all_epdgs(
        parse_submission(source), assignment.synthesize_else_conditions
    )


class TestSuggest:
    def test_seeded_bug_gets_a_verified_suggestion(
        self, assignment1, repairer
    ):
        assert not run_tests_on_source(BUGGY, assignment1.tests).passed
        suggestions = repairer.suggest(graphs_of(assignment1, BUGGY))
        assert len(suggestions) == 1
        (suggestion,) = suggestions
        assert suggestion.verified
        assert suggestion.edits
        # The promise behind "verified": the repaired source passes.
        assert run_tests_on_source(
            suggestion.repaired_source, assignment1.tests
        ).passed
        # Identifier substitution talks in the student's names.
        assert "xs" in suggestion.repaired_source

    def test_correct_submission_yields_no_edits(
        self, assignment1, repairer
    ):
        graphs = graphs_of(assignment1, assignment1.reference_solutions[0])
        assert repairer.suggest(graphs) == []

    def test_empty_corpus_degrades_to_no_suggestion(self, assignment1):
        engine = RepairEngine(
            assignment1, corpus=RepairCorpus(assignment1, [])
        )
        with collecting() as phases:
            assert engine.suggest(graphs_of(assignment1, BUGGY)) == []
        assert phases.counters.get("repair.no_suggestion") == 1

    def test_counters_for_the_happy_path(self, assignment1, corpus1):
        engine = RepairEngine(assignment1, corpus=corpus1)
        with collecting() as phases:
            engine.suggest(graphs_of(assignment1, BUGGY))
        assert phases.counters.get("repair.requests") == 1
        assert phases.counters.get("repair.suggestions") == 1
        assert phases.counters.get("repair.verified") == 1

    def test_exhausted_budget_degrades_to_empty(self, assignment1, corpus1):
        engine = RepairEngine(
            assignment1,
            corpus=corpus1,
            config=RepairConfig(budget_seconds=1e-9),
        )
        with collecting() as phases:
            assert engine.suggest(graphs_of(assignment1, BUGGY)) == []
        assert phases.counters.get("repair.deadline_stops") == 1

    def test_expired_outer_deadline_propagates(self, assignment1, corpus1):
        from repro.instrumentation import DeadlineExceeded

        engine = RepairEngine(assignment1, corpus=corpus1)
        with pytest.raises(DeadlineExceeded):
            with deadline(1e-9):
                engine.suggest(graphs_of(assignment1, BUGGY))

    def test_unparseable_corpus_entry_is_skipped(self, assignment1):
        from repro.core.pipeline import source_key
        from repro.repair.corpus import CorpusEntry

        broken = "void assignment1(int[ {"
        corpus = RepairCorpus(
            assignment1,
            [CorpusEntry(source_key(broken), broken, "reference")],
        )
        engine = RepairEngine(assignment1, corpus=corpus)
        assert engine.suggest(graphs_of(assignment1, BUGGY)) == []


class TestCorpusLifecycle:
    def test_builds_once_and_saves_to_store(self, tmp_path, assignment1):
        store = ResultStore(tmp_path, assignment1, repair=True)
        config = RepairConfig(synth_samples=2)
        first = RepairEngine(assignment1, store=store, config=config)
        with collecting() as phases:
            built = first.corpus()
        assert phases.counters.get("repair.corpus_builds") == 1
        assert len(built) >= 1

        second = RepairEngine(assignment1, store=store, config=config)
        with collecting() as phases:
            loaded = second.corpus()
        assert phases.counters.get("repair.corpus_loads") == 1
        assert "repair.corpus_builds" not in phases.counters
        assert loaded.entries == built.entries

    def test_storeless_engine_builds_in_memory(self, assignment1):
        engine = RepairEngine(
            assignment1, config=RepairConfig(synth_samples=0)
        )
        assert len(engine.corpus()) >= 1


class TestFeedbackEngineWiring:
    def test_failing_submission_report_carries_repair(
        self, assignment1, repairer
    ):
        engine = FeedbackEngine(assignment1, channels=[repairer])
        report = engine.grade(BUGGY)
        assert report.repair
        assert report.repair[0].verified
        rendered = report.render()
        assert "Suggested fix" in rendered

    def test_round_trip_preserves_suggestions(self, assignment1, repairer):
        engine = FeedbackEngine(assignment1, channels=[repairer])
        report = engine.grade(BUGGY)
        again = GradingReport.from_dict(report.to_dict())
        assert again.to_dict() == report.to_dict()
        assert again.render() == report.render()

    def test_correct_submission_skips_the_repair_phase(
        self, assignment1, repairer
    ):
        engine = FeedbackEngine(assignment1, channels=[repairer])
        with collecting() as phases:
            report = engine.grade(assignment1.reference_solutions[0])
        assert not report.repair
        assert "repair.requests" not in phases.counters

    def test_without_repairer_reports_are_unchanged(self, assignment1):
        plain = FeedbackEngine(assignment1)
        report = plain.grade(BUGGY)
        assert report.repair == []
        assert "repair" not in report.to_dict()


class TestStoreScoping:
    """Repair-enabled runs must never contaminate plain caches."""

    def test_fingerprints_are_disjoint(self, assignment1, tmp_path):
        plain = ResultStore(tmp_path, assignment1)
        scoped = ResultStore(tmp_path, assignment1, repair=True)
        assert scoped.kb == plain.kb
        assert scoped.fingerprint == hashlib.sha256(
            f"{plain.kb}:repair".encode("utf-8")
        ).hexdigest()
        assert scoped.fingerprint != plain.fingerprint

    def test_scoped_write_is_invisible_to_plain_store(
        self, assignment1, engine1, tmp_path
    ):
        report = engine1.grade(assignment1.reference_solutions[0])
        scoped = ResultStore(tmp_path, assignment1, repair=True)
        assert scoped.put("a" * 64, report)
        plain = ResultStore(tmp_path, assignment1)
        assert plain.get("a" * 64) is None
        assert scoped.get("a" * 64) is not None
