"""RepairEngine behaviour and its wiring into the feedback pipeline."""

from __future__ import annotations

import hashlib
import re

import pytest

from repro.core import FeedbackEngine
from repro.core.report import GradingReport
from repro.core.storage import ResultStore
from repro.instrumentation import collecting, deadline
from repro.java import parse_submission
from repro.pdg.builder import extract_all_epdgs
from repro.repair import RepairConfig, RepairCorpus, RepairEngine
from repro.repair import engine as engine_module
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


STUDENT_NAMES = ("a", "odd", "even", "i")


def _respell(source: str, spell) -> str:
    for name in STUDENT_NAMES:
        source = re.sub(
            rf"(?<![\w$]){name}(?![\w$])", spell(name), source
        )
    return source


class TestIdentifierClasses:
    """``$`` and non-ASCII names vote like any other spelling."""

    SPELLINGS = {
        "dollar": lambda name: "$" + name,
        "enye": lambda name: name + "ñ",
    }

    @pytest.fixture(scope="class")
    def defect(self, assignment1):
        source = assignment1.reference_solutions[0]
        return source.replace("i % 2 == 1", "i % 2 == 0", 1)

    @pytest.mark.parametrize("spelling", sorted(SPELLINGS))
    def test_suggestion_matches_the_plain_rename(
        self, assignment1, repairer, defect, spelling
    ):
        plain = lambda name: "stu" + name.capitalize()  # noqa: E731
        spell = self.SPELLINGS[spelling]
        (expected,) = repairer.suggest(
            graphs_of(assignment1, _respell(defect, plain))
        )
        (got,) = repairer.suggest(
            graphs_of(assignment1, _respell(defect, spell))
        )
        to_spelling = {plain(name): spell(name) for name in STUDENT_NAMES}

        def translate(text: str) -> str:
            return re.sub(
                r"stu[A-Z][a-z]*", lambda m: to_spelling[m[0]], text
            )

        assert [
            (edit.op, edit.before, edit.after) for edit in got.edits
        ] == [
            (edit.op, translate(edit.before), translate(edit.after))
            for edit in expected.edits
        ]
        assert got.repaired_source == translate(expected.repaired_source)
        assert all(
            spell(name) in got.repaired_source for name in STUDENT_NAMES
        )


class _CountingTests:
    """Stands in for ``run_tests_on_source``; can fail chosen sources."""

    def __init__(self, fail: set[str] = frozenset(), raise_=None):
        self.calls: list[str] = []
        self.fail = set(fail)
        self.raise_ = raise_

    def __call__(self, source, tests, step_budget):
        self.calls.append(source)
        if self.raise_ is not None:
            raise self.raise_
        report = run_tests_on_source(source, tests, step_budget=step_budget)
        if source in self.fail:
            return type(report)(results=[], parse_error="forced failure")
        return report


class TestVerdictMemo:
    def test_hit_counts_verified_and_skips_the_tests(
        self, assignment1, corpus1, monkeypatch
    ):
        engine = RepairEngine(assignment1, corpus=corpus1)
        runner = _CountingTests()
        monkeypatch.setattr(engine_module, "run_tests_on_source", runner)
        graphs = graphs_of(assignment1, BUGGY)
        first = engine.suggest(graphs)
        assert len(runner.calls) == 1
        with collecting() as phases:
            again = engine.suggest(graphs)
        assert len(runner.calls) == 1
        assert again == first
        assert phases.counters.get("repair.verified") == 1
        assert phases.counters.get("repair.verify_memo_hits") == 1
        assert "repair.verify_failed" not in phases.counters

    def test_failed_verdict_is_remembered_and_falls_through(
        self, assignment1, corpus1, monkeypatch
    ):
        two = RepairEngine(
            assignment1, corpus=corpus1,
            config=RepairConfig(max_suggestions=2),
        )
        graphs = graphs_of(assignment1, BUGGY)
        top, runner_up = two.suggest(graphs)

        engine = RepairEngine(assignment1, corpus=corpus1)
        runner = _CountingTests(fail={top.repaired_source})
        monkeypatch.setattr(engine_module, "run_tests_on_source", runner)
        with collecting() as phases:
            assert engine.suggest(graphs) == [runner_up]
        assert phases.counters.get("repair.verify_failed") == 1
        assert phases.counters.get("repair.verified") == 1
        assert runner.calls == [top.repaired_source, runner_up.repaired_source]

        with collecting() as phases:
            assert engine.suggest(graphs) == [runner_up]
        assert phases.counters.get("repair.verify_failed") == 1
        assert phases.counters.get("repair.verified") == 1
        assert phases.counters.get("repair.verify_memo_hits") == 2
        assert len(runner.calls) == 2

    def test_deadline_mid_verification_records_nothing(
        self, assignment1, corpus1, monkeypatch
    ):
        from repro.instrumentation import DeadlineExceeded

        engine = RepairEngine(assignment1, corpus=corpus1)
        graphs = graphs_of(assignment1, BUGGY)
        raising = _CountingTests(raise_=DeadlineExceeded(1.0))
        monkeypatch.setattr(engine_module, "run_tests_on_source", raising)
        with collecting() as phases:
            assert engine.suggest(graphs) == []
        assert phases.counters.get("repair.deadline_stops") == 1
        assert len(raising.calls) == 1

        runner = _CountingTests()
        monkeypatch.setattr(engine_module, "run_tests_on_source", runner)
        with collecting() as phases:
            (suggestion,) = engine.suggest(graphs)
        assert runner.calls == [suggestion.repaired_source]
        assert "repair.verify_memo_hits" not in phases.counters

    def test_built_corpus_seeds_and_loaded_corpus_does_not(
        self, tmp_path, assignment1, monkeypatch
    ):
        store = ResultStore(tmp_path, assignment1, repair=True)
        config = RepairConfig(synth_samples=2)
        built = RepairEngine(assignment1, store=store, config=config)
        corpus = built.corpus()
        reference = assignment1.reference_solutions[0]
        assert corpus.verdicts[reference] is True

        runner = _CountingTests()
        monkeypatch.setattr(engine_module, "run_tests_on_source", runner)
        assert built._verify(reference)
        assert runner.calls == []

        loaded = RepairEngine(assignment1, store=store, config=config)
        assert loaded.corpus().verdicts == {}
        assert loaded._verify(reference)
        assert runner.calls == [reference]

    def test_memo_is_bounded_oldest_first(
        self, assignment1, corpus1, monkeypatch
    ):
        monkeypatch.setattr(engine_module, "MAX_VERDICTS", 2)
        runner = _CountingTests()
        monkeypatch.setattr(engine_module, "run_tests_on_source", runner)
        engine = RepairEngine(assignment1, corpus=corpus1)
        sources = [
            assignment1.reference_solutions[0],
            BUGGY,
            assignment1.reference_solutions[0] + "\n",
        ]
        assert [engine._verify(source) for source in sources] == [
            True, False, True
        ]
        assert len(runner.calls) == 3
        # the oldest verdict was dropped; the two newest are remembered
        engine._verify(sources[1])
        engine._verify(sources[2])
        assert len(runner.calls) == 3
        engine._verify(sources[0])
        assert len(runner.calls) == 4

    def test_concurrent_verifications_keep_the_bound(
        self, assignment1, corpus1, monkeypatch
    ):
        import sys
        import threading

        monkeypatch.setattr(engine_module, "MAX_VERDICTS", 8)
        engine = RepairEngine(assignment1, corpus=corpus1)
        reference = assignment1.reference_solutions[0]
        sources = [reference + "\n" * k for k in range(24)]
        errors: list[BaseException] = []

        def worker(offset: int) -> None:
            try:
                for k in range(len(sources) * 2):
                    assert engine._verify(sources[(offset + k) % len(sources)])
            except BaseException as error:  # noqa: BLE001 - reported below
                errors.append(error)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=worker, args=(offset,))
                for offset in range(6)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert len(engine._verdicts) <= 8
