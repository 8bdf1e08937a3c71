"""Unit tests for the public grading API."""

import pytest

from repro import FeedbackEngine, FeedbackStatus, get_assignment
from repro.instrumentation import collecting
from repro.kb.assignments.assignment1 import FIGURE_2B

#: Assignment 1's reference loop plus a declared variable ``éi``, which
#: the lexer reads as one identifier.
_WITH_EI_DECLARED = """void assignment1(int[] a) {
    int odd = 0;
    int even = 1;
    int i = 0;
    int éi = 0;
    while (i < a.length) {
        if (i % 2 == 1)
            odd += a[i];
        if (i % 2 == 0)
            even *= a[i];
        i++;
    }
    System.out.println(odd);
    System.out.println(even);
}
"""


class TestFeedbackEngine:
    def test_grade_source(self, engine1):
        report = engine1.grade(FIGURE_2B)
        assert report.ok and report.is_positive

    def test_grade_parse_error(self, engine1):
        report = engine1.grade("void assignment1(int[] a) { int = ; }")
        assert not report.ok
        assert report.parse_error is not None
        assert not report.is_positive
        assert report.score == 0.0
        assert "does not compile" in report.render()

    def test_grade_graphs(self, engine1):
        graphs = engine1.frontend(FIGURE_2B)
        report = engine1.grade_graphs(graphs)
        assert report.is_positive

    def test_engine_is_reusable_across_submissions(self, engine1):
        first = engine1.grade(FIGURE_2B)
        second = engine1.grade("void assignment1(int[] a) { }")
        third = engine1.grade(FIGURE_2B)
        assert first.is_positive and third.is_positive
        assert not second.is_positive

    def test_unicode_identifier_does_not_satisfy_a_variable(self, engine1):
        # `éi = i + 1` never increments `i`; the template guards must see
        # `éi` as one identifier, just as the lexer does
        source = _WITH_EI_DECLARED.replace("i++;", "éi = i + 1;")
        assert "éi = i + 1;" in source
        report = engine1.grade(source)
        assert not report.is_positive
        assert "i is incremented by 1" not in report.render()
        ascii_twin = engine1.grade(source.replace("éi", "zi"))
        assert report.render().replace("éi", "zi") == ascii_twin.render()


class TestFrontendCache:
    def test_repeat_grades_hit_the_cache(self, assignment1):
        engine = FeedbackEngine(assignment1)
        first = engine.grade(FIGURE_2B)
        with collecting() as collector:
            second = engine.grade(FIGURE_2B)
        assert collector.counters.get("frontend.cache_hits") == 1
        assert "parse" not in collector.seconds
        assert "epdg_build" not in collector.seconds
        assert second.render() == first.render()

    def test_distinct_sources_miss(self, assignment1):
        engine = FeedbackEngine(assignment1)
        with collecting() as collector:
            engine.grade(FIGURE_2B)
            engine.grade("void assignment1(int[] a) { }")
        assert collector.counters.get("frontend.cache_misses") == 2
        assert "frontend.cache_hits" not in collector.counters

    def test_parse_errors_replay_identically(self, assignment1):
        engine = FeedbackEngine(assignment1)
        broken = "void assignment1(int[] a) { int = ; }"
        first = engine.grade(broken)
        with collecting() as collector:
            second = engine.grade(broken)
        assert collector.counters.get("frontend.cache_hits") == 1
        assert second.parse_error == first.parse_error
        assert second.render() == first.render()

    def test_frontend_returns_graphs_or_error_text(self, assignment1):
        engine = FeedbackEngine(assignment1)
        graphs = engine.frontend(FIGURE_2B)
        assert isinstance(graphs, dict) and "assignment1" in graphs
        error = engine.frontend("int = ;")
        assert isinstance(error, str) and "line" in error

    def test_cached_graphs_are_shared_not_copied(self, assignment1):
        engine = FeedbackEngine(assignment1)
        assert engine.frontend(FIGURE_2B) is engine.frontend(FIGURE_2B)

    def test_eviction_is_bounded_fifo(self, assignment1):
        engine = FeedbackEngine(assignment1, frontend_cache_size=2)
        sources = [
            f"void assignment1(int[] a) {{ int x{i} = {i}; }}"
            for i in range(3)
        ]
        for source in sources:
            engine.grade(source)
        with collecting() as collector:
            engine.grade(sources[0])  # evicted by the third insert
            engine.grade(sources[2])  # still resident
        assert collector.counters.get("frontend.cache_misses") == 1
        assert collector.counters.get("frontend.cache_hits") == 1

    def test_size_zero_disables_caching(self, assignment1):
        engine = FeedbackEngine(assignment1, frontend_cache_size=0)
        with collecting() as collector:
            engine.grade(FIGURE_2B)
            engine.grade(FIGURE_2B)
        assert "frontend.cache_hits" not in collector.counters
        assert "frontend.cache_misses" not in collector.counters
        assert collector.counts.get("parse") == 2
        assert collector.counts.get("epdg_build") == 2


class TestGradingReport:
    def test_by_status(self, engine1):
        report = engine1.grade("void assignment1(int[] a) { }")
        assert report.by_status(FeedbackStatus.NOT_EXPECTED)
        assert report.by_status(FeedbackStatus.CORRECT) == []

    def test_score_bounds(self, engine1):
        report = engine1.grade(FIGURE_2B)
        assert 0 < report.score == report.max_score

    def test_render_contains_score_line(self, engine1):
        report = engine1.grade(FIGURE_2B)
        assert "Score:" in report.render()

    def test_render_is_student_readable(self, engine1):
        report = engine1.grade(FIGURE_2B)
        text = report.render()
        assert "[Correct]" in text
        assert "odd positions" in text


class TestPublicApi:
    def test_top_level_imports(self):
        import repro
        assert repro.__version__
        assert len(repro.all_assignment_names()) == 12
        assert len(repro.all_patterns()) == 24

    def test_assignment_helpers(self):
        assignment = get_assignment("assignment1")
        assert assignment.method_names() == ["assignment1"]
        assert assignment.pattern_count == 6

    def test_assignment_without_space(self):
        from repro.core import Assignment
        bare = Assignment(name="x", title="t", statement="s")
        with pytest.raises(ValueError, match="no submission space"):
            bare.space()
