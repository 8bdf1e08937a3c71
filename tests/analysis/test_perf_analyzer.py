"""PerfAnalyzer end-to-end: escalation, mismatch, engine integration.

Also the two compatibility gates the tentpole demands: byte-identical
reports when perf is disabled, and zero perf diagnostics on every
reference solution with the full dynamic pass on.
"""

from __future__ import annotations

import pytest

from repro.analysis.diagnostics import Severity
from repro.analysis.perf.analyzer import PerfAnalyzer
from repro.core.engine import FeedbackEngine
from repro.instrumentation import PhaseCollector, collecting
from repro.java import parse_submission
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

FAST_EVALUATE = """
void evaluate(int[] c, int x) {
    int r = 0;
    int p = 1;
    for (int i = 0; i < c.length; i++) {
        r += c[i] * p;
        p = p * x;
    }
    System.out.println(r);
}
"""


@pytest.fixture(scope="module")
def polynomials():
    return get_assignment("mitx-polynomials")


@pytest.fixture(scope="module")
def perf_engine(polynomials):
    return FeedbackEngine(
        polynomials, channels=[PerfAnalyzer(polynomials)]
    )


class TestEscalation:
    def test_slow_submission_escalates_to_error(self, perf_engine):
        report = perf_engine.grade(SLOW_EVALUATE)
        assert [d.check for d in report.perf] == [
            "perf.loop-invariant-recomputation"
        ]
        diagnostic = report.perf[0]
        assert diagnostic.severity is Severity.ERROR
        assert "quadratic" in diagnostic.message
        assert "linear suffices" in diagnostic.message

    def test_fast_submission_is_clean(self, perf_engine):
        assert perf_engine.grade(FAST_EVALUATE).perf == []

    def test_static_only_without_spec_stays_advisory(self, polynomials):
        analyzer = PerfAnalyzer(polynomials)
        analyzer.spec = None  # simulate an assignment with no PerfSpec
        diagnostics = analyzer.analyze(parse_submission(SLOW_EVALUATE))
        assert [d.severity for d in diagnostics] == [Severity.WARNING]
        assert "Measured cost" not in diagnostics[0].message

    def test_counters_flow_through_collector(self, polynomials):
        engine = FeedbackEngine(
            polynomials, channels=[PerfAnalyzer(polynomials)]
        )
        collector = PhaseCollector()
        with collecting(collector):
            engine.grade(SLOW_EVALUATE)
        counters = collector.counters
        assert counters.get("perf.runs") == 1
        assert counters.get("perf.static_findings") == 1
        assert counters.get("perf.escalations") == 1
        assert counters.get("perf.findings") == 1
        assert counters.get("perf.probe_runs", 0) > 0
        assert "perf" in collector.seconds
        assert "perf.static" in collector.seconds
        assert "perf.dynamic" in collector.seconds


class TestDynamicGating:
    def test_loopless_submission_skips_dynamic(self, polynomials):
        analyzer = PerfAnalyzer(polynomials)
        collector = PhaseCollector()
        with collecting(collector):
            diagnostics = analyzer.analyze(parse_submission("""
                void evaluate(int[] c, int x) {
                    System.out.println(0);
                }
            """))
        assert diagnostics == []
        assert "perf.dynamic" not in collector.seconds

    def test_mismatch_without_static_finding(self, polynomials):
        # quadratic busy-work no static detector models (no lookup
        # probe, nothing recomputed, no string): only the entry-method
        # cost shape catches it
        analyzer = PerfAnalyzer(polynomials)
        diagnostics = analyzer.analyze(parse_submission("""
            void evaluate(int[] c, int x) {
                int r = 0;
                int p = 1;
                for (int i = 0; i < c.length; i++) {
                    for (int k = 0; k < c.length; k++) {
                        r += 0;
                    }
                    r += c[i] * p;
                    p = p * x;
                }
                System.out.println(r);
            }
        """))
        checks = [d.check for d in diagnostics]
        assert "perf.cost-shape-mismatch" in checks
        mismatch = diagnostics[checks.index("perf.cost-shape-mismatch")]
        assert mismatch.severity is Severity.WARNING
        assert mismatch.method == "evaluate"


class TestDisabledCompatibility:
    def test_reports_byte_identical_when_disabled(self, polynomials):
        plain = FeedbackEngine(polynomials)
        for source in (FAST_EVALUATE, SLOW_EVALUATE):
            report = plain.grade(source)
            assert report.perf == []
            assert "perf" not in report.to_dict()

    def test_enabled_and_disabled_agree_outside_perf(
        self, polynomials, perf_engine
    ):
        plain = FeedbackEngine(polynomials)
        with_perf = perf_engine.grade(SLOW_EVALUATE).to_dict()
        without = plain.grade(SLOW_EVALUATE).to_dict()
        with_perf.pop("perf")
        assert with_perf == without


class TestReferenceGate:
    def test_references_are_perf_clean(self, assignment):
        """Full two-sided pass, zero diagnostics on every reference."""
        engine = FeedbackEngine(
            assignment, channels=[PerfAnalyzer(assignment)]
        )
        for reference in assignment.reference_solutions:
            report = engine.grade(reference)
            assert report.status == "ok"
            assert report.perf == []
