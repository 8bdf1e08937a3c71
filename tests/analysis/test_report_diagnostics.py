"""Diagnostics on GradingReport: round-trip, back-compat, promotion,
and persistent-store invalidation."""

from __future__ import annotations

import json

from repro.analysis import Severity
from repro.analysis.diagnostics import Diagnostic
from repro.core.engine import FeedbackEngine
from repro.core.report import GradingReport
from repro.core.storage import ResultStore, kb_fingerprint

BUGGY = """
public class Sub {
    public static int f(int n) {
        int x;
        return x;
    }
}
"""


def buggy_report(assignment1):
    report = FeedbackEngine(assignment1).grade(BUGGY)
    assert report.diagnostics, "buggy source must produce diagnostics"
    return report


class TestRoundTrip:
    def test_diagnostics_survive_to_dict_from_dict(self, assignment1):
        report = buggy_report(assignment1)
        clone = GradingReport.from_dict(
            json.loads(json.dumps(report.to_dict()))
        )
        assert clone.diagnostics == report.diagnostics
        assert clone.render() == report.render()

    def test_diagnostic_payload_shape(self):
        diagnostic = Diagnostic(
            check="use-before-init", severity=Severity.ERROR,
            method="f", message="m", line=4, column=9, snippet="return x",
        )
        payload = diagnostic.to_dict()
        assert payload["severity"] == "error"
        assert Diagnostic.from_dict(payload) == diagnostic

    def test_pre_diagnostics_payload_rebuilds_empty(self, assignment1):
        # a PR-4 era store entry has no "diagnostics" key at all
        report = buggy_report(assignment1)
        payload = report.to_dict()
        del payload["diagnostics"]
        clone = GradingReport.from_dict(payload)
        assert clone.diagnostics == []
        assert clone.status == report.status

    def test_error_shapes_keep_diagnostics_key(self, assignment1):
        for payload in (
            {"assignment": "a", "parse_error": "boom"},
            {"assignment": "a", "timeout": "slow"},
            {"assignment": "a", "status": "error", "error": "bad"},
        ):
            assert GradingReport.from_dict(payload).diagnostics == []


class TestPromotion:
    def test_unmatched_submission_promotes_diagnostics(self, assignment1):
        report = buggy_report(assignment1)
        # nothing matched: every comment is NotExpected, diagnostics lead
        assert report.diagnostics_are_primary
        rendered = report.render()
        assert "static analysis found" in rendered
        assert rendered.index("static analysis") < rendered.index("[NotExpected]")

    def test_matched_submission_keeps_pattern_feedback_first(self, assignment1):
        # correct solution + an extra buggy helper method: patterns
        # match, so diagnostics ride along as secondary observations
        source = (
            "int g() { int x; return x; }\n"
            + assignment1.reference_solutions[0]
        )
        report = FeedbackEngine(assignment1).grade(source)
        assert report.outcome is not None
        assert report.diagnostics
        assert not report.diagnostics_are_primary
        assert "Additional observations" in report.render()

    def test_reference_solutions_have_no_error_diagnostics(self, assignment):
        # some RIT references legitimately carry write-only locals
        # (unused-variable warnings), but a working reference solution
        # must never trip an ERROR-severity check
        engine = FeedbackEngine(assignment)
        for source in assignment.reference_solutions:
            report = engine.grade(source)
            errors = [
                d for d in report.diagnostics
                if d.severity is Severity.ERROR
            ]
            assert errors == [], (
                f"{assignment.name}: reference solution trips errors: "
                f"{[d.render() for d in errors]}"
            )


class TestStore:
    def test_store_roundtrips_diagnostics(self, tmp_path, assignment1):
        report = buggy_report(assignment1)
        store = ResultStore(tmp_path, assignment1)
        assert store.put("k" * 64, report)
        cached = store.get("k" * 64)
        assert cached is not None
        assert cached.diagnostics == report.diagnostics

    def test_fingerprint_covers_check_set(self, monkeypatch, assignment1):
        before = kb_fingerprint(assignment1)
        monkeypatch.setattr(
            "repro.analysis.checks.ANALYSIS_VERSION", 999
        )
        assert kb_fingerprint(assignment1) != before

    def test_legacy_entry_without_diagnostics_still_reads(
        self, tmp_path, assignment1
    ):
        report = buggy_report(assignment1)
        store = ResultStore(tmp_path, assignment1)
        key = "a" * 64
        assert store.put(key, report)
        # rewrite the entry the way a pre-diagnostics writer produced it
        entry = store._read("entry", key, lambda entry: entry)
        del entry["report"]["diagnostics"]
        assert store._write("entry", key, "report", entry["report"])
        cached = store.get(key)
        assert cached is not None
        assert cached.diagnostics == []
