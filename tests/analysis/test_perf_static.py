"""Static side of the performance analyzer: loop table + detectors.

Golden positives and negatives per anti-pattern, the loop-id agreement
invariant (static numbering == interpreter counter keys), and the
clean-KB gate: zero perf findings on all twelve reference solutions.
"""

from __future__ import annotations

import pytest

from repro.analysis.perf.static import (
    BOUND_CONSTANT,
    BOUND_DATA_DEPENDENT,
    BOUND_INPUT_LINEAR,
    detect_patterns,
    method_loops,
)
from repro.core.assignment import FunctionalTest
from repro.java import parse_expression, parse_submission
from repro.java.printer import print_expression
from repro.testing.functional import run_tests


def loops_of(source):
    return method_loops(parse_submission(source))


def findings_of(source):
    return detect_patterns(parse_submission(source))


def pattern_ids(source):
    return [finding.pattern_id for finding in findings_of(source)]


class TestLoopTable:
    def test_ids_depths_and_kinds(self):
        table = loops_of("""
            void m(int[] a) {
                for (int i = 0; i < a.length; i++) {
                    int j = 0;
                    while (j < 2) { j++; }
                }
                do { } while (false);
            }
        """)
        loops = table["m"]
        assert [l.loop_id for l in loops] == [
            "m:for@0", "m:while@1", "m:dowhile@2",
        ]
        assert [l.depth for l in loops] == [1, 2, 1]
        assert loops[1].parent is loops[0]
        assert loops[2].parent is None

    def test_ids_match_runtime_counter_keys(self):
        """The invariant the dynamic pass rests on: the static walk
        reproduces the compiler's loop numbering exactly."""
        source = """
            int sum(int[] a) {
                int t = 0;
                for (int i = 0; i < a.length; i++) {
                    int j = 0;
                    while (j < 2) { t += a[i]; j++; }
                }
                return t;
            }
        """
        unit = parse_submission(source)
        static_ids = {l.loop_id for l in method_loops(unit)["sum"]}
        report = run_tests(
            unit, [FunctionalTest(method="sum", arguments=([1, 2, 3],))]
        )
        cost = report.results[0].cost
        assert cost is not None
        assert set(cost.loop_iterations) == static_ids

    def test_loops_inside_if_and_foreach(self):
        table = loops_of("""
            void m(int[] a, boolean b) {
                if (b) {
                    for (int x : a) { }
                } else {
                    while (b) { b = false; }
                }
            }
        """)
        assert [l.kind for l in table["m"]] == ["foreach", "while"]

    def test_bound_classification(self):
        table = loops_of("""
            void m(int[] a, int n) {
                for (int i = 0; i < a.length; i++) { }
                for (int i = 0; i < 10; i++) { }
                while (n > 0) { n /= 10; }
                for (int x : a) { }
            }
        """)
        assert [l.bound for l in table["m"]] == [
            BOUND_INPUT_LINEAR, BOUND_CONSTANT, BOUND_DATA_DEPENDENT,
            BOUND_INPUT_LINEAR,
        ]

    def test_while_loop_variable(self):
        table = loops_of("""
            void m(int n) {
                int i = 0;
                while (i < n) { i++; }
            }
        """)
        assert table["m"][0].loop_var == "i"


class TestNestedLoopLookup:
    SLOW = """
        int[] reorder(int[] a, int[] order) {
            int[] out = new int[a.length];
            for (int i = 0; i < a.length; i++) {
                for (int j = 0; j < order.length; j++) {
                    if (order[j] == i) { out[i] = a[j]; }
                }
            }
            return out;
        }
    """

    def test_positive(self):
        findings = findings_of(self.SLOW)
        assert [f.pattern_id for f in findings] == ["nested-loop-lookup"]
        finding = findings[0]
        assert finding.loop.loop_id == "reorder:for@1"
        assert finding.gamma["outer_var"] == "i"
        assert finding.gamma["inner_var"] == "j"
        assert finding.gamma["probe"] == "order[j] == i"

    def test_equals_call_probe(self):
        assert pattern_ids("""
            void m(String[] a, String[] b) {
                for (int i = 0; i < a.length; i++) {
                    for (int j = 0; j < b.length; j++) {
                        if (b[j].equals(a[i])) { System.out.println(j); }
                    }
                }
            }
        """) == ["nested-loop-lookup"]

    def test_negative_independent_nested_loops(self):
        # a legitimate O(n*m) pairwise computation: no equality probe
        assert pattern_ids("""
            int m(int[] a, int[] b) {
                int t = 0;
                for (int i = 0; i < a.length; i++) {
                    for (int j = 0; j < b.length; j++) {
                        t += a[i] * b[j];
                    }
                }
                return t;
            }
        """) == []

    def test_negative_single_loop_with_equality(self):
        assert pattern_ids("""
            int find(int[] a, int k) {
                for (int i = 0; i < a.length; i++) {
                    if (a[i] == k) { return i; }
                }
                return -1;
            }
        """) == []


class TestLoopInvariantRecomputation:
    SLOW = """
        int evaluate(int[] c, int x) {
            int total = 0;
            for (int i = 0; i < c.length; i++) {
                int p = 1;
                for (int k = 0; k < i; k++) { p = p * x; }
                total = total + c[i] * p;
            }
            return total;
        }
    """

    def test_positive(self):
        findings = findings_of(self.SLOW)
        assert [f.pattern_id for f in findings] == [
            "loop-invariant-recomputation"
        ]
        assert findings[0].gamma["var"] == "p"
        assert findings[0].loop.loop_id == "evaluate:for@1"

    def test_negative_incremental_update(self):
        # the fast fix: p carried across outer iterations, no inner loop
        assert pattern_ids("""
            int evaluate(int[] c, int x) {
                int total = 0;
                int p = 1;
                for (int i = 0; i < c.length; i++) {
                    total = total + c[i] * p;
                    p = p * x;
                }
                return total;
            }
        """) == []

    def test_negative_accumulator_not_reset(self):
        # inner loop writes a variable initialized *outside* the outer
        # loop: a running total, not a per-iteration recomputation
        assert pattern_ids("""
            int m(int[][] a) {
                int t = 0;
                for (int i = 0; i < a.length; i++) {
                    for (int j = 0; j < a[i].length; j++) { t += a[i][j]; }
                }
                return t;
            }
        """) == []


class TestStringConcatInLoop:
    def test_positive_plus_equals(self):
        findings = findings_of("""
            String join(int[] a) {
                String s = "";
                for (int i = 0; i < a.length; i++) { s += a[i] + ","; }
                return s;
            }
        """)
        assert [f.pattern_id for f in findings] == ["string-concat-in-loop"]
        assert findings[0].gamma == {"var": "s", "kind": "for"}

    def test_positive_self_append(self):
        assert pattern_ids("""
            String m(int n) {
                String s = "";
                int i = 0;
                while (i < n) { s = s + "x"; i++; }
                return s;
            }
        """) == ["string-concat-in-loop"]

    def test_negative_declared_inside_loop(self):
        # a fresh per-iteration string never accumulates
        assert pattern_ids("""
            void m(int[] a) {
                for (int i = 0; i < a.length; i++) {
                    String s = "v=" + a[i];
                    System.out.println(s);
                }
            }
        """) == []

    def test_negative_int_accumulator(self):
        assert pattern_ids("""
            int m(int[] a) {
                int s = 0;
                for (int i = 0; i < a.length; i++) { s += a[i]; }
                return s;
            }
        """) == []


class TestRenderExpr:
    """Snippets and ``{probe}`` show the expression the student wrote."""

    @pytest.mark.parametrize("source, rendered", [
        ("a[j] == i", "a[j] == i"),
        ("b[j].equals(a[i])", "b[j].equals(a[i])"),
        ("s += x", "s += x"),
        ("x > 0 ? x : -x", "x > 0 ? x : -x"),
    ])
    def test_round_trips_common_shapes(self, source, rendered):
        assert print_expression(parse_expression(source)) == rendered

    def test_probe_keeps_parentheses(self):
        findings = findings_of("""
            int m(int[] a, int n) {
                int c = 0;
                for (int i = 0; i < n; i++) {
                    for (int j = 0; j < n; j++) {
                        if (a[(j + 1) % n] == a[i] * (i - j)) { c++; }
                    }
                }
                return c;
            }
        """)
        assert [f.pattern_id for f in findings] == ["nested-loop-lookup"]
        probe = "a[(j + 1) % n] == a[i] * (i - j)"
        assert findings[0].gamma["probe"] == probe
        assert findings[0].snippet == probe

    def test_snippet_keeps_parentheses_escapes_and_suffix(self):
        findings = findings_of(r"""
            String m(int[] a) {
                String s = "";
                for (int i = 0; i < a.length; i++) {
                    s = s + (a[i] - 1) * 2 + "\n" + 10L;
                }
                return s;
            }
        """)
        assert [f.pattern_id for f in findings] == ["string-concat-in-loop"]
        # the literal holds a newline; the snippet shows its escape
        assert findings[0].snippet == r's = s + (a[i] - 1) * 2 + "\n" + 10L'


class TestCleanKnowledgeBase:
    def test_references_have_no_perf_findings(self, assignment):
        """The clean-KB gate: every reference solution is finding-free."""
        for reference in assignment.reference_solutions:
            assert detect_patterns(parse_submission(reference)) == []
