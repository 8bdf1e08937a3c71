"""KB linter tests: the shipped KB is clean, seeded defects are caught.

The differential half builds minimal in-memory assignments, each
corrupted to trigger exactly one lint rule, and asserts the rule (and
only the expected rule) fires.
"""

from __future__ import annotations

from repro.analysis import (
    LINT_RULES,
    Severity,
    lint_assignment,
    lint_knowledge_base,
)
from repro.core.assignment import Assignment
from repro.kb.registry import all_assignment_names
from repro.matching.submission import ExpectedMethod
from repro.patterns.groups import PatternGroup, PatternVariant
from repro.patterns.model import (
    ContainmentConstraint,
    EqualityConstraint,
    Pattern,
    PatternNode,
)
from repro.patterns.template import ExprTemplate
from repro.pdg.graph import EdgeType, GraphEdge, NodeType


def tmpl(source, variables=()):
    return ExprTemplate(source, frozenset(variables))


def make_node(node_id, type=NodeType.ASSIGN, source="v = 1",
              variables=("v",), **kwargs):
    return PatternNode(
        node_id=node_id, type=type, expr=tmpl(source, variables), **kwargs
    )


def make_pattern(name="p", **kwargs):
    kwargs.setdefault(
        "nodes", [make_node(0), make_node(1, source="v \\+ 1")]
    )
    kwargs.setdefault("edges", [GraphEdge(0, 1, EdgeType.DATA)])
    return Pattern(name=name, description="test pattern", **kwargs)


def make_assignment(patterns=None, constraints=None):
    method = ExpectedMethod(
        name="solve",
        patterns=patterns if patterns is not None else [(make_pattern(), 1)],
        constraints=constraints or [],
    )
    return Assignment(
        name="lint-test", title="lint test", statement="",
        expected_methods=[method],
    )


def rules_of(findings):
    return {finding.rule for finding in findings}


class TestCleanKnowledgeBase:
    def test_shipped_kb_lints_clean(self):
        report = lint_knowledge_base()
        assert report.assignments == all_assignment_names()
        assert report.findings == []
        assert report.ok
        assert report.worst_rank() == -1

    def test_report_shape(self):
        payload = lint_knowledge_base().to_dict()
        assert payload["ok"] is True
        assert len(payload["assignments"]) == 12
        assert payload["counts"] == {"error": 0, "warning": 0, "info": 0}
        assert payload["findings"] == []


class TestSeededDefects:
    def test_clean_synthetic_assignment_passes(self):
        assert lint_assignment(make_assignment()) == []

    def test_dangling_pattern_reference(self):
        bad = make_assignment(constraints=[
            EqualityConstraint(
                name="c", pattern_i="p", node_i=0,
                pattern_j="ghost", node_j=0,
            ),
        ])
        findings = lint_assignment(bad)
        assert rules_of(findings) == {"dangling-pattern-reference"}
        assert "'ghost'" in findings[0].message
        assert findings[0].severity is Severity.ERROR

    def test_duplicate_pattern(self):
        bad = make_assignment(patterns=[
            (make_pattern("p"), 1), (make_pattern("p"), 1),
        ])
        assert rules_of(lint_assignment(bad)) == {"duplicate-pattern"}

    def test_duplicate_through_group_variant(self):
        group = PatternGroup([
            PatternVariant(make_pattern("p")),
            PatternVariant(make_pattern("q"), node_map={0: 0, 1: 1}),
        ])
        bad = make_assignment(patterns=[(group, 1), (make_pattern("q"), 1)])
        assert rules_of(lint_assignment(bad)) == {"duplicate-pattern"}

    def test_disconnected_pattern(self):
        # two nodes, no edge, disjoint variables: nothing correlates them
        orphan = make_pattern("p", nodes=[
            make_node(0, source="a = 1", variables=("a",)),
            make_node(1, source="b = 2", variables=("b",)),
        ], edges=[])
        findings = lint_assignment(make_assignment([(orphan, 1)]))
        assert rules_of(findings) == {"disconnected-pattern"}
        assert "u1" in findings[0].message

    def test_shared_variable_counts_as_connected(self):
        # edge-disjoint but correlated through γ, like record-position-read
        linked = make_pattern("p", nodes=[
            make_node(0, source="a = 1", variables=("a",)),
            make_node(1, source="a \\+ 2", variables=("a",)),
        ], edges=[])
        assert lint_assignment(make_assignment([(linked, 1)])) == []

    def test_invalid_node_expression(self):
        bad_node = make_pattern("p", nodes=[
            make_node(0, source="(", variables=()),
            make_node(1),
        ])
        findings = lint_assignment(make_assignment([(bad_node, 1)]))
        assert rules_of(findings) == {"invalid-node-expression"}

    def test_invalid_containment_expression(self):
        bad = make_assignment(constraints=[
            ContainmentConstraint(
                name="c", pattern="p", node=0,
                expr=tmpl("[unclosed"), supporting=(),
            ),
        ])
        assert "invalid-node-expression" in rules_of(lint_assignment(bad))

    def test_per_binding_template_is_a_warning(self):
        # ``^`` keeps the template off the one-regex form: correct, but
        # every new binding of ``v`` compiles a regex
        slow = make_pattern("p", nodes=[
            make_node(0, source="^v = 1"), make_node(1),
        ])
        findings = lint_assignment(make_assignment([(slow, 1)]))
        assert rules_of(findings) == {"per-binding-template"}
        assert [f.severity for f in findings] == [Severity.WARNING]
        assert findings[0].location.endswith("node u0 (expr)")

    def test_invalid_template_is_not_also_a_per_binding_warning(self):
        bad = make_pattern("p", nodes=[
            make_node(0, source="^v = ("), make_node(1),
        ])
        findings = lint_assignment(make_assignment([(bad, 1)]))
        assert rules_of(findings) == {"invalid-node-expression"}

    def test_unbound_feedback_placeholder_in_pattern(self):
        bad_pattern = make_pattern(
            "p", feedback_missing="initialize {ghost} first"
        )
        findings = lint_assignment(make_assignment([(bad_pattern, 1)]))
        assert rules_of(findings) == {"unbound-feedback-placeholder"}
        assert "{ghost}" in findings[0].message

    def test_unbound_feedback_placeholder_in_constraint(self):
        bad = make_assignment(constraints=[
            EqualityConstraint(
                name="c", pattern_i="p", node_i=0,
                pattern_j="p", node_j=1,
                feedback_incorrect="expected {ghost} here",
            ),
        ])
        assert rules_of(lint_assignment(bad)) == {
            "unbound-feedback-placeholder"
        }

    def test_bound_placeholder_is_fine(self):
        good = make_pattern("p", feedback_missing="initialize {v} first")
        assert lint_assignment(make_assignment([(good, 1)])) == []

    def test_unmatchable_ctrl_out_of_assign(self):
        bad = make_pattern("p", edges=[GraphEdge(0, 1, EdgeType.CTRL)])
        findings = lint_assignment(make_assignment([(bad, 1)]))
        assert rules_of(findings) == {"unmatchable-pattern"}
        assert "Ctrl" in findings[0].message

    def test_unmatchable_data_out_of_return(self):
        bad = make_pattern("p", nodes=[
            make_node(0, type=NodeType.RETURN, source="return v"),
            make_node(1),
        ])
        assert rules_of(lint_assignment(make_assignment([(bad, 1)]))) == {
            "unmatchable-pattern"
        }

    def test_unmatchable_self_loop(self):
        bad = make_pattern("p", edges=[GraphEdge(0, 0, EdgeType.DATA)])
        findings = lint_assignment(make_assignment([(bad, 1)]))
        assert "unmatchable-pattern" in rules_of(findings)

    def test_unmatchable_two_control_parents(self):
        three = make_pattern("p", nodes=[
            make_node(0, type=NodeType.COND, source="v > 0"),
            make_node(1, type=NodeType.COND, source="v < 9"),
            make_node(2),
        ], edges=[
            GraphEdge(0, 2, EdgeType.CTRL),
            GraphEdge(1, 2, EdgeType.CTRL),
        ])
        findings = lint_assignment(make_assignment([(three, 1)]))
        assert rules_of(findings) == {"unmatchable-pattern"}
        assert "control parent" in findings[0].message

    def test_empty_pattern_is_unmatchable(self):
        empty = Pattern(name="p", description="empty")
        findings = lint_assignment(make_assignment([(empty, 1)]))
        # a node-less pattern is also trivially "disconnected-free":
        # only the unmatchable rule speaks up
        assert rules_of(findings) == {"unmatchable-pattern"}


class TestLoadErrors:
    def test_unknown_assignment_reports_load_error(self):
        report = lint_knowledge_base(["does-not-exist"])
        assert not report.ok
        assert [f.rule for f in report.findings] == ["kb-load-error"]
        assert "does-not-exist" in report.findings[0].message

    def test_broken_module_names_module_and_rest_still_lints(self, monkeypatch):
        from repro.kb import registry

        monkeypatch.setitem(registry._MODULES, "broken", "no_such_module")
        report = lint_knowledge_base(["broken", "assignment1"])
        assert report.assignments == ["broken", "assignment1"]
        load_errors = [f for f in report.findings if f.rule == "kb-load-error"]
        assert len(load_errors) == 1
        assert "repro.kb.assignments.no_such_module" in load_errors[0].message
        # assignment1 still linted (cleanly) after the failure
        assert [f for f in report.findings if f.assignment == "assignment1"] == []


class TestReportRendering:
    def test_render_lists_findings(self):
        report = lint_knowledge_base(["does-not-exist"])
        text = report.render()
        assert "1 finding(s)" in text
        assert "kb-load-error" in text

    def test_rule_registry_covers_documented_rules(self):
        ids = [rule_id for rule_id, _runner in LINT_RULES]
        assert ids == [
            "dangling-pattern-reference",
            "duplicate-pattern",
            "disconnected-pattern",
            "invalid-node-expression",
            "per-binding-template",
            "unbound-feedback-placeholder",
            "unmatchable-pattern",
            "dangling-cost-shape-reference",
        ]
