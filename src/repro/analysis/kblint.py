"""Static validation of the pattern/constraint knowledge base.

Everything the grading pipeline does rests on the hand-authored
knowledge base: 12 assignments referencing a shared library of patterns
and per-assignment constraints.  A typo there does not crash — it
silently stops a pattern from ever matching, which surfaces as wrong
feedback in production.  The linter makes those defects loud and
machine-readable *before* deployment; ``repro lint-kb`` runs it as a CI
gate.

Rules (all findings carry a rule id, severity, and location):

``kb-load-error``
    An assignment module failed to import or build; the finding names
    the offending module (see
    :func:`repro.kb.registry.iter_assignments`).
``dangling-pattern-reference``
    A constraint references a pattern name absent from its expected
    method's pattern list.
``duplicate-pattern``
    The same pattern name appears twice within one expected method
    (directly or shadowed through a group variant), making constraint
    references ambiguous.
``disconnected-pattern``
    A pattern (or group variant) with two or more nodes where some
    component shares neither an edge nor a variable with the rest:
    nothing correlates the component with the rest of the pattern, so
    it matches independently — a strong sign of a missing edge or a
    mistyped variable name.
``invalid-node-expression``
    A node expression (or a containment constraint's expression) whose
    template cannot be compiled by the matcher's own regex machinery
    once variables are bound — it would raise at match time, on the
    first submission that reaches it.
``per-binding-template``
    A warning: a node or containment expression whose literal text uses
    a construct the matcher's one compiled regex per template cannot
    express (see :mod:`repro.patterns.template`), so matching it
    compiles a new regex for every new binding of its variables —
    slow on renamed submissions, but still correct.
``unbound-feedback-placeholder``
    A feedback template references ``{name}`` where ``name`` is not a
    variable of the pattern (for pattern/node feedback) or of any
    referenced pattern (for constraint feedback); the student would see
    the raw ``{name}`` in their feedback.
``unmatchable-pattern``
    The pattern demands structure no builder-produced EPDG can have —
    a ``Ctrl`` edge out of a non-``Cond`` node, two control parents,
    data flowing out of a ``Break``/``Return`` (they define nothing)
    or into a ``Break``/``Decl`` (they use nothing / are created
    edge-free), a self-loop, or no nodes at all.  Such a pattern can
    never embed, so its feedback can never fire.
``dangling-cost-shape-reference``
    An assignment's :class:`~repro.analysis.perf.model.PerfSpec` names
    an entry method absent from its expected methods, a shape outside
    :data:`~repro.analysis.perf.model.DECLARABLE_SHAPES`, or a size
    metric outside :data:`~repro.analysis.perf.model.SIZE_METRICS` —
    the declaration would silently never drive an escalation.
``unbound-perf-placeholder``
    A perf anti-pattern's feedback template (advisory or confirmed)
    references a placeholder its detector never binds; students would
    see the raw ``{name}``.  Checked once per lint run over
    :data:`~repro.analysis.perf.model.PERF_PATTERNS`, independent of
    any assignment.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Iterable, Iterator

from repro.analysis.diagnostics import Severity
from repro.analysis.perf.model import (
    DECLARABLE_SHAPES,
    PERF_PATTERNS,
    SIZE_METRICS,
)
from repro.errors import PatternDefinitionError
from repro.patterns.groups import PatternGroup
from repro.patterns.model import (
    ContainmentConstraint,
    Pattern,
)
from repro.patterns.template import ExprTemplate
from repro.pdg.graph import EdgeType, NodeType

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (core -> analysis)
    from repro.core.assignment import Assignment
    from repro.matching.submission import ExpectedMethod

#: ``{placeholder}`` references in feedback text — the same syntax
#: :func:`repro.patterns.template.render_feedback` substitutes.
_PLACEHOLDER = re.compile(r"\{([A-Za-z_$][A-Za-z0-9_$]*)\}")

#: Node types whose *outgoing* Ctrl edges the builder can produce.
#: Untyped pattern nodes may stand for any graph node, so they pass.
_CTRL_SOURCES = frozenset({NodeType.COND, NodeType.UNTYPED})

#: Node types that never define a variable in a builder EPDG, so they
#: can never source a Data edge.
_NEVER_DEFINES = frozenset({NodeType.BREAK, NodeType.RETURN})


@dataclass(frozen=True)
class LintFinding:
    """One knowledge-base defect found by one lint rule."""

    rule: str
    severity: Severity
    assignment: str
    #: Where in the assignment: ``method <m>``, ``pattern <p>``, ...
    location: str
    message: str

    def to_dict(self) -> dict[str, Any]:
        return {
            "rule": self.rule,
            "severity": str(self.severity),
            "assignment": self.assignment,
            "location": self.location,
            "message": self.message,
        }

    def render(self) -> str:
        return (
            f"[{self.severity}] {self.assignment} :: {self.location}: "
            f"{self.message} ({self.rule})"
        )


@dataclass
class LintReport:
    """All findings of one lint run, plus what was actually linted."""

    findings: list[LintFinding] = field(default_factory=list)
    assignments: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """True when no finding reaches ``error`` severity."""
        return not any(
            finding.severity is Severity.ERROR for finding in self.findings
        )

    def counts(self) -> dict[str, int]:
        by_severity = {str(s): 0 for s in Severity}
        for finding in self.findings:
            by_severity[str(finding.severity)] += 1
        return by_severity

    def worst_rank(self) -> int:
        """Highest severity rank present (-1 when there are no findings)."""
        return max(
            (finding.severity.rank for finding in self.findings), default=-1
        )

    def to_dict(self) -> dict[str, Any]:
        return {
            "ok": self.ok,
            "assignments": list(self.assignments),
            "counts": self.counts(),
            "findings": [finding.to_dict() for finding in self.findings],
        }

    def render(self) -> str:
        lines = [
            f"Linted {len(self.assignments)} assignment(s): "
            f"{len(self.findings)} finding(s)."
        ]
        lines.extend("  " + finding.render() for finding in self.findings)
        return "\n".join(lines)


# ----------------------------------------------------------------------
# helpers


def _variants(entry: "Pattern | PatternGroup") -> list[Pattern]:
    if isinstance(entry, PatternGroup):
        return [variant.pattern for variant in entry.variants]
    return [entry]


def _method_pattern_names(method: "ExpectedMethod") -> set[str]:
    return {pattern.name for pattern, _count in method.patterns}


def _resolved_variables(
    method: "ExpectedMethod", names: Iterable[str]
) -> set[str]:
    """Union of the variables of every variant of the named patterns."""
    wanted = set(names)
    variables: set[str] = set()
    for entry, _count in method.patterns:
        if entry.name in wanted:
            for variant in _variants(entry):
                variables |= variant.variables
    return variables


def _placeholders(text: str) -> set[str]:
    return set(_PLACEHOLDER.findall(text))


# ----------------------------------------------------------------------
# rules (each yields findings for one assignment)

RuleRunner = Callable[["Assignment"], "Iterator[LintFinding]"]


def _rule_dangling_reference(
    assignment: "Assignment",
) -> Iterator[LintFinding]:
    for method in assignment.expected_methods:
        known = _method_pattern_names(method)
        for constraint in method.constraints:
            for name in constraint.referenced_patterns():
                if name not in known:
                    yield LintFinding(
                        rule="dangling-pattern-reference",
                        severity=Severity.ERROR,
                        assignment=assignment.name,
                        location=(
                            f"method {method.name} / "
                            f"constraint {constraint.name}"
                        ),
                        message=(
                            f"constraint references pattern {name!r}, which "
                            f"is not among the method's patterns "
                            f"{sorted(known)}"
                        ),
                    )


def _rule_duplicate_pattern(
    assignment: "Assignment",
) -> Iterator[LintFinding]:
    for method in assignment.expected_methods:
        occurrences: dict[str, int] = {}
        for entry, _count in method.patterns:
            for pattern in _variants(entry):
                occurrences[pattern.name] = (
                    occurrences.get(pattern.name, 0) + 1
                )
        for name, times in occurrences.items():
            if times > 1:
                yield LintFinding(
                    rule="duplicate-pattern",
                    severity=Severity.ERROR,
                    assignment=assignment.name,
                    location=f"method {method.name}",
                    message=(
                        f"pattern name {name!r} appears {times} times "
                        "(directly or through group variants); constraint "
                        "references to it are ambiguous"
                    ),
                )


def _rule_disconnected_pattern(
    assignment: "Assignment",
) -> Iterator[LintFinding]:
    for method in assignment.expected_methods:
        for entry, _count in method.patterns:
            for pattern in _variants(entry):
                if len(pattern.nodes) < 2:
                    continue
                unreachable = _disconnected_nodes(pattern)
                if unreachable:
                    names = ", ".join(f"u{i}" for i in sorted(unreachable))
                    yield LintFinding(
                        rule="disconnected-pattern",
                        severity=Severity.ERROR,
                        assignment=assignment.name,
                        location=(
                            f"method {method.name} / pattern {pattern.name}"
                        ),
                        message=(
                            f"nodes {names} share no edge and no variable "
                            "with the rest of the pattern, so nothing "
                            "correlates their matches — almost certainly a "
                            "missing edge or a mistyped variable name"
                        ),
                    )


def _disconnected_nodes(pattern: Pattern) -> set[int]:
    """Nodes not reachable from u0 via edges *or* shared variables.

    Sharing a pattern variable correlates two nodes through γ even
    without an edge between them (the knowledge base uses this for
    patterns like ``record-position-read``, whose five cond/read pairs
    are edge-disjoint but all bind ``ri``), so only components that
    share neither an edge nor a variable with the rest are flagged.
    """
    adjacency: dict[int, set[int]] = {
        node.node_id: set() for node in pattern.nodes
    }
    for edge in pattern.edges:
        adjacency[edge.source].add(edge.target)
        adjacency[edge.target].add(edge.source)
    by_variable: dict[str, list[int]] = {}
    for node in pattern.nodes:
        for variable in node.variables:
            by_variable.setdefault(variable, []).append(node.node_id)
    for sharing in by_variable.values():
        first = sharing[0]
        for other in sharing[1:]:
            adjacency[first].add(other)
            adjacency[other].add(first)
    visited: set[int] = set()
    frontier = [0]
    while frontier:
        node_id = frontier.pop()
        if node_id in visited:
            continue
        visited.add(node_id)
        frontier.extend(adjacency[node_id] - visited)
    return set(adjacency) - visited


def _expression_templates(
    assignment: "Assignment",
) -> Iterator[tuple[str, ExprTemplate]]:
    """Every node and containment-constraint template, with its location."""
    for method in assignment.expected_methods:
        for entry, _count in method.patterns:
            for pattern in _variants(entry):
                for node in pattern.nodes:
                    where = (
                        f"method {method.name} / pattern {pattern.name} / "
                        f"node {node.name}"
                    )
                    yield f"{where} (expr)", node.expr
                    if node.approx is not None:
                        yield f"{where} (approx)", node.approx
        for method_constraint in method.constraints:
            if isinstance(method_constraint, ContainmentConstraint):
                yield (
                    f"method {method.name} / constraint "
                    f"{method_constraint.name} (expr)",
                    method_constraint.expr,
                )


def _rule_invalid_expression(
    assignment: "Assignment",
) -> Iterator[LintFinding]:
    for location, template in _expression_templates(assignment):
        problem = _template_problem(template)
        if problem is not None:
            yield LintFinding(
                rule="invalid-node-expression",
                severity=Severity.ERROR,
                assignment=assignment.name,
                location=location,
                message=problem,
            )


def _template_problem(template: ExprTemplate) -> str | None:
    """Why ``template`` would fail at match time, or ``None`` if fine.

    Exercises exactly the matcher's own path: bind every declared
    variable to a plain identifier and match.  A template with a one
    regex was compiled when it was built; any other renders and compiles
    its regex here, and whether that compiles does not depend on γ.
    """
    gamma = dict.fromkeys(template.variables, "x0")
    try:
        template.matches("", gamma)
    except PatternDefinitionError as error:
        return (
            f"expression template {template.source!r} cannot be compiled: "
            f"{error}"
        )
    return None


def _rule_per_binding_template(
    assignment: "Assignment",
) -> Iterator[LintFinding]:
    for location, template in _expression_templates(assignment):
        if template.renders_per_binding and _template_problem(template) is None:
            yield LintFinding(
                rule="per-binding-template",
                severity=Severity.WARNING,
                assignment=assignment.name,
                location=location,
                message=(
                    f"expression template {template.source!r} uses a "
                    "construct the one-regex form cannot express (^, \\A, "
                    "\\B, a lookbehind, (?P, (?(, \\1-\\9 or an inline "
                    "flag), so the matcher compiles a new regex for every "
                    "new binding of its variables"
                ),
            )


def _rule_unbound_placeholder(
    assignment: "Assignment",
) -> Iterator[LintFinding]:
    for method in assignment.expected_methods:
        for entry, _count in method.patterns:
            for pattern in _variants(entry):
                scope = set(pattern.variables)
                texts = [
                    ("feedback_present", pattern.feedback_present),
                    ("feedback_missing", pattern.feedback_missing),
                ]
                for node in pattern.nodes:
                    texts.append(
                        (f"node {node.name} feedback_correct",
                         node.feedback_correct)
                    )
                    texts.append(
                        (f"node {node.name} feedback_incorrect",
                         node.feedback_incorrect)
                    )
                for label, text in texts:
                    for name in sorted(_placeholders(text) - scope):
                        yield LintFinding(
                            rule="unbound-feedback-placeholder",
                            severity=Severity.ERROR,
                            assignment=assignment.name,
                            location=(
                                f"method {method.name} / pattern "
                                f"{pattern.name} / {label}"
                            ),
                            message=(
                                f"feedback references {{{name}}}, but the "
                                f"pattern only binds "
                                f"{sorted(pattern.variables)}; the student "
                                "would see the raw placeholder"
                            ),
                        )
        for constraint in method.constraints:
            scope = _resolved_variables(
                method, constraint.referenced_patterns()
            )
            if not scope and not _method_pattern_names(method).intersection(
                constraint.referenced_patterns()
            ):
                # every referenced pattern is dangling; rule
                # dangling-pattern-reference already reports it
                continue
            for label, text in (
                ("feedback_correct", constraint.feedback_correct),
                ("feedback_incorrect", constraint.feedback_incorrect),
            ):
                for name in sorted(_placeholders(text) - scope):
                    yield LintFinding(
                        rule="unbound-feedback-placeholder",
                        severity=Severity.ERROR,
                        assignment=assignment.name,
                        location=(
                            f"method {method.name} / constraint "
                            f"{constraint.name} / {label}"
                        ),
                        message=(
                            f"feedback references {{{name}}}, which none of "
                            f"the referenced patterns "
                            f"{sorted(set(constraint.referenced_patterns()))} "
                            "binds"
                        ),
                    )


def _rule_unmatchable_pattern(
    assignment: "Assignment",
) -> Iterator[LintFinding]:
    for method in assignment.expected_methods:
        for entry, _count in method.patterns:
            for pattern in _variants(entry):
                location = f"method {method.name} / pattern {pattern.name}"
                for problem in _structural_problems(pattern):
                    yield LintFinding(
                        rule="unmatchable-pattern",
                        severity=Severity.ERROR,
                        assignment=assignment.name,
                        location=location,
                        message=problem,
                    )


def _structural_problems(pattern: Pattern) -> Iterator[str]:
    """Structure demands no builder-produced EPDG can ever satisfy."""
    if not pattern.nodes:
        yield "pattern has no nodes, so it can never match anything"
        return
    in_ctrl: dict[int, int] = {}
    for edge in pattern.edges:
        source = pattern.node(edge.source)
        target = pattern.node(edge.target)
        if edge.source == edge.target:
            yield (
                f"edge {edge} is a self-loop; builder EPDGs never connect "
                "a node to itself"
            )
            continue
        if edge.type is EdgeType.CTRL:
            in_ctrl[edge.target] = in_ctrl.get(edge.target, 0) + 1
            if source.type not in _CTRL_SOURCES:
                yield (
                    f"edge {edge} leaves a {source.type} node, but only "
                    "Cond nodes have outgoing Ctrl edges in builder EPDGs"
                )
        else:
            if source.type in _NEVER_DEFINES:
                yield (
                    f"edge {edge} carries data out of a {source.type} "
                    "node, but such nodes never define a variable"
                )
            if target.type is NodeType.BREAK:
                yield (
                    f"edge {edge} carries data into a Break node, but "
                    "break/continue use no variables"
                )
        if target.type is NodeType.DECL:
            yield (
                f"edge {edge} enters a Decl node, but parameter "
                "declarations are created before all other nodes and "
                "receive no edges"
            )
    for node_id, ctrl_parents in sorted(in_ctrl.items()):
        if ctrl_parents > 1:
            yield (
                f"node u{node_id} has {ctrl_parents} incoming Ctrl edges, "
                "but builder EPDGs give every node at most one control "
                "parent"
            )


def _rule_dangling_cost_shape(
    assignment: "Assignment",
) -> Iterator[LintFinding]:
    spec = assignment.perf
    if spec is None:
        return
    known = {method.name for method in assignment.expected_methods}
    for method_name, shape in spec.expected:
        if method_name not in known:
            yield LintFinding(
                rule="dangling-cost-shape-reference",
                severity=Severity.ERROR,
                assignment=assignment.name,
                location=f"perf / expected {method_name}",
                message=(
                    f"expected cost shape declared for {method_name!r}, "
                    f"which is not among the expected methods "
                    f"{sorted(known)}"
                ),
            )
        if shape not in DECLARABLE_SHAPES:
            yield LintFinding(
                rule="dangling-cost-shape-reference",
                severity=Severity.ERROR,
                assignment=assignment.name,
                location=f"perf / expected {method_name}",
                message=(
                    f"declared shape {shape!r} is not one of "
                    f"{sorted(DECLARABLE_SHAPES)}"
                ),
            )
    for method_name, _arguments in spec.ladder:
        if method_name not in known:
            yield LintFinding(
                rule="dangling-cost-shape-reference",
                severity=Severity.ERROR,
                assignment=assignment.name,
                location=f"perf / ladder {method_name}",
                message=(
                    f"probe ladder targets {method_name!r}, which is not "
                    f"among the expected methods {sorted(known)}"
                ),
            )
    if spec.size_metric not in SIZE_METRICS:
        yield LintFinding(
            rule="dangling-cost-shape-reference",
            severity=Severity.ERROR,
            assignment=assignment.name,
            location="perf / size_metric",
            message=(
                f"size metric {spec.size_metric!r} is not one of "
                f"{sorted(SIZE_METRICS)}"
            ),
        )


def lint_perf_patterns() -> list[LintFinding]:
    """Validate the global perf anti-pattern registry's templates.

    Assignment-independent (the registry is shared), so the driver runs
    it once per lint run rather than per assignment; findings carry the
    pseudo-assignment name ``(perf-patterns)``.
    """
    findings: list[LintFinding] = []
    for pattern in PERF_PATTERNS:
        scope = set(pattern.variables) | {"method"}
        for label, text in (
            ("advisory", pattern.advisory),
            ("confirmed", pattern.confirmed),
        ):
            for name in sorted(_placeholders(text) - scope):
                findings.append(
                    LintFinding(
                        rule="unbound-perf-placeholder",
                        severity=Severity.ERROR,
                        assignment="(perf-patterns)",
                        location=f"perf pattern {pattern.id} / {label}",
                        message=(
                            f"feedback references {{{name}}}, but the "
                            f"detector only binds "
                            f"{sorted(scope)}; the student would see "
                            "the raw placeholder"
                        ),
                    )
                )
    return findings


#: Registered rules, in report order.  ``kb-load-error`` findings are
#: produced by the driver (:func:`lint_knowledge_base`), not a rule.
LINT_RULES: tuple[tuple[str, RuleRunner], ...] = (
    ("dangling-pattern-reference", _rule_dangling_reference),
    ("duplicate-pattern", _rule_duplicate_pattern),
    ("disconnected-pattern", _rule_disconnected_pattern),
    ("invalid-node-expression", _rule_invalid_expression),
    ("per-binding-template", _rule_per_binding_template),
    ("unbound-feedback-placeholder", _rule_unbound_placeholder),
    ("unmatchable-pattern", _rule_unmatchable_pattern),
    ("dangling-cost-shape-reference", _rule_dangling_cost_shape),
)


def lint_assignment(assignment: "Assignment") -> list[LintFinding]:
    """Run every lint rule over one built assignment."""
    findings: list[LintFinding] = []
    for _rule_id, runner in LINT_RULES:
        findings.extend(runner(assignment))
    return findings


def lint_knowledge_base(
    names: Iterable[str] | None = None,
) -> LintReport:
    """Lint the registered knowledge base (all assignments by default).

    Assignments that fail to *load* — import error, build error — are
    reported as ``kb-load-error`` findings naming the offending module,
    and linting continues with the rest.
    """
    # imported lazily: repro.core.report imports repro.analysis, and the
    # registry pulls in repro.core — resolving the cycle at call time
    from repro.errors import KnowledgeBaseError
    from repro.kb import registry

    report = LintReport()
    report.findings.extend(lint_perf_patterns())
    selected = (
        list(names) if names is not None else registry.all_assignment_names()
    )
    for name in selected:
        report.assignments.append(name)
        try:
            assignment = registry.get_assignment(name)
        except KnowledgeBaseError as error:
            # the registry's loader names the offending module in the
            # error text; keep linting the remaining assignments
            report.findings.append(
                LintFinding(
                    rule="kb-load-error",
                    severity=Severity.ERROR,
                    assignment=name,
                    location="registry",
                    message=str(error),
                )
            )
            continue
        report.findings.extend(lint_assignment(assignment))
    return report
