"""Submission diagnostic checks: CFG + dataflow over the EPDG and AST.

Each :class:`Check` pairs a dataflow/CFG pass with a natural-language
message template; :func:`run_checks` runs the whole registry over every
graded method and returns the resulting
:class:`~repro.analysis.diagnostics.Diagnostic` list, timing each check
under an ``analysis.<check-id>`` phase and tallying
``analysis.<check-id>`` / ``analysis.diagnostics`` counters on the
ambient collector (so ``grade-batch --stats`` and the serving layer's
``/metrics`` expose them with zero plumbing).

Messages go through :func:`repro.patterns.template.render_feedback`,
the same template machinery pattern feedback uses, with a small γ per
finding (``{var}``, ``{method}``, ``{type}``, ``{kind}``).

The check registry is ordered and append-only in spirit:
:func:`analysis_fingerprint` digests the registered check ids into the
persistent result store's KB fingerprint, so adding/removing a check
invalidates stale cached reports that were graded without it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Mapping

from repro.analysis import cfg, dataflow
from repro.analysis.diagnostics import Diagnostic, Severity
from repro.instrumentation import count, phase
from repro.java import ast
from repro.patterns.template import render_feedback
from repro.pdg.graph import Epdg

#: Bump when check semantics change in a way that should invalidate
#: persisted grading results (see :func:`analysis_fingerprint`).
ANALYSIS_VERSION = 1


@dataclass(frozen=True)
class MethodAnalysis:
    """Everything one check needs about one graded method."""

    method: ast.MethodDecl
    graph: Epdg
    #: Names resolved outside the method body (class fields); the
    #: per-method EPDG cannot see their definitions.
    fields: frozenset[str]

    # several checks need a body traversal; walking the statement tree
    # once and sharing the list keeps the analysis phase cheap
    # (``cached_property`` writes via ``__dict__``, so frozen is fine)

    @cached_property
    def statements(self) -> list[ast.Statement]:
        return list(cfg.iter_statements(self.method.body))

    @cached_property
    def loops(self) -> "list[_Loop]":
        return [
            node
            for node in self.statements
            if isinstance(node, (ast.While, ast.DoWhile, ast.For))
        ]

    @cached_property
    def declared_locals(self) -> list[str]:
        return cfg.declared_locals(self.method, self.statements)


CheckRunner = Callable[["Check", MethodAnalysis], "list[Diagnostic]"]


@dataclass(frozen=True)
class Check:
    """One registered submission check."""

    id: str
    severity: Severity
    #: One-line description for the check catalogue (docs, tests).
    summary: str
    #: NL message template; rendered per finding with ``render_feedback``.
    template: str
    runner: CheckRunner

    def diagnostic(
        self,
        context: MethodAnalysis,
        gamma: Mapping[str, str],
        position: tuple[int, int] | None,
        snippet: str = "",
    ) -> Diagnostic:
        """Build one finding of this check with a rendered message."""
        bindings = {"method": context.method.name, **gamma}
        line, column = position if position is not None else (None, None)
        return Diagnostic(
            check=self.id,
            severity=self.severity,
            method=context.method.name,
            message=render_feedback(self.template, bindings),
            line=line,
            column=column,
            snippet=snippet,
        )


# ----------------------------------------------------------------------
# check implementations


def _check_use_before_init(
    check: Check, context: MethodAnalysis
) -> list[Diagnostic]:
    findings: list[Diagnostic] = []
    uses = dataflow.uninitialized_uses(context.graph, ignore=context.fields)
    for variable, node_id in sorted(uses.items(), key=lambda kv: kv[1]):
        position, _ = cfg.first_use_position(context.method, variable)
        findings.append(
            check.diagnostic(
                context,
                {"var": variable},
                position,
                snippet=context.graph.node(node_id).content,
            )
        )
    return findings


def _check_unused_variable(
    check: Check, context: MethodAnalysis
) -> list[Diagnostic]:
    findings: list[Diagnostic] = []
    read: set[str] = set()
    for node in context.graph.nodes:
        read.update(node.uses)
    unread = dataflow.unread_definitions(context.graph)
    for variable in context.declared_locals:
        # declared-but-never-touched locals produce no EPDG node at all,
        # so check the AST declaration list, not just graph definitions
        if variable in read or variable in context.fields:
            continue
        if variable not in unread and _graph_defines(context.graph, variable):
            continue
        position = cfg.first_definition_position(context.method, variable)
        findings.append(
            check.diagnostic(
                context, {"var": variable}, position, snippet=variable
            )
        )
    return findings


def _graph_defines(graph: Epdg, variable: str) -> bool:
    return any(variable in node.defines for node in graph.nodes)


def _check_unused_parameter(
    check: Check, context: MethodAnalysis
) -> list[Diagnostic]:
    position = cfg.position_of(context.method)
    return [
        check.diagnostic(context, {"var": name}, position, snippet=name)
        for name in dataflow.unused_parameters(context.graph)
    ]


def _check_unreachable(
    check: Check, context: MethodAnalysis
) -> list[Diagnostic]:
    findings: list[Diagnostic] = []
    for statement in cfg.unreachable_statements(context.method.body):
        findings.append(
            check.diagnostic(
                context,
                {},
                cfg.position_of(statement),
                snippet=type(statement).__name__.lower(),
            )
        )
    return findings


def _check_missing_return(
    check: Check, context: MethodAnalysis
) -> list[Diagnostic]:
    return_type = context.method.return_type
    if return_type.name == "void" and not return_type.is_array:
        return []
    if not cfg.completes_normally(context.method.body):
        return []
    return [
        check.diagnostic(
            context,
            {"type": str(return_type)},
            cfg.position_of(context.method),
            snippet=context.method.signature(),
        )
    ]


_Loop = ast.While | ast.DoWhile | ast.For


def _loop_kind(loop: _Loop) -> str:
    if isinstance(loop, ast.While):
        return "while"
    if isinstance(loop, ast.DoWhile):
        return "do-while"
    return "for"


def _loop_condition(loop: _Loop) -> ast.Expression | None:
    return loop.condition


def _check_infinite_loop(
    check: Check, context: MethodAnalysis
) -> list[Diagnostic]:
    findings: list[Diagnostic] = []
    for loop in context.loops:
        if not cfg.is_literal_true(_loop_condition(loop)):
            continue
        if cfg.loop_escapes(loop.body, via_return=True):
            continue
        findings.append(
            check.diagnostic(
                context,
                {"kind": _loop_kind(loop)},
                cfg.position_of(loop),
                snippet=_loop_kind(loop),
            )
        )
    return findings


def _check_loop_never_entered(
    check: Check, context: MethodAnalysis
) -> list[Diagnostic]:
    findings: list[Diagnostic] = []
    for loop in context.loops:
        # do-while always runs its body once, so only while/for qualify
        if isinstance(loop, ast.DoWhile):
            continue
        if cfg.is_literal_false(_loop_condition(loop)):
            findings.append(
                check.diagnostic(
                    context,
                    {"kind": _loop_kind(loop)},
                    cfg.position_of(loop),
                    snippet=_loop_kind(loop),
                )
            )
    return findings


# ----------------------------------------------------------------------
# registry


CHECKS: tuple[Check, ...] = (
    Check(
        id="use-before-init",
        severity=Severity.ERROR,
        summary="a variable is read before any statement assigns it",
        template=(
            "Variable '{var}' may be read before it has been given a "
            "value; initialize it before using it."
        ),
        runner=_check_use_before_init,
    ),
    Check(
        id="missing-return",
        severity=Severity.ERROR,
        summary="a non-void method can reach its end without returning",
        template=(
            "Method '{method}' should return a value of type {type}, but "
            "some execution path reaches the end of the method without a "
            "return statement."
        ),
        runner=_check_missing_return,
    ),
    Check(
        id="unreachable-code",
        severity=Severity.WARNING,
        summary="a statement can never execute",
        template=(
            "This statement can never run: the code before it always "
            "returns, breaks, or loops forever."
        ),
        runner=_check_unreachable,
    ),
    Check(
        id="infinite-loop",
        severity=Severity.WARNING,
        summary="a loop with a constant-true condition never exits",
        template=(
            "This {kind} loop can never terminate: its condition is "
            "always true and its body never breaks or returns."
        ),
        runner=_check_infinite_loop,
    ),
    Check(
        id="loop-never-entered",
        severity=Severity.WARNING,
        summary="a loop with a constant-false condition never runs",
        template=(
            "This {kind} loop never runs: its condition is always false."
        ),
        runner=_check_loop_never_entered,
    ),
    Check(
        id="unused-variable",
        severity=Severity.WARNING,
        summary="a local variable is written but never read",
        template=(
            "Variable '{var}' is declared in '{method}' but its value is "
            "never used."
        ),
        runner=_check_unused_variable,
    ),
    Check(
        id="unused-parameter",
        severity=Severity.INFO,
        summary="a parameter's caller-supplied value is never read",
        template=(
            "The value passed for parameter '{var}' of '{method}' is "
            "never used."
        ),
        runner=_check_unused_parameter,
    ),
)


def check_by_id(check_id: str) -> Check:
    """Look up a registered check (raises ``KeyError`` when unknown)."""
    for check in CHECKS:
        if check.id == check_id:
            return check
    raise KeyError(check_id)


def analysis_fingerprint() -> str:
    """Stable digest input describing the active check set.

    Folded into :func:`repro.core.storage.kb_fingerprint` so persisted
    reports graded under a different check set read as cache misses
    (they would be missing — or carrying stale — diagnostics).
    """
    ids = ",".join(check.id for check in CHECKS)
    return f"analysis-v{ANALYSIS_VERSION}:{ids}"


def field_names(unit: ast.CompilationUnit) -> frozenset[str]:
    """All class-field names declared anywhere in the submission."""
    names: set[str] = set()
    for cls in unit.classes:
        for declaration in cls.fields:
            for declarator in declaration.declarators:
                names.add(declarator.name)
    return frozenset(names)


def run_checks(
    unit: ast.CompilationUnit, graphs: Mapping[str, Epdg]
) -> list[Diagnostic]:
    """Run every registered check over every graded method.

    ``graphs`` is the frontend's method-name → EPDG mapping; methods
    without a graph (shadowed duplicates) are skipped, and for duplicate
    method names the *last* declaration is analyzed — mirroring
    :func:`repro.pdg.builder.extract_all_epdgs`, so the AST and the
    graph always describe the same method body.
    """
    count("analysis.runs")
    fields = field_names(unit)
    by_name: dict[str, ast.MethodDecl] = {}
    for method in unit.methods():
        by_name[method.name] = method  # later duplicate wins, like the builder
    diagnostics: list[Diagnostic] = []
    for name, method in by_name.items():
        graph = graphs.get(name)
        if graph is None:
            continue
        context = MethodAnalysis(method=method, graph=graph, fields=fields)
        for check in CHECKS:
            with phase(f"analysis.{check.id}"):
                found = check.runner(check, context)
            if found:
                count(f"analysis.{check.id}", len(found))
                diagnostics.extend(found)
    count("analysis.diagnostics", len(diagnostics))
    return diagnostics
