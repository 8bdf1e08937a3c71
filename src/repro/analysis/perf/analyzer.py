"""The ``perf`` engine phase: static findings × dynamic cost shapes.

:class:`PerfAnalyzer` is constructed once per engine (like the repair
channel) and invoked per submission after Algorithm 2 matching.  The
flow per submission:

1. **Static pass** — build the loop table and run the anti-pattern
   detectors (:mod:`repro.analysis.perf.static`).  Cheap, always runs.
2. **Dynamic pass** — only when the assignment declares a
   :class:`~repro.analysis.perf.model.PerfSpec` *and* the submission
   has loops *and* there is something to decide: a static finding to
   corroborate, or a loop structure that *could* exceed the declared
   shape (nesting of non-constant-bound loops deeper than the
   expectation allows).  A submission whose loop table statically
   bounds it at or below the declared shape skips the ladder outright
   (``perf.dynamic_skips``) — that is what keeps ``--perf`` batch
   overhead low on clean cohorts.  When the pass does run it replays
   the functional tests plus the spec's extra probe ladder under a
   reduced step budget, harvests
   :class:`~repro.interp.tracing.CostCounters`, and fits a
   :class:`~repro.analysis.perf.model.CostShape` per entry method
   (total steps) and per stable loop id (iterations).
3. **Escalation** — a static finding whose implicated loop's measured
   shape exceeds the declared expectation escalates to the pattern's
   ``escalated`` severity and renders the ``confirmed`` template;
   otherwise it stays advisory.  A measured entry-method shape that
   exceeds the declaration with *no* static finding to blame emits the
   dynamic-only ``cost-shape-mismatch`` advisory.

Counters (visible in ``--stats`` and ``/metrics``): ``perf.runs``,
``perf.static_findings``, ``perf.dynamic_skips``, ``perf.probe_runs``,
``perf.fits``, ``perf.escalations``, ``perf.shape_mismatches``,
``perf.findings``, plus the ``perf.static`` / ``perf.dynamic`` phase
timings.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Mapping

from repro.analysis.diagnostics import Diagnostic
from repro.analysis.perf.model import (
    COST_SHAPE_MISMATCH,
    SIZE_METRICS,
    CostShape,
    PerfSpec,
    get_perf_pattern,
    perf_analysis_fingerprint,
)
from repro.analysis.perf.shape import ShapeFit, fit_shape
from repro.analysis.perf.static import (
    BOUND_CONSTANT,
    LoopInfo,
    StaticFinding,
    detect_patterns,
    method_loops,
)
from repro.core.assignment import Assignment, FunctionalTest
from repro.instrumentation import count, phase
from repro.java import ast
from repro.patterns.template import render_feedback
from repro.testing.functional import run_tests

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.matching.submission import MatchOutcome
    from repro.pdg.graph import Epdg

#: Step budget for one probe run — deliberately far below the grading
#: budget: the probe ladder uses small inputs, so anything that blows
#: this is either non-terminating (first blown probe skips the rest)
#: or so slow the truncated counters still fit a superlinear shape.
DEFAULT_PROBE_BUDGET = 50_000


class PerfAnalyzer:
    """Per-assignment performance analyzer (one instance per engine).

    A :class:`~repro.core.profile.Channel`: findings go to the report's
    ``perf`` field, for correct and rejected submissions alike.
    """

    name = "perf"

    def __init__(
        self,
        assignment: Assignment,
        probe_budget: int = DEFAULT_PROBE_BUDGET,
    ) -> None:
        self.assignment = assignment
        self.spec: PerfSpec | None = assignment.perf
        self.probe_budget = probe_budget
        self._probes: list[FunctionalTest] | None = None

    @classmethod
    def fingerprint(cls, assignment: Assignment) -> str:
        """Store-scope token: the analyzer version and the declared spec.

        Changing a detector, a feedback template, an expected cost
        shape or the probe ladder orphans stale stored reports.
        """
        return f"perf:{perf_analysis_fingerprint()}:{assignment.perf!r}"

    def run(
        self,
        unit: ast.CompilationUnit | None,
        graphs: Mapping[str, Epdg],
        outcome: MatchOutcome,
    ) -> list[Diagnostic]:
        """Perf findings; correct-but-slow code is why the channel exists."""
        if unit is None:
            return []
        return self.analyze(unit)

    # ------------------------------------------------------------------

    def analyze(
        self, unit: ast.CompilationUnit, cache_key: str | None = None
    ) -> list[Diagnostic]:
        """Analyze one parsed submission; returns perf diagnostics."""
        count("perf.runs")
        with phase("perf.static"):
            table = method_loops(unit)
            findings = detect_patterns(unit, table)
        count("perf.static_findings", len(findings))

        spec = self.spec
        loop_fits: dict[tuple[str, str], ShapeFit] = {}
        entry_fits: dict[str, ShapeFit] = {}
        has_loops = any(table.values())
        if spec is not None and has_loops:
            if findings or self._could_exceed(table, spec):
                with phase("perf.dynamic"):
                    loop_fits, entry_fits = self._fit_shapes(
                        unit, spec, cache_key
                    )
            else:
                count("perf.dynamic_skips")

        diagnostics: list[Diagnostic] = []
        confirmed_entries: set[str] = set()
        for finding in findings:
            diagnostics.append(
                self._render_finding(
                    finding, spec, loop_fits, confirmed_entries
                )
            )

        if spec is not None:
            for entry, shape_name in spec.expected:
                if entry in confirmed_entries:
                    continue  # the escalated finding already explains it
                fit = entry_fits.get(entry)
                if fit is None:
                    continue
                expected = CostShape(shape_name)
                if fit.shape.exceeds(expected):
                    count("perf.shape_mismatches")
                    message = render_feedback(
                        COST_SHAPE_MISMATCH.advisory,
                        {
                            "method": entry,
                            "shape": str(fit.shape),
                            "expected": str(expected),
                        },
                    )
                    diagnostics.append(
                        Diagnostic(
                            check=f"perf.{COST_SHAPE_MISMATCH.id}",
                            severity=COST_SHAPE_MISMATCH.severity,
                            method=entry,
                            message=message,
                        )
                    )
        count("perf.findings", len(diagnostics))
        return diagnostics

    # ------------------------------------------------------------------

    @staticmethod
    def _static_potential(loops: list[LoopInfo]) -> CostShape:
        """Upper-bound cost shape implied by the loop table alone.

        Counts nesting of non-constant-bound loops: zero such levels
        can only be constant work, one is at most linear in the input,
        two or more may be quadratic (or worse — QUADRATIC exceeds
        every declarable shape, which is all the gate needs).
        """
        deepest = 0
        for loop in loops:
            depth = 0
            node: LoopInfo | None = loop
            while node is not None:
                if node.bound != BOUND_CONSTANT:
                    depth += 1
                node = node.parent
            deepest = max(deepest, depth)
        if deepest == 0:
            return CostShape.CONSTANT
        if deepest == 1:
            return CostShape.LINEAR
        return CostShape.QUADRATIC

    def _could_exceed(
        self, table: dict[str, list[LoopInfo]], spec: PerfSpec
    ) -> bool:
        """Whether the submission's loops could beat a declared shape.

        Entry methods may delegate to helpers, so the potential is
        taken over *every* method's loops — conservative (a helper the
        entry never calls still triggers the probe), never unsound.
        """
        potential = CostShape.CONSTANT
        for loops in table.values():
            candidate = self._static_potential(loops)
            if candidate.exceeds(potential):
                potential = candidate
        return any(
            potential.exceeds(CostShape(shape_name))
            for _, shape_name in spec.expected
        )

    def _render_finding(
        self,
        finding: StaticFinding,
        spec: PerfSpec | None,
        loop_fits: dict[tuple[str, str], ShapeFit],
        confirmed_entries: set[str],
    ) -> Diagnostic:
        pattern = get_perf_pattern(finding.pattern_id)
        gamma = dict(finding.gamma)
        severity = pattern.severity
        template = pattern.advisory
        if spec is not None:
            for entry, shape_name in spec.expected:
                expected = CostShape(shape_name)
                fit = loop_fits.get((entry, finding.loop.loop_id))
                if fit is not None and fit.shape.exceeds(expected):
                    count("perf.escalations")
                    confirmed_entries.add(entry)
                    severity = pattern.escalated
                    template = pattern.confirmed
                    gamma["shape"] = str(fit.shape)
                    gamma["expected"] = str(expected)
                    break
        line, column = (
            finding.position if finding.position is not None else (None, None)
        )
        return Diagnostic(
            check=f"perf.{pattern.id}",
            severity=severity,
            method=finding.method,
            message=render_feedback(
                template, {"method": finding.method, **gamma}
            ),
            line=line,
            column=column,
            snippet=finding.snippet or "",
        )

    # ------------------------------------------------------------------

    def _probe_tests(self, spec: PerfSpec) -> list[FunctionalTest]:
        """The input ladder: shipped tests plus expectation-free probes."""
        if self._probes is None:
            probes = list(self.assignment.tests)
            for method, arguments in spec.ladder:
                probes.append(
                    FunctionalTest(method=method, arguments=arguments)
                )
            self._probes = probes
        return self._probes

    def _fit_shapes(
        self,
        unit: ast.CompilationUnit,
        spec: PerfSpec,
        cache_key: str | None,
    ) -> tuple[dict[tuple[str, str], ShapeFit], dict[str, ShapeFit]]:
        """Replay the ladder, fit iteration and step shapes per entry."""
        metric = SIZE_METRICS.get(spec.size_metric)
        if metric is None:
            return {}, {}
        probes = self._probe_tests(spec)
        report = run_tests(
            unit, probes, step_budget=self.probe_budget, cache_key=cache_key
        )
        count("perf.probe_runs", len(report.results))
        loop_points: dict[tuple[str, str], list[tuple[float, float]]] = {}
        entry_points: dict[str, list[tuple[float, float]]] = {}
        for result in report.results:
            cost = result.cost
            if cost is None:
                continue
            size = metric(result.test.arguments)
            if size is None:
                continue
            entry = result.test.method
            entry_points.setdefault(entry, []).append(
                (size, float(cost.steps))
            )
            for loop_id, iterations in cost.loop_iterations.items():
                loop_points.setdefault((entry, loop_id), []).append(
                    (size, float(iterations))
                )
        loop_fits = {
            key: fit_shape(points) for key, points in loop_points.items()
        }
        entry_fits = {
            entry: fit_shape(points)
            for entry, points in entry_points.items()
        }
        count("perf.fits", len(loop_fits) + len(entry_fits))
        return loop_fits, entry_fits
