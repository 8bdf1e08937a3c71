"""The feedback engine: parse → EPDGs → Algorithm 2 → report."""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING, Sequence

from repro.analysis.checks import run_checks
from repro.core.assignment import Assignment
from repro.core.report import GradingReport
from repro.errors import JavaSyntaxError
from repro.instrumentation import count, phase
from repro.java import ast, parse_submission
from repro.matching.submission import match_graphs
from repro.pdg.builder import extract_all_epdgs
from repro.pdg.graph import Epdg

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.profile import Channel

#: A cached frontend result: the parsed unit plus its method EPDGs.
FrontendEntry = tuple[ast.CompilationUnit, "dict[str, Epdg]"]

#: Default capacity of the per-engine frontend cache (distinct sources).
FRONTEND_CACHE_SIZE = 512


class FeedbackEngine:
    """Grades submissions against one assignment.

    The engine's only mutable state is a bounded frontend cache mapping
    source text to its parse/EPDG-build result (guarded by a lock, so a
    single instance can be shared across threads).  MOOC cohorts are
    duplicate-heavy, so re-submissions and copy-paste variants skip the
    ``parse`` and ``epdg_build`` phases entirely; EPDGs are immutable
    after construction and the matcher only reads them, so sharing
    graphs between repeated grades is safe.

    Each pipeline phase (parse, EPDG build, matching) runs inside a
    :func:`repro.instrumentation.phase` block; when an ambient
    :class:`~repro.instrumentation.PhaseCollector` is installed (as the
    batch pipeline does), per-phase wall time is recorded at no cost to
    ordinary one-off ``grade`` calls.  Frontend cache traffic shows up as
    ``frontend.cache_hits`` / ``frontend.cache_misses`` counters.
    """

    def __init__(
        self,
        assignment: Assignment,
        frontend_cache_size: int = FRONTEND_CACHE_SIZE,
        channels: "Sequence[Channel]" = (),
    ):
        self.assignment = assignment
        #: Opt-in feedback channels (:mod:`repro.core.profile`), run in
        #: order after matching; each one's findings ride the report
        #: field named after it.  No channels — the default everywhere
        #: unless explicitly enabled — keeps output byte-identical to
        #: earlier revisions.
        self.channels = tuple(channels)
        self._frontend_cache_size = frontend_cache_size
        # source text -> (unit, EPDG dict), or the JavaSyntaxError text
        # for submissions that do not parse.  Insertion-ordered for FIFO
        # eviction; a plain dict keeps the hit path to a single lookup.
        # The AST rides along with the graphs because the analysis checks
        # need both views of the same submission; like the EPDGs, the AST
        # is never mutated after parsing, so sharing it is safe.
        self._frontend_cache: dict[str, FrontendEntry | str] = {}
        self._frontend_lock = threading.Lock()

    def grade(self, source: str) -> GradingReport:
        """Grade one submission given as Java source text."""
        result = self._frontend_entry(source)
        if isinstance(result, str):
            return GradingReport(
                assignment_name=self.assignment.name, parse_error=result
            )
        unit, graphs = result
        return self.grade_graphs(graphs, unit=unit)

    def frontend(self, source: str) -> dict[str, Epdg] | str:
        """Parse ``source`` and build its EPDGs, through the cache.

        Returns the method-name → :class:`Epdg` mapping, or — for a
        submission that does not parse — the formatted
        :class:`JavaSyntaxError` text (parse errors are cached and
        replayed like any other frontend result).
        """
        result = self._frontend_entry(source)
        if isinstance(result, str):
            return result
        return result[1]

    def frontend_entry(self, source: str) -> FrontendEntry | str:
        """Like :meth:`frontend` but also returning the parsed unit.

        Used by the cluster tests (:mod:`repro.cluster`) to obtain the
        graphs the graph-level fingerprint is defined over.
        """
        return self._frontend_entry(source)

    def _frontend_entry(self, source: str) -> FrontendEntry | str:
        """Like :meth:`frontend` but also returning the parsed unit."""
        if not self._frontend_cache_size:
            # Cache disabled (``frontend_cache_size=0``): the batch pipeline
            # and serve pool dedup at the report level already, and skipping
            # phases only in some workers would make per-phase counts
            # diverge across execution modes.
            try:
                with phase("parse"):
                    unit = parse_submission(source)
            except JavaSyntaxError as error:
                return str(error)
            with phase("epdg_build"):
                graphs = extract_all_epdgs(
                    unit, self.assignment.synthesize_else_conditions
                )
            return unit, graphs
        cached = self._frontend_cache.get(source)
        if cached is not None:
            count("frontend.cache_hits")
            return cached
        count("frontend.cache_misses")
        try:
            with phase("parse"):
                unit = parse_submission(source)
        except JavaSyntaxError as error:
            text = str(error)
            self._remember(source, text)
            return text
        with phase("epdg_build"):
            graphs = extract_all_epdgs(
                unit, self.assignment.synthesize_else_conditions
            )
        entry = (unit, graphs)
        self._remember(source, entry)
        return entry

    def _remember(self, source: str, result: FrontendEntry | str) -> None:
        with self._frontend_lock:
            cache = self._frontend_cache
            if source not in cache and len(cache) >= self._frontend_cache_size:
                cache.pop(next(iter(cache)))
            cache[source] = result

    def grade_graphs(
        self, graphs, unit: ast.CompilationUnit | None = None
    ) -> GradingReport:
        """Grade pre-built EPDGs (used by benchmarks to time phases).

        When the parsed ``unit`` is supplied, the static-analysis checks
        run over it alongside the graphs and their findings ride on the
        report's ``diagnostics``; without it (graphs from an external
        frontend) the report ships without diagnostics.
        """
        outcome = match_graphs(
            graphs,
            self.assignment.expected_methods,
            enforce_headers=self.assignment.enforce_headers,
        )
        diagnostics = []
        if unit is not None:
            with phase("analysis"):
                diagnostics = run_checks(unit, graphs)
        findings = {}
        for channel in self.channels:
            with phase(channel.name):
                findings[channel.name] = channel.run(unit, graphs, outcome)
        return GradingReport(
            assignment_name=self.assignment.name,
            outcome=outcome,
            diagnostics=diagnostics,
            **findings,
        )
