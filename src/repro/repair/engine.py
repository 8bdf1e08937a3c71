"""The repair channel: corpus → search → align → verify → suggest.

:class:`RepairEngine` is one of
:class:`~repro.core.engine.FeedbackEngine`'s channels (see
:mod:`repro.core.profile`).  Given a failing submission's EPDGs it:

1. lazily obtains the corpus — loaded from the
   :class:`~repro.core.storage.ResultStore` when one is attached and a
   saved corpus exists, built (and saved back) otherwise;
2. ranks corpus candidates by signature distance
   (:mod:`repro.repair.search`) and exactly aligns only the closest
   :attr:`RepairConfig.prefilter_top` — node shapes are computed once
   per corpus entry (kept for the engine's lifetime) and once per
   submission, not once per aligned pair;
3. keeps the candidate with the fewest edits, substitutes the student's
   identifiers back (:mod:`repro.repair.edits`), and builds the repaired
   source only for the candidates it goes on to verify;
4. **machine-verifies** the repaired source against the assignment's
   functional tests and emits the suggestion only on a full pass — a
   wrong suggestion is structurally unable to reach a report.  Verdicts
   are remembered per exact source text (at most :data:`MAX_VERDICTS`,
   oldest dropped first), seeded with the verdicts of a corpus build
   run by this engine: the same text under the same tests and step
   budget always gets the same verdict, so a remembered one is a
   verification this process already ran.

The whole of steps 2-4 runs under its own
:func:`repro.instrumentation.deadline` budget
(:attr:`RepairConfig.budget_seconds`), nested inside whatever grading
deadline is already ambient; hitting the repair budget degrades to "no
suggestion" (``repair.deadline_stops``), while an expired *outer*
grading deadline propagates so the pipeline still produces its normal
timeout report.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Mapping

from repro.core.assignment import Assignment
from repro.instrumentation import (
    DeadlineExceeded,
    active_deadline,
    check_deadline,
    count,
    deadline,
)
from repro.java import parse_submission
from repro.pdg.builder import extract_all_epdgs
from repro.pdg.graph import Epdg
from repro.repair.align import align_graphs, graph_shapes
from repro.repair.corpus import DEFAULT_SYNTH_SAMPLES, RepairCorpus
from repro.repair.edits import edit_script, repaired_source, variable_mapping
from repro.repair.model import RepairEdit, RepairSuggestion
from repro.repair.search import (
    rank_candidates,
    submission_signature,
)
from repro.testing import run_tests_on_source
from repro.testing.functional import DEFAULT_TEST_BUDGET

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.storage import ResultStore
    from repro.java import ast
    from repro.matching.submission import MatchOutcome

#: Verification verdicts one engine remembers, oldest dropped first — the
#: bucket bound of :data:`repro.cluster.grader.MAX_BUCKETS`.
MAX_VERDICTS = 8192


@dataclass(frozen=True)
class RepairConfig:
    """Tunables of the repair channel."""

    #: Suggestions carried per report (best-first).
    max_suggestions: int = 1
    #: Candidates surviving the signature pre-filter into exact alignment.
    prefilter_top: int = 4
    #: Wall-clock budget for one ``suggest`` call (search + verify).
    budget_seconds: float = 1.0
    #: Synthetic candidates sampled when building a corpus.
    synth_samples: int = DEFAULT_SYNTH_SAMPLES
    #: Interpreter step budget per verification test.
    step_budget: int = DEFAULT_TEST_BUDGET


class RepairEngine:
    """Produces verified fix suggestions for one assignment.

    A :class:`~repro.core.profile.Channel`: suggestions go to the
    report's ``repair`` field, and only rejected submissions get any.

    Thread-compatible the same way :class:`FeedbackEngine` is: the
    lazily-initialized corpus and the per-entry candidate caches (EPDGs,
    signatures, shapes) are written idempotently (rebuilding or
    re-parsing yields identical values), and the verdict memo is guarded
    by a lock, so sharing an instance across threads is safe.
    """

    name = "repair"

    def __init__(
        self,
        assignment: Assignment,
        corpus: RepairCorpus | None = None,
        store: "ResultStore | None" = None,
        config: RepairConfig | None = None,
    ):
        self.assignment = assignment
        self.config = config or RepairConfig()
        self.store = store
        self._corpus = corpus
        self._candidate_graphs: dict[str, dict[str, Epdg] | None] = {}
        self._candidate_signatures: dict[
            str, dict[str, tuple[int, ...]]
        ] = {}
        self._candidate_shapes: dict[str, dict[str, tuple[str, ...]]] = {}
        self._verdicts: dict[str, bool] = {}
        self._verdicts_lock = threading.Lock()

    @classmethod
    def fingerprint(cls, assignment: Assignment) -> str:
        """Store-scope token: suggestions depend on nothing beyond the KB."""
        return "repair"

    @classmethod
    def for_assignment(
        cls,
        assignment: Assignment,
        store: "ResultStore | None" = None,
        config: RepairConfig | None = None,
    ) -> "RepairEngine":
        """The standard construction used by the pipeline wiring."""
        return cls(assignment, store=store, config=config)

    # ------------------------------------------------------------------
    # corpus management

    def corpus(self) -> RepairCorpus:
        """The corpus, loading or building it on first use.

        Lazy so that pipeline parents which only fork workers (process
        mode) never pay for a build; built corpora are saved back to the
        attached store so the next engine over the same cache directory
        loads instead of rebuilding.  A build seeds the verdict memo with
        the test verdicts it just computed; a load ran no tests and seeds
        nothing.
        """
        if self._corpus is None:
            loaded = (
                RepairCorpus.load(self.assignment, self.store)
                if self.store is not None
                else None
            )
            if loaded is not None:
                count("repair.corpus_loads")
                self._corpus = loaded
            else:
                count("repair.corpus_builds")
                self._corpus = RepairCorpus.build(
                    self.assignment,
                    synth_samples=self.config.synth_samples,
                    step_budget=self.config.step_budget,
                )
                for source, passed in self._corpus.verdicts.items():
                    self._remember(source, passed)
                if self.store is not None:
                    self._corpus.save(self.store)
        return self._corpus

    def _graphs_for(self, key: str, source: str) -> dict[str, Epdg] | None:
        """Candidate EPDGs, parsed once per corpus entry and cached."""
        if key not in self._candidate_graphs:
            try:
                graphs = extract_all_epdgs(
                    parse_submission(source),
                    self.assignment.synthesize_else_conditions,
                )
            except Exception:  # noqa: BLE001 - an unparseable entry is skipped
                graphs = None
            self._candidate_graphs[key] = graphs
            if graphs is not None:
                self._candidate_signatures[key] = submission_signature(graphs)
                self._candidate_shapes[key] = graph_shapes(graphs)
        return self._candidate_graphs[key]

    # ------------------------------------------------------------------
    # verification

    def _remember(self, source: str, passed: bool) -> None:
        with self._verdicts_lock:
            verdicts = self._verdicts
            if source not in verdicts and len(verdicts) >= MAX_VERDICTS:
                verdicts.pop(next(iter(verdicts)))
            verdicts[source] = passed

    def _verify(self, source: str) -> bool:
        """Whether ``source`` passes the assignment's functional tests.

        A remembered verdict counts ``repair.verify_memo_hits``; a fresh
        one is remembered only once the suite has run to the end, so a
        deadline raised mid-run records nothing.
        """
        with self._verdicts_lock:
            passed = self._verdicts.get(source)
        if passed is not None:
            count("repair.verify_memo_hits")
            return passed
        passed = run_tests_on_source(
            source,
            self.assignment.tests,
            step_budget=self.config.step_budget,
        ).passed
        self._remember(source, passed)
        return passed

    # ------------------------------------------------------------------
    # the channel

    def run(
        self,
        unit: ast.CompilationUnit | None,
        graphs: Mapping[str, Epdg],
        outcome: MatchOutcome,
    ) -> list[RepairSuggestion]:
        """Suggestions for a rejected submission; none for a correct one."""
        if outcome.is_fully_correct:
            return []
        return self.suggest(graphs)

    def suggest(
        self, graphs: Mapping[str, Epdg]
    ) -> list[RepairSuggestion]:
        """Verified fix suggestions for one failing submission's EPDGs.

        Returns at most :attr:`RepairConfig.max_suggestions`, possibly
        none: an empty corpus, no candidate within reach, a failed
        verification, or an exhausted repair budget all degrade to an
        empty list — never to an unverified suggestion.
        """
        count("repair.requests")
        outer = active_deadline()
        try:
            with deadline(self.config.budget_seconds):
                suggestions = self._suggest_under_deadline(graphs)
        except DeadlineExceeded:
            if outer is not None and time.monotonic() > outer:
                raise  # the grading deadline itself expired: not ours
            count("repair.deadline_stops")
            suggestions = []
        if suggestions:
            count("repair.suggestions", len(suggestions))
        else:
            count("repair.no_suggestion")
        return suggestions

    def _suggest_under_deadline(
        self, graphs: Mapping[str, Epdg]
    ) -> list[RepairSuggestion]:
        corpus = self.corpus()
        entries = {entry.key: entry for entry in corpus.entries}
        if not entries:
            return []
        submission = submission_signature(graphs)
        submission_shapes = graph_shapes(graphs)
        signatures: dict[str, dict[str, tuple[int, ...]]] = {}
        for key, entry in entries.items():
            check_deadline(self.config.budget_seconds)
            if self._graphs_for(key, entry.source) is not None:
                signatures[key] = self._candidate_signatures[key]
        ranked = rank_candidates(
            submission, signatures, self.config.prefilter_top
        )
        scored: list[
            tuple[int, int, str, tuple[RepairEdit, ...], dict[str, str]]
        ] = []
        for distance, key in ranked:
            check_deadline(self.config.budget_seconds)
            entry = entries[key]
            candidate_graphs = self._candidate_graphs[key]
            assert candidate_graphs is not None  # filtered above
            alignments = align_graphs(
                graphs,
                candidate_graphs,
                submission_shapes,
                self._candidate_shapes[key],
            )
            mapping = variable_mapping(
                alignments, candidate_graphs, entry.source
            )
            edits = edit_script(alignments, mapping)
            if not edits:
                # Graph-identical to a verified correct solution: there
                # is nothing to fix, and suggesting edits toward some
                # *other* candidate would be pure noise.
                return []
            scored.append((len(edits), distance, key, edits, mapping))
        scored.sort(key=lambda item: item[:3])
        emitted: list[RepairSuggestion] = []
        for _, distance, key, edits, mapping in scored:
            if len(emitted) >= self.config.max_suggestions:
                break
            check_deadline(self.config.budget_seconds)
            entry = entries[key]
            repaired = repaired_source(entry.source, mapping)
            if self._verify(repaired):
                count("repair.verified")
                emitted.append(
                    RepairSuggestion(
                        candidate_key=key,
                        origin=entry.origin,
                        distance=float(distance),
                        edits=edits,
                        repaired_source=repaired,
                        verified=True,
                    )
                )
            else:
                count("repair.verify_failed")
        return emitted
