"""Grading profiles: the one way to build a grader and scope its store.

A :class:`GradingProfile` says which optional features are on:
clustering (:mod:`repro.cluster`) and the repair (:mod:`repro.repair`)
and perf (:mod:`repro.analysis.perf`) feedback channels.
:func:`build_grader` is the only place that constructs the channels and
the :class:`~repro.cluster.grader.ClusterGrader`; the batch pipeline,
its process workers, the serve pool's workers and the campaign runner all
call it, so every path grades, and scopes its store, the same way.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Any, Mapping, Protocol, Union

from repro.core.assignment import Assignment
from repro.core.engine import FeedbackEngine
from repro.core.storage import ResultStore, kb_fingerprint

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cluster.grader import ClusterGrader
    from repro.java import ast
    from repro.matching.submission import MatchOutcome
    from repro.pdg.graph import Epdg

#: What :func:`build_grader` returns: both expose ``grade`` and
#: ``assignment``.
Grader = Union[FeedbackEngine, "ClusterGrader"]


class Channel(Protocol):
    """An opt-in feedback channel run by :class:`FeedbackEngine`."""

    #: Pipeline phase and :class:`~repro.core.report.GradingReport`
    #: field the channel's output goes to.
    name: str

    @classmethod
    def fingerprint(cls, assignment: Assignment) -> str:
        """Token folded into the store scope when the channel is on."""
        ...

    def run(
        self,
        unit: ast.CompilationUnit | None,
        graphs: Mapping[str, Epdg],
        outcome: MatchOutcome,
    ) -> list[Any]:
        """The channel's findings for one graded submission."""
        ...


@dataclass(frozen=True)
class GradingProfile:
    """Which optional grading features are on."""

    cluster: bool = False
    repair: bool = False
    perf: bool = False

    def _channel_types(self) -> list[type[Channel]]:
        """The enabled channel classes, in engine order."""
        kinds: list[type[Channel]] = []
        if self.repair:
            from repro.repair.engine import RepairEngine

            kinds.append(RepairEngine)
        if self.perf:
            from repro.analysis.perf.analyzer import PerfAnalyzer

            kinds.append(PerfAnalyzer)
        return kinds

    def scope(self, assignment: Assignment) -> str:
        """Store fingerprint of reports graded under this profile.

        The KB fingerprint when no channel is on, otherwise a hash over
        it and the sorted channel fingerprints.  Clustering preserves
        output, so it does not enter the scope.
        """
        kb = kb_fingerprint(assignment)
        fingerprints = sorted(
            kind.fingerprint(assignment) for kind in self._channel_types()
        )
        if not fingerprints:
            return kb
        canonical = f"{kb}:" + ":".join(fingerprints)
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()

    def open_store(
        self,
        root: str | os.PathLike[str],
        assignment: Assignment,
    ) -> ResultStore:
        """The result store under ``root`` scoped to this profile."""
        return ResultStore(
            root, assignment, repair=self.repair, perf=self.perf
        )


def _corpus_store(
    assignment: Assignment, store: ResultStore | None
) -> ResultStore | None:
    """The repair-only scope of ``store``, where the corpus lives."""
    if store is None:
        return None
    corpus_profile = GradingProfile(repair=True)
    if store.fingerprint == corpus_profile.scope(assignment):
        return store
    return corpus_profile.open_store(store.root, assignment)


def _scope_hint(
    assignment: Assignment, profile: GradingProfile, fingerprint: str
) -> str:
    """Name the channel whose flag the store was scoped without, if one."""
    for name in ("repair", "perf"):
        flipped = replace(profile, **{name: not getattr(profile, name)})
        if flipped.scope(assignment) == fingerprint:
            return f" ({name} scope differs)"
    return ""


def build_grader(
    assignment: Assignment,
    profile: GradingProfile,
    store: ResultStore | None = None,
) -> Grader:
    """Build the grader ``profile`` describes for ``assignment``.

    ``store`` must be scoped to ``profile`` (see
    :meth:`GradingProfile.open_store`); the cluster grader persists its
    bucket records there, and the repair channel loads or saves its
    corpus in the store's repair-only scope.
    """
    if store is not None and store.fingerprint != profile.scope(assignment):
        raise ValueError(
            "store scope does not match the grading profile"
            f"{_scope_hint(assignment, profile, store.fingerprint)}: open "
            "it with GradingProfile.open_store or pass a directory path"
        )
    channels: list[Channel] = []
    if profile.repair:
        from repro.repair.engine import RepairEngine

        channels.append(
            RepairEngine.for_assignment(
                assignment, store=_corpus_store(assignment, store)
            )
        )
    if profile.perf:
        from repro.analysis.perf.analyzer import PerfAnalyzer

        channels.append(PerfAnalyzer(assignment))
    engine = FeedbackEngine(
        assignment, frontend_cache_size=0, channels=channels
    )
    if not profile.cluster:
        return engine
    from repro.cluster.grader import ClusterGrader

    return ClusterGrader(engine, store=store)
