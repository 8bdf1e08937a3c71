"""Low-level phase-timing primitives shared by all pipeline layers.

The batch pipeline (:mod:`repro.core.pipeline`) wants per-phase wall
time — parse / EPDG build / pattern match / constraint match — but the
phases live in different layers (``repro.java``, ``repro.pdg``,
``repro.matching``).  Threading a recorder object through every
signature would churn the whole public API, so instead the timed code
wraps itself in :func:`phase` and an *ambient* collector (a
:class:`contextvars.ContextVar`) decides whether anything is recorded.

When no collector is installed — the common case for one-off
``FeedbackEngine.grade`` calls — :func:`phase` is a no-op costing one
context-variable read.  The batch pipeline installs a fresh
:class:`PhaseCollector` per submission via :func:`collecting`, which
also makes the mechanism safe under thread pools: each worker task
installs its own collector in its own context.

This module deliberately imports nothing from the rest of ``repro`` so
every layer (including :mod:`repro.matching`, which :mod:`repro.core`
itself imports) can depend on it without cycles.
"""

from __future__ import annotations

import contextvars
import time
from contextlib import contextmanager
from typing import Iterator

#: Ambient per-context collector; ``None`` disables all recording.
_collector: contextvars.ContextVar["PhaseCollector | None"] = (
    contextvars.ContextVar("repro_phase_collector", default=None)
)

#: Ambient grading deadline as a ``time.monotonic()`` timestamp;
#: ``None`` disables all deadline checking.
_deadline: contextvars.ContextVar["float | None"] = (
    contextvars.ContextVar("repro_deadline", default=None)
)

#: Canonical phase names emitted by the grading pipeline, in data-flow
#: order.  Other layers may emit additional names; consumers should not
#: assume this list is exhaustive.
PIPELINE_PHASES = (
    "parse",
    "epdg_build",
    "pattern_match",
    "constraint_match",
    "analysis",
    "repair",
)


class PhaseCollector:
    """Accumulates wall seconds, entry counts, and event counters.

    ``seconds``/``counts`` come from :func:`phase` blocks; ``counters``
    are plain event tallies recorded with :func:`count` — the matcher
    uses them for search statistics (candidates pruned, nodes visited,
    cache hits) that have no meaningful duration.
    """

    __slots__ = ("seconds", "counts", "counters")

    def __init__(self) -> None:
        self.seconds: dict[str, float] = {}
        self.counts: dict[str, int] = {}
        self.counters: dict[str, int] = {}

    def add(self, name: str, elapsed: float) -> None:
        self.seconds[name] = self.seconds.get(name, 0.0) + elapsed
        self.counts[name] = self.counts.get(name, 0) + 1

    def increment(self, name: str, amount: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def merge(self, other: "PhaseCollector") -> None:
        """Fold another collector's totals into this one."""
        for name, elapsed in other.seconds.items():
            self.seconds[name] = self.seconds.get(name, 0.0) + elapsed
        for name, count in other.counts.items():
            self.counts[name] = self.counts.get(name, 0) + count
        for name, amount in other.counters.items():
            self.counters[name] = self.counters.get(name, 0) + amount

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        parts = ", ".join(
            f"{name}={self.seconds[name] * 1000:.2f}ms"
            for name in sorted(self.seconds)
        )
        return f"PhaseCollector({parts})"


class DeadlineExceeded(Exception):
    """Raised by :func:`check_deadline` when the ambient deadline passed.

    Deliberately *not* a :class:`repro.errors.ReproError`: the batch
    pipeline and the serving layer convert it into a ``timeout`` report
    at the grading boundary, so it should never cross the public API —
    and keeping it here keeps this module import-free.
    """

    def __init__(self, limit_seconds: float | None = None):
        self.limit_seconds = limit_seconds
        limit = (
            f" (limit {limit_seconds:g}s)" if limit_seconds is not None else ""
        )
        super().__init__(f"grading deadline exceeded{limit}")


@contextmanager
def deadline(seconds: float | None) -> Iterator[None]:
    """Install a wall-clock deadline for the enclosed block.

    ``None`` is a no-op, so callers can thread an optional limit without
    branching.  Nested deadlines keep the *earliest* expiry — an outer
    budget can only be tightened, never extended, by an inner scope.
    Instrumented code observes the deadline through
    :func:`check_deadline`, which raises :class:`DeadlineExceeded`; the
    pipeline phases check on entry and the matcher's search loop checks
    periodically, so a pathological submission is abandoned within a
    bounded number of search steps rather than hanging its worker.
    """
    if seconds is None:
        yield
        return
    expires = time.monotonic() + seconds
    current = _deadline.get()
    if current is not None and current < expires:
        # inherit the tighter outer deadline; remember our own limit
        # only for the error message
        expires = current
    token = _deadline.set(expires)
    try:
        yield
    finally:
        _deadline.reset(token)


def check_deadline(limit_hint: float | None = None) -> None:
    """Raise :class:`DeadlineExceeded` if the ambient deadline passed.

    A no-op (one context-variable read) when no deadline is installed —
    the matcher calls this from its inner loop, so the unlimited path
    must stay free, exactly like :func:`phase` and :func:`count`.
    """
    expires = _deadline.get()
    if expires is not None and time.monotonic() > expires:
        raise DeadlineExceeded(limit_hint)


def active_deadline() -> float | None:
    """Monotonic expiry of the ambient deadline, if one is installed."""
    return _deadline.get()


@contextmanager
def phase(name: str) -> Iterator[None]:
    """Time the enclosed block under ``name`` if a collector is active.

    The elapsed time is recorded even when the block raises, so error
    paths (a submission failing mid-match) still show up in the totals.
    Entering a phase also checks the ambient deadline — phase
    boundaries are natural cancellation points, and checking here means
    even layers without inner-loop checks cannot start new work past
    their budget.
    """
    check_deadline()
    collector = _collector.get()
    if collector is None:
        yield
        return
    started = time.perf_counter()
    try:
        yield
    finally:
        collector.add(name, time.perf_counter() - started)


def count(name: str, amount: int = 1) -> None:
    """Record ``amount`` occurrences of ``name`` on the ambient collector.

    A no-op (one context-variable read) when no collector is installed,
    exactly like :func:`phase` — the matcher calls this from its inner
    loops, so the uninstrumented path must stay free.

    Counter names emitted by the matching engine:

    ``match.nodes_visited``
        Backtracking search states expanded by Algorithm 1.
    ``match.candidates_pruned``
        Graph nodes removed from the search space Φ by the degree and
        variable-arity filters before the search started.
    ``match.embeddings_truncated``
        Times the :data:`~repro.matching.pattern_matching.MAX_EMBEDDINGS`
        safety valve cut a search short.
    ``match.assignments_truncated``
        Times the method-assignment sweep hit its permutation cap.
    ``match.regex_compiles``
        Regexes an expression template compiled for one binding γ: only
        templates without a one regex, and contents or names holding
        ``\\x00``, take that path (see :mod:`repro.patterns.template`).

    The execution engine emits ``interp.compile_hits`` /
    ``interp.compile_misses`` — compiled-program cache traffic from
    :func:`repro.interp.compiler.compile_unit` — through the same
    channel, so duplicate-heavy cohorts show their compile reuse in
    ``--stats`` and ``/metrics`` alongside the matcher counters.
    """
    collector = _collector.get()
    if collector is not None:
        collector.increment(name, amount)


@contextmanager
def collecting(
    collector: PhaseCollector | None = None,
) -> Iterator[PhaseCollector]:
    """Install ``collector`` (or a fresh one) as the ambient collector.

    Returns the collector so callers can read the totals afterwards::

        with collecting() as phases:
            engine.grade(source)
        print(phases.seconds)
    """
    if collector is None:
        collector = PhaseCollector()
    token = _collector.set(collector)
    try:
        yield collector
    finally:
        _collector.reset(token)


def active_collector() -> PhaseCollector | None:
    """The collector currently installed in this context, if any."""
    return _collector.get()
