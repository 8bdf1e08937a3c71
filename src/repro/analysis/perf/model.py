"""Data model for the performance analyzer (:mod:`repro.analysis.perf`).

Three small vocabularies that the rest of the subsystem shares:

* :class:`CostShape` — the asymptotic classes the dynamic fitter can
  distinguish (constant / linear / quadratic, plus ``UNKNOWN`` when the
  evidence does not support a classification).  ``UNKNOWN`` never
  *exceeds* anything, so an inconclusive fit can never escalate or
  produce a finding on its own.
* :class:`PerfPattern` — a performance anti-pattern the static side
  detects, carrying the NL feedback templates rendered through
  :func:`repro.patterns.template.render_feedback` exactly like the
  Defs 1–10 pattern comments.
* :class:`PerfSpec` — the per-assignment KB declaration: which entry
  methods have a known achievable cost shape, how "input size" is
  measured for this assignment, and optional extra probe runs that
  extend the functional-test input ladder when the shipped tests alone
  do not span enough distinct sizes for a trustworthy fit.

This module is deliberately import-light (only the diagnostics
severity enum) so the KB assignment modules and the storage layer can
depend on it without cycles.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any, Callable, Sequence

from repro.analysis.diagnostics import Severity

#: Bumped whenever detector logic or feedback templates change meaning;
#: folded into the store fingerprint so stale entries never replay.
PERF_VERSION = 2


class CostShape(enum.Enum):
    """Asymptotic cost class of one measured quantity vs input size."""

    CONSTANT = "constant"
    LINEAR = "linear"
    QUADRATIC = "quadratic"
    UNKNOWN = "unknown"

    def __str__(self) -> str:
        return self.value

    @property
    def rank(self) -> int | None:
        """Growth order for comparisons; ``None`` for ``UNKNOWN``."""
        return _SHAPE_RANK.get(self)

    def exceeds(self, other: "CostShape") -> bool:
        """True when ``self`` provably grows faster than ``other``.

        ``UNKNOWN`` on either side is inconclusive evidence, so it
        never exceeds and is never exceeded.
        """
        mine, theirs = self.rank, other.rank
        return mine is not None and theirs is not None and mine > theirs


_SHAPE_RANK: dict[CostShape, int] = {
    CostShape.CONSTANT: 0,
    CostShape.LINEAR: 1,
    CostShape.QUADRATIC: 2,
}

#: Shape names a :class:`PerfSpec` may declare as expected.
DECLARABLE_SHAPES = frozenset(
    shape.value for shape in CostShape if shape is not CostShape.UNKNOWN
)


# ---------------------------------------------------------------------------
# input-size metrics

def _sequence_length(arguments: Sequence[Any]) -> float | None:
    sizes = [
        len(value) for value in arguments
        if isinstance(value, (list, tuple, str))
    ]
    return float(max(sizes)) if sizes else None


def _int_value(arguments: Sequence[Any]) -> float | None:
    values = [
        abs(value) for value in arguments
        if isinstance(value, int) and not isinstance(value, bool)
    ]
    return float(max(values)) if values else None


def _int_digits(arguments: Sequence[Any]) -> float | None:
    values = [
        abs(value) for value in arguments
        if isinstance(value, int) and not isinstance(value, bool)
    ]
    return float(len(str(max(values)))) if values else None


#: How an assignment measures "input size" from a test's argument tuple.
#: Returning ``None`` excludes that run from the fit (e.g. a test whose
#: arguments carry no sequence when the metric is ``sequence-length``).
SIZE_METRICS: dict[str, Callable[[Sequence[Any]], float | None]] = {
    "sequence-length": _sequence_length,
    "int-value": _int_value,
    "int-digits": _int_digits,
}


# ---------------------------------------------------------------------------
# KB declarations

@dataclass(frozen=True)
class PerfSpec:
    """Per-assignment performance declaration in the knowledge base.

    ``expected``
        ``(method, shape-name)`` pairs: the cost shape a correct,
        efficient solution achieves for that entry method.  Shape names
        come from :data:`DECLARABLE_SHAPES`; the KB linter rejects
        anything else, and methods must be declared expected methods.
    ``size_metric``
        Key into :data:`SIZE_METRICS` mapping a test's arguments to an
        input size.
    ``ladder``
        Extra ``(method, arguments)`` probe runs appended to the
        functional-test input ladder.  They carry no expectations —
        only their :class:`~repro.interp.tracing.CostCounters` are
        harvested — so they can use inputs with uninteresting outputs.
    """

    expected: tuple[tuple[str, str], ...] = ()
    size_metric: str = "sequence-length"
    ladder: tuple[tuple[str, tuple[Any, ...]], ...] = ()

    def expected_shape(self, method: str) -> CostShape | None:
        """Declared achievable shape for ``method``, if any."""
        for name, shape in self.expected:
            if name == method:
                return CostShape(shape)
        return None


# ---------------------------------------------------------------------------
# anti-pattern registry

@dataclass(frozen=True)
class PerfPattern:
    """One performance anti-pattern with its NL feedback templates.

    ``advisory`` renders for static-only findings; ``confirmed``
    renders when the dynamic fitter corroborates the finding with a
    measured shape that exceeds the assignment's declared expectation.
    ``variables`` declares every placeholder the detector may bind
    (beyond the implicit ``method``); the KB linter checks that both
    templates only reference declared placeholders.
    """

    id: str
    summary: str
    advisory: str
    confirmed: str
    variables: frozenset[str]
    severity: Severity = Severity.WARNING
    escalated: Severity = Severity.ERROR


_MEASURED = (
    " Measured cost is {shape} in the input size where {expected} "
    "suffices."
)

NESTED_LOOP_LOOKUP = PerfPattern(
    id="nested-loop-lookup",
    summary="nested loop re-scans the input to find one position",
    advisory=(
        "The {inner_kind} loop over '{inner_var}' nested inside the "
        "{outer_kind} loop over '{outer_var}' re-scans the input to "
        "find the one position where {probe} holds; a single pass "
        "computes the same result without the inner loop."
    ),
    confirmed=(
        "The {inner_kind} loop over '{inner_var}' nested inside the "
        "{outer_kind} loop over '{outer_var}' re-scans the input to "
        "find the one position where {probe} holds; a single pass "
        "computes the same result without the inner loop." + _MEASURED
    ),
    variables=frozenset(
        {"outer_kind", "inner_kind", "outer_var", "inner_var", "probe",
         "shape", "expected"}
    ),
)

LOOP_INVARIANT_RECOMPUTATION = PerfPattern(
    id="loop-invariant-recomputation",
    summary="inner loop rebuilds the same value every outer iteration",
    advisory=(
        "'{var}' is rebuilt from scratch by the {inner_kind} loop on "
        "every pass of the enclosing {outer_kind} loop; compute it "
        "once before the loop, or update it incrementally as the "
        "outer loop advances."
    ),
    confirmed=(
        "'{var}' is rebuilt from scratch by the {inner_kind} loop on "
        "every pass of the enclosing {outer_kind} loop; compute it "
        "once before the loop, or update it incrementally as the "
        "outer loop advances." + _MEASURED
    ),
    variables=frozenset(
        {"var", "inner_kind", "outer_kind", "shape", "expected"}
    ),
)

STRING_CONCAT_IN_LOOP = PerfPattern(
    id="string-concat-in-loop",
    summary="string accumulated with += inside a loop",
    advisory=(
        "'{var}' grows by string concatenation inside this {kind} "
        "loop; every += copies the whole accumulated string, so "
        "building an n-piece string costs on the order of n^2 "
        "character copies — collect the pieces and join once instead."
    ),
    confirmed=(
        "'{var}' grows by string concatenation inside this {kind} "
        "loop; every += copies the whole accumulated string, so "
        "building an n-piece string costs on the order of n^2 "
        "character copies — collect the pieces and join once "
        "instead." + _MEASURED
    ),
    variables=frozenset({"var", "kind", "shape", "expected"}),
)

COST_SHAPE_MISMATCH = PerfPattern(
    id="cost-shape-mismatch",
    summary="measured cost shape exceeds the assignment's expectation",
    advisory=(
        "The measured running cost of '{method}' is {shape} in the "
        "input size; this assignment is solvable in {expected} time."
    ),
    confirmed=(
        "The measured running cost of '{method}' is {shape} in the "
        "input size; this assignment is solvable in {expected} time."
    ),
    variables=frozenset({"shape", "expected"}),
    severity=Severity.WARNING,
    escalated=Severity.WARNING,
)

#: Registry of every perf anti-pattern, in detection order.  The first
#: three are static detections (escalating on dynamic confirmation);
#: the last is the dynamic-only shape cross-check.
PERF_PATTERNS: tuple[PerfPattern, ...] = (
    NESTED_LOOP_LOOKUP,
    LOOP_INVARIANT_RECOMPUTATION,
    STRING_CONCAT_IN_LOOP,
    COST_SHAPE_MISMATCH,
)


def get_perf_pattern(pattern_id: str) -> PerfPattern:
    """Look up a registered pattern by id (KeyError if unknown)."""
    for pattern in PERF_PATTERNS:
        if pattern.id == pattern_id:
            return pattern
    raise KeyError(pattern_id)


def perf_analysis_fingerprint() -> str:
    """Version token folded into store fingerprints when perf is on."""
    ids = ",".join(pattern.id for pattern in PERF_PATTERNS)
    metrics = ",".join(sorted(SIZE_METRICS))
    return f"perf-v{PERF_VERSION}:{ids}:{metrics}"
