"""Algorithm 2: best-effort submission matching with multiple methods.

Given a submission and the instructor's specification — per expected
method: patterns (with occurrence counts ``t̄``) and constraints — this
module extracts one EPDG per submission method, assigns expected methods
to submission methods, grades the assignment, and returns the outcome
maximizing the Λ cost function.

When the assignment enforces method headers (the common MOOC practice the
paper recommends), methods are bound by name directly and submissions
missing a required header receive a structural ``NotExpected`` comment,
mirroring "we will not provide feedback to those submissions that do not
adhere to the specification".

Without header enforcement the paper sweeps every injective assignment —
up to ``P(m, q)`` permutations, each re-running all pattern matches.
The optimized engine exploits that Λ is *additive per expected method*:
the comments (and therefore the Λ contribution) of pairing expected
method ``q`` with submission method ``m`` do not depend on how the other
methods are paired.  So each (expected, submission) pair is graded
exactly once behind a memo, and the best assignment is the solution of a
**maximum-weight bipartite assignment** problem over the ``q × m`` score
matrix — solved with an exact subset-memo DP whose tie-breaking
reproduces the permutation sweep's first-maximum (lexicographically
smallest arrangement over the sorted method names), keeping the output
byte-identical to the sweep.  When the sweep would have been truncated
by :data:`_MAX_ASSIGNMENTS` (so equivalence cannot be guaranteed), the
engine falls back to the capped sweep — still over memoized pair grades
— and flags the outcome as truncated.

``strategy="permutation"`` preserves the unmemoized sweep as the naive
reference path for benchmarks and differential tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from itertools import permutations

from repro.instrumentation import count, phase
from repro.java import ast
from repro.matching.constraints import check_constraint
from repro.matching.embeddings import Embedding
from repro.matching.groups import match_group
from repro.matching.feedback import (
    FeedbackComment,
    FeedbackStatus,
    cost,
    provide_feedback,
)
from repro.matching.pattern_matching import match_pattern
from repro.patterns.groups import PatternGroup
from repro.patterns.model import Constraint, Pattern
from repro.pdg.builder import extract_all_epdgs
from repro.pdg.graph import Epdg

#: Cap on expected-to-existing method assignments explored by the sweep
#: (the paper notes header enforcement keeps this number tiny in
#: practice).  The bipartite solver never needs the cap; it only applies
#: to the legacy sweep and the truncated-regime fallback.
_MAX_ASSIGNMENTS = 5040  # 7!

#: Assignment-solving strategies accepted by :func:`match_graphs`.
STRATEGIES = ("bipartite", "permutation")


@dataclass
class ExpectedMethod:
    """The instructor's expectation for one method of the assignment.

    ``patterns`` entries pair a :class:`~repro.patterns.model.Pattern`
    *or* a :class:`~repro.patterns.groups.PatternGroup` (several
    variants with the same semantics) with the expected occurrence
    count ``t̄``.
    """

    name: str
    patterns: list[tuple[Pattern | PatternGroup, int | None]] = field(
        default_factory=list
    )
    constraints: list[Constraint] = field(default_factory=list)

    def pattern_names(self) -> list[str]:
        return [pattern.name for pattern, _ in self.patterns]


@dataclass
class MatchOutcome:
    """Result of Algorithm 2 on one submission."""

    comments: list[FeedbackComment]
    method_assignment: dict[str, str]
    score: float
    embeddings: dict[str, dict[str, list[Embedding]]] = field(
        default_factory=dict
    )
    #: True when a safety cap cut grading short — either Algorithm 1's
    #: :data:`~repro.matching.pattern_matching.MAX_EMBEDDINGS` valve or
    #: the method-assignment sweep's :data:`_MAX_ASSIGNMENTS` cap — so
    #: the feedback may be based on incomplete search results.
    truncated: bool = False

    @property
    def is_fully_correct(self) -> bool:
        """True when every delivered comment is ``Correct``."""
        return bool(self.comments) and all(
            c.status is FeedbackStatus.CORRECT for c in self.comments
        )

    def render(self) -> str:
        lines = []
        for expected, actual in sorted(self.method_assignment.items()):
            if expected != actual:
                lines.append(f"(expected method {expected} ~ your {actual})")
        lines.extend(comment.render() for comment in self.comments)
        return "\n".join(lines)


def match_submission(
    unit: ast.CompilationUnit,
    expected_methods: list[ExpectedMethod],
    enforce_headers: bool = True,
    synthesize_else_conditions: bool = False,
    strategy: str = "bipartite",
    order: str = "connectivity",
) -> MatchOutcome:
    """Run Algorithm 2 over a parsed submission."""
    graphs = extract_all_epdgs(unit, synthesize_else_conditions)
    return match_graphs(
        graphs, expected_methods, enforce_headers,
        strategy=strategy, order=order,
    )


def match_graphs(
    graphs: dict[str, Epdg],
    expected_methods: list[ExpectedMethod],
    enforce_headers: bool = True,
    strategy: str = "bipartite",
    order: str = "connectivity",
) -> MatchOutcome:
    """Algorithm 2 over pre-built EPDGs (one per submission method).

    ``strategy`` selects the assignment engine: ``"bipartite"`` (default
    — memoized pair grading and the exact assignment DP) or
    ``"permutation"`` (the naive reference: the full unmemoized sweep,
    re-grading every pair per assignment).  Both
    produce byte-identical outcomes; the matcher benchmark measures the
    cost difference.  ``order`` is forwarded to Algorithm 1.
    """
    if strategy not in STRATEGIES:
        raise ValueError(
            f"unknown strategy {strategy!r}; expected one of {STRATEGIES}"
        )
    if strategy == "permutation":
        grader = _PairGrader(graphs, expected_methods, order, memoize=False)
        return _sweep_assignments(graphs, expected_methods,
                                  enforce_headers, grader)
    grader = _PairGrader(graphs, expected_methods, order, memoize=True)
    method_names = sorted(graphs)
    if enforce_headers or len(method_names) < len(expected_methods):
        return grader.outcome(_assignment_by_name(graphs, expected_methods))
    if _permutation_count(
        len(method_names), len(expected_methods)
    ) > _MAX_ASSIGNMENTS:
        # equivalence with the (truncated) sweep cannot be kept by the
        # full DP, so run the capped sweep on memoized grades
        return _sweep_assignments(graphs, expected_methods,
                                  enforce_headers, grader)
    with phase("assignment_solve"):
        weights = [
            [grader.grade(index, actual).score for actual in method_names]
            for index in range(len(expected_methods))
        ]
        arrangement = _solve_assignment(weights)
    assignment: dict[str, str | None] = {
        q.name: method_names[j]
        for q, j in zip(expected_methods, arrangement)
    }
    return grader.outcome(assignment)


def _permutation_count(methods: int, expected: int) -> int:
    total = 1
    for i in range(expected):
        total *= methods - i
    return total


def _solve_assignment(weights: list[list[float]]) -> tuple[int, ...]:
    """Maximum-weight injective assignment, sweep-equivalent tie-break.

    ``weights[i][j]`` is the Λ contribution of pairing expected method
    ``i`` with submission method ``j``.  Returns the arrangement
    (method index per expected method) with maximal total weight; among
    maxima, the lexicographically smallest arrangement — which is
    exactly the first maximum the permutation sweep encounters, since
    ``itertools.permutations`` enumerates arrangements of the sorted
    method names in lexicographic order and the sweep keeps the first
    strict maximum.  Λ values are multiples of 0.5, so float sums and
    equality comparisons are exact.

    The subset-memo DP visits only reachable states (``i`` expected
    methods paired with an ``i``-subset of submission methods); the
    caller bounds the instance so the state count stays small.
    """
    n_expected = len(weights)
    if n_expected == 0:
        return ()
    n_methods = len(weights[0])
    memo: dict[tuple[int, int], float] = {}

    def best(index: int, used: int) -> float:
        if index == n_expected:
            return 0.0
        key = (index, used)
        found = memo.get(key)
        if found is None:
            row = weights[index]
            found = max(
                row[j] + best(index + 1, used | (1 << j))
                for j in range(n_methods)
                if not used & (1 << j)
            )
            memo[key] = found
        return found

    arrangement: list[int] = []
    used = 0
    for index in range(n_expected):
        target = best(index, used)
        row = weights[index]
        for j in range(n_methods):  # smallest j first: lexicographic
            if used & (1 << j):
                continue
            if row[j] + best(index + 1, used | (1 << j)) == target:
                arrangement.append(j)
                used |= 1 << j
                break
    return tuple(arrangement)


def _sweep_assignments(
    graphs: dict[str, Epdg],
    expected_methods: list[ExpectedMethod],
    enforce_headers: bool,
    grader: "_PairGrader",
) -> MatchOutcome:
    """The paper's sweep: try assignments, keep the first Λ maximum."""
    truncated = False
    if enforce_headers:
        assignments = [_assignment_by_name(graphs, expected_methods)]
    else:
        assignments, truncated = _enumerate_assignments(
            graphs, expected_methods
        )
        if not assignments:
            assignments = [_assignment_by_name(graphs, expected_methods)]
    best: MatchOutcome | None = None
    for assignment in assignments:
        outcome = grader.outcome(assignment)
        if best is None or outcome.score > best.score:
            best = outcome
    assert best is not None  # at least one assignment is always graded
    if truncated:
        best.truncated = True
    return best


def _assignment_by_name(
    graphs: dict[str, Epdg], expected_methods: list[ExpectedMethod]
) -> dict[str, str | None]:
    return {
        q.name: (q.name if q.name in graphs else None)
        for q in expected_methods
    }


def _enumerate_assignments(
    graphs: dict[str, Epdg], expected_methods: list[ExpectedMethod]
) -> tuple[list[dict[str, str | None]], bool]:
    """All injective assignments of expected methods to existing methods.

    Returns the assignments plus a flag telling whether the
    :data:`_MAX_ASSIGNMENTS` cap cut the enumeration short (recorded on
    the outcome instead of silently dropping the rest of the space).
    """
    method_names = sorted(graphs)
    if len(method_names) < len(expected_methods):
        return [], False
    assignments: list[dict[str, str | None]] = []
    for arrangement in permutations(method_names, len(expected_methods)):
        if len(assignments) >= _MAX_ASSIGNMENTS:
            count("match.assignments_truncated")
            return assignments, True
        assignments.append({
            q.name: actual
            for q, actual in zip(expected_methods, arrangement)
        })
    return assignments, False


@dataclass
class _PairGrade:
    """Grading result of one (expected method, submission method) pair."""

    comments: list[FeedbackComment]
    embeddings: dict[str, list[Embedding]]
    score: float
    truncated: bool


class _PairGrader:
    """Grades (expected, actual) pairs, at most once each when memoized.

    Λ is additive over expected methods, so a pair's comments are
    independent of the rest of the assignment — the sweep used to
    re-grade every pair for every permutation it appeared in.
    """

    def __init__(
        self,
        graphs: dict[str, Epdg],
        expected_methods: list[ExpectedMethod],
        order: str = "connectivity",
        memoize: bool = True,
    ):
        self._graphs = graphs
        self._expected = expected_methods
        self._order = order
        self._memoize = memoize
        self._memo: dict[tuple[int, str | None], _PairGrade] = {}

    def grade(self, index: int, actual: str | None) -> _PairGrade:
        if not self._memoize:
            return self._grade_pair(index, actual)
        key = (index, actual)
        found = self._memo.get(key)
        if found is None:
            found = self._memo[key] = self._grade_pair(index, actual)
        return found

    def outcome(self, assignment: dict[str, str | None]) -> MatchOutcome:
        """Assemble the full Algorithm 2 outcome for one assignment."""
        comments: list[FeedbackComment] = []
        all_embeddings: dict[str, dict[str, list[Embedding]]] = {}
        truncated = False
        for index, q in enumerate(self._expected):
            pair = self.grade(index, assignment.get(q.name))
            comments.extend(pair.comments)
            truncated = truncated or pair.truncated
            if assignment.get(q.name) is not None:
                all_embeddings[q.name] = pair.embeddings
        return MatchOutcome(
            comments=comments,
            method_assignment={
                q: a for q, a in assignment.items() if a is not None
            },
            score=cost(comments),
            embeddings=all_embeddings,
            truncated=truncated,
        )

    def _grade_pair(self, index: int, actual: str | None) -> _PairGrade:
        q = self._expected[index]
        if actual is None:
            comment = FeedbackComment(
                source=q.name,
                kind="structure",
                status=FeedbackStatus.NOT_EXPECTED,
                message=(
                    f"Your submission does not declare the required "
                    f"method '{q.name}'; please follow the assignment "
                    "header."
                ),
            )
            return _PairGrade([comment], {}, 0.0, False)
        graph = self._graphs[actual]
        comments: list[FeedbackComment] = []
        embeddings: dict[str, list[Embedding]] = {}
        statuses: dict[str, FeedbackStatus] = {}
        truncated = False
        # 2.1: match every pattern (or variant group) of this method
        with phase("pattern_match"):
            for pattern, expected_count in q.patterns:
                if isinstance(pattern, PatternGroup):
                    group_match = match_group(
                        pattern, graph, order=self._order
                    )
                    embeddings[pattern.name] = group_match.translated
                    truncated = truncated or getattr(
                        group_match.embeddings, "truncated", False
                    )
                    comment = provide_feedback(
                        group_match.embeddings,
                        group_match.pattern,
                        expected_count,
                    )
                    if comment.source != pattern.name:
                        # constraints and statuses key on the group's
                        # (primary) name, whichever variant matched
                        comment = replace(comment, source=pattern.name)
                else:
                    found = match_pattern(pattern, graph, order=self._order)
                    embeddings[pattern.name] = found
                    truncated = truncated or found.truncated
                    comment = provide_feedback(found, pattern, expected_count)
                statuses[pattern.name] = comment.status
                comments.append(comment)
        # 2.2: check the constraints correlating those patterns
        with phase("constraint_match"):
            for constraint in q.constraints:
                comments.append(
                    check_constraint(constraint, graph, embeddings, statuses)
                )
        return _PairGrade(comments, embeddings, cost(comments), truncated)
