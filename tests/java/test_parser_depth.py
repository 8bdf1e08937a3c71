"""The parser's nesting limit: hostile depth is a parse error, not a crash.

Deep nesting used to raise ``RecursionError`` in the parser (parentheses,
``if``s, blocks) or, for a long ``x + x + ...`` chain that parsed, in the
printer and EPDG builder.  Either way the grade was an uncacheable
``error``.  The parser now counts nesting, left-associative chains
included, and rejects anything past :data:`repro.java.parser.MAX_DEPTH`
with a positioned syntax error.
"""

from __future__ import annotations

import pytest

from repro.core.pipeline import BatchGrader
from repro.errors import JavaSyntaxError
from repro.java import parse_submission
from repro.java.parser import MAX_DEPTH
from repro.kb import all_assignment_names, get_assignment
from repro.synth.generator import sample_submissions
from repro.testing.functional import run_tests_on_source

_ASSIGNMENT = get_assignment("assignment1")
_REFERENCE = _ASSIGNMENT.reference_solutions[0]


def _inject(statement: str) -> str:
    """The reference solution with ``statement`` inside its entry method."""
    return _REFERENCE.replace("int i = 0;", "int i = 0;\n" + statement, 1)


#: Each shape nests ``n`` times, inside the tested entry method so that
#: the interpreter compiles and runs it under the repair+perf profile.
SHAPES = {
    "parentheses": lambda n: _inject(
        "int z = " + "(" * n + "1" + ")" * n + ";"),
    "ifs": lambda n: _inject(
        "if (i >= 0) {" * n + " odd += 0; " + "}" * n),
    "blocks": lambda n: _inject("{" * n + " odd += 0; " + "}" * n),
    "plus-chain": lambda n: _inject(
        "int z = " + " + ".join(["i"] * n) + ";"),
    "unary-chain": lambda n: _inject("int z = " + "- " * n + "i;"),
    "call-chain": lambda n: _inject(
        "String z = \"a\"" + ".trim()" * n + ";"),
}

#: The sizes that crashed before the limit existed.
HOSTILE = {"parentheses": 140, "ifs": 250, "blocks": 1000, "plus-chain": 600}


def _parses(source: str) -> bool:
    try:
        parse_submission(source)
    except JavaSyntaxError:
        return False
    return True


def _largest_parsing(shape: str) -> int:
    n = 1
    while _parses(SHAPES[shape](n + 1)):
        n += 1
    return n


@pytest.fixture(scope="module")
def graders():
    return {
        "plain": BatchGrader(_ASSIGNMENT, cache=False),
        "repair+perf": BatchGrader(
            _ASSIGNMENT, cache=False, repair=True, perf=True
        ),
    }


def _statuses(graders, source):
    return {
        name: grader.grade_batch([source]).reports[0].status
        for name, grader in graders.items()
    }


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_limit_is_exact_and_positioned(shape):
    n = _largest_parsing(shape)
    # every shape costs at most two levels per nesting step
    assert n >= MAX_DEPTH // 2 - 5
    with pytest.raises(JavaSyntaxError) as caught:
        parse_submission(SHAPES[shape](n + 1))
    assert f"deeper than {MAX_DEPTH}" in str(caught.value)
    assert caught.value.line > 0 and caught.value.column > 0


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_deepest_accepted_shape_grades_cleanly(graders, shape):
    n = _largest_parsing(shape)
    source = SHAPES[shape](n)
    for profile, status in _statuses(graders, source).items():
        assert status in ("ok", "rejected"), (shape, n, profile)
    # the deep code is behavior-neutral, so the functional tests pass
    # once the interpreter has compiled and run it
    assert run_tests_on_source(source, _ASSIGNMENT.tests).passed
    for profile, status in _statuses(graders, SHAPES[shape](n + 1)).items():
        assert status == "parse-error", (shape, n + 1, profile)


@pytest.mark.parametrize("shape", sorted(HOSTILE))
def test_hostile_nesting_is_a_parse_error(graders, shape):
    source = SHAPES[shape](HOSTILE[shape])
    assert set(_statuses(graders, source).values()) == {"parse-error"}


@pytest.mark.parametrize("name", all_assignment_names())
def test_kb_references_and_synth_samples_parse(name):
    assignment = get_assignment(name)
    for source in assignment.reference_solutions:
        parse_submission(source)
    for submission in sample_submissions(assignment.space(), 40, seed=11):
        parse_submission(submission.source)
