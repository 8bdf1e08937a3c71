"""Numeric literals as Java reads them: octal, hex, range, overflow.

The parser used to convert integer literals with Python's ``int(text,
0)``, which rejects a leading zero, and doubles with ``float``, which
overflows to infinity.  Legal Java octal (``010``) crashed the parse,
malformed shapes (``09``, ``0x``) raised ``ValueError`` instead of a
syntax error, and ``1e999`` crashed the printer; every one graded as an
uncacheable ``error``.  Octal now reads as octal, and each malformed
shape is a positioned syntax error, a cacheable ``parse-error``.  That
every KB reference and synth sample still parses is checked in
``test_parser_depth.py``.

Integer literals are range-checked as ``javac`` checks them: a decimal
must fit its type (only ``-2147483648`` and ``-9223372036854775808L``
reach the minimum), and hex or octal spells a two's-complement bit
pattern of at most 32 (64) bits, so ``0xFFFFFFFF`` is -1.
"""

from __future__ import annotations

import pytest

from repro.core.pipeline import BatchGrader
from repro.errors import JavaSyntaxError
from repro.interp import run_method
from repro.java import parse_expression, parse_submission
from repro.java.printer import print_expression
from repro.kb import get_assignment

_ASSIGNMENT = get_assignment("assignment1")
_REFERENCE = _ASSIGNMENT.reference_solutions[0]


def _inject(statement: str) -> str:
    """The reference solution with ``statement`` inside its entry method."""
    return _REFERENCE.replace("int i = 0;", "int i = 0;\n" + statement, 1)


#: Literal spelling → the statement it is graded in.
LEGAL = {"010": "int z = 010;", "017L": "long z = 017L;"}
MALFORMED = {
    "09": "int z = 09;",
    "0x": "int z = 0x;",
    "0x_": "int z = 0x_;",
    "1e999": "double z = 1e999;",
    "09L": "long z = 09L;",
    "0xL": "long z = 0xL;",
}
#: Statement → the literal javac rejects in it as too large.
OUT_OF_RANGE = {
    "int z = 3000000000;": "3000000000",
    "int z = 2147483648;": "2147483648",
    "int z = 0x100000000;": "0x100000000",
    "int z = 040000000000;": "040000000000",
    "long z = 9223372036854775808L;": "9223372036854775808L",
    "long z = 0x1_0000_0000_0000_0000L;": "0x1_0000_0000_0000_0000L",
    "int z = -2147483649;": "2147483649",
    # the minimum's magnitude only as the *direct* operand of minus
    "int z = -(2147483648);": "2147483648",
    "int z = 1 - 2147483648;": "2147483648",
}


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


@pytest.mark.parametrize("text, value, kind", [
    ("010", 8, "int"),
    ("00", 0, "int"),
    ("0_17", 15, "int"),
    ("017L", 15, "long"),
    ("0", 0, "int"),
    ("1_000", 1000, "int"),
    ("0x1F", 31, "int"),
    ("0x1_fL", 31, "long"),
    ("08.5", 8.5, "double"),
    ("09d", 9.0, "double"),
    ("1e-999", 0.0, "double"),
])
def test_legal_literal_values(text, value, kind):
    literal = parse_expression(text)
    assert (literal.value, literal.kind) == (value, kind)


@pytest.mark.parametrize("text", sorted(MALFORMED))
def test_malformed_literal_is_a_positioned_syntax_error(text):
    source = _inject(MALFORMED[text])
    with pytest.raises(JavaSyntaxError) as caught:
        parse_submission(source)
    line = source.splitlines()[caught.value.line - 1]
    # the error points at the literal itself
    assert line.strip() == MALFORMED[text]
    assert line[caught.value.column - 1:].startswith(text + ";")


@pytest.mark.parametrize("text", sorted(MALFORMED))
def test_malformed_literal_grades_as_parse_error(graders, text):
    source = _inject(MALFORMED[text])
    assert set(_statuses(graders, source).values()) == {"parse-error"}


@pytest.mark.parametrize("text", sorted(LEGAL))
def test_legal_octal_grades_without_error(graders, text):
    for profile, status in _statuses(graders, _inject(LEGAL[text])).items():
        assert status in ("ok", "rejected"), (text, profile)


def test_octal_evaluates_as_octal():
    unit = parse_submission(
        "int f() { int z = 010; long w = 017L; return z + (int) w; }"
    )
    assert run_method(unit, "f", []).return_value == 8 + 15


@pytest.mark.parametrize("statement", sorted(OUT_OF_RANGE))
def test_out_of_range_literal_is_a_positioned_syntax_error(statement):
    source = _inject(statement)
    with pytest.raises(JavaSyntaxError) as caught:
        parse_submission(source)
    assert "out of range" in str(caught.value)
    line = source.splitlines()[caught.value.line - 1]
    assert line[caught.value.column - 1:].startswith(OUT_OF_RANGE[statement])


@pytest.mark.parametrize("statement", sorted(OUT_OF_RANGE))
def test_out_of_range_literal_grades_as_parse_error(graders, statement):
    source = _inject(statement)
    assert set(_statuses(graders, source).values()) == {"parse-error"}


@pytest.mark.parametrize("text, value, kind", [
    ("2147483647", 2147483647, "int"),
    ("-2147483648", -2147483648, "int"),
    ("0x7fffffff", 2147483647, "int"),
    ("0x80000000", -2147483648, "int"),
    ("0xFFFFFFFF", -1, "int"),
    ("037777777777", -1, "int"),
    ("-0xFFFFFFFF", 1, "int"),
    ("-(-2147483648)", -2147483648, "int"),
    ("9223372036854775807L", 9223372036854775807, "long"),
    ("-9223372036854775808L", -9223372036854775808, "long"),
    ("0xFFFFFFFFFFFFFFFFL", -1, "long"),
    ("0xFFFFFFFFL", 4294967295, "long"),
])
def test_boundary_literal_values(text, value, kind):
    literal = parse_expression(text)
    assert (literal.value, literal.kind) == (value, kind)


@pytest.mark.parametrize("body, value", [
    ("int z = 0xFFFFFFFF; return z;", -1),
    ("int z = 037777777777; return z;", -1),
    ("int z = -2147483648; return z;", -2147483648),
    ("int z = -2147483648; return z - 1;", 2147483647),
    ("long z = -9223372036854775808L; return z;", -9223372036854775808),
    ("long z = 0xFFFFFFFFFFFFFFFFL; return z + 1;", 0),
])
def test_boundary_literals_evaluate_as_java(body, value):
    unit = parse_submission("long f() { " + body + " }")
    assert run_method(unit, "f", []).return_value == value


@pytest.mark.parametrize("text", [
    "0xFFFFFFFF", "-0xFFFFFFFF", "037777777777", "0x80000000",
    "-2147483648", "-(-2147483648)", "-9223372036854775808L",
    "0xFFFFFFFFFFFFFFFFL", "~0xFFFFFFFF", "(int) 0xFFFFFFFF",
    "-(int) 0xFFFFFFFF", "x - 0xFFFFFFFF", "-(-x)", "- -x", "-(--x)",
])
def test_printed_literals_parse_back_to_the_same_tree(text):
    tree = parse_expression(text)
    printed = print_expression(tree)
    assert parse_expression(printed) == tree
    assert print_expression(parse_expression(printed)) == printed
