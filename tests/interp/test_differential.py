"""Differential testing: compiled engine vs. the vendored tree-walker.

The closure-compiled runtime (:mod:`repro.interp.compiler`) must be
byte-identical in behavior to the original tree-walking interpreter,
which is frozen verbatim as ``benchmarks/_interp_reference.py``.  These
tests execute synth-generated *correct and seeded-defect* variants of
all twelve assignments, plus a hand-written corpus of edge constructs,
through both engines and require identical:

* outcomes (return value, stdout, step count) on success,
* exception type and message on failure (object addresses aside),
* partial stdout produced before a failure,
* full trace-event streams (variable assignments and output, with the
  method attribution quirks of the original preserved),
* budget-exhaustion behavior at exact step boundaries (the compiled
  engine charges statement ticks and loop iterations in its own
  closures, so the boundary is where a charging bug would show).
"""

from __future__ import annotations

import importlib.util
import pathlib
import re
import sys

import pytest

from repro.errors import BudgetExceededError, JavaRuntimeError
from repro.interp import Interpreter, Tracer, clear_program_cache
from repro.java import parse_submission
from repro.kb import all_assignment_names, get_assignment
from repro.synth.generator import sample_submissions
from repro.testing.functional import _materialize_argument

_REPO = pathlib.Path(__file__).resolve().parents[2]
_spec = importlib.util.spec_from_file_location(
    "_interp_reference", _REPO / "benchmarks" / "_interp_reference.py"
)
assert _spec is not None and _spec.loader is not None
reference = importlib.util.module_from_spec(_spec)
sys.modules[_spec.name] = reference
_spec.loader.exec_module(reference)

#: Step budget for differential runs.  Small enough that seeded-defect
#: variants which loop forever stay cheap in the (slow) reference
#: engine, large enough that every correct variant finishes.
_BUDGET = 20_000

#: Synthetic variants sampled per assignment (index 0 — the reference
#: solution — is always included; the rest mix correct and defective
#: options).
_VARIANTS = 12


def _run_one(interpreter, method, arguments):
    """Normalized observation of one execution on either engine."""
    tracer = interpreter._tracer  # same attribute name on both engines
    try:
        result = interpreter.run(method, [
            _materialize_argument(a) for a in arguments
        ])
    except Exception as error:  # noqa: BLE001 - every divergence matters
        return {
            "outcome": "error",
            "type": type(error).__name__,
            # each engine has its own class-reference class, whose
            # default repr differs by module and address alone
            "message": re.sub(r"<(?:[\w.]+\.)?(\w+) object at 0x[0-9a-f]+>",
                              r"<\1 object>", str(error)),
            "partial_stdout": interpreter.stdout,
            "events": _canonical_events(tracer.events),
        }
    return {
        "outcome": "ok",
        "stdout": result.stdout,
        "return": _canonical(result.return_value),
        "steps": result.steps,
        "events": _canonical_events(tracer.events),
    }


def _canonical_events(events):
    """Event streams with runtime objects compared by type, not identity.

    Both engines allocate their own ``ScannerObject``/``StringBuilder``
    instances, so the snapshots in otherwise-identical traces differ by
    ``id()`` alone; everything else (primitives, strings, array tuples)
    compares by value.
    """
    return [
        (event.name, _canonical(event.value), event.method)
        for event in events
    ]


def _canonical(value):
    """Return values compared structurally (arrays by contents)."""
    from repro.interp.values import JavaArray, JavaChar

    if isinstance(value, JavaArray):
        return ("array", value.element_type,
                tuple(_canonical(v) for v in value.elements))
    if isinstance(value, JavaChar):
        return ("char", value.char)
    if isinstance(value, tuple):
        return tuple(_canonical(v) for v in value)
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    return ("object", type(value).__name__)


def _compiled(source, test, budget=_BUDGET):
    return Interpreter(
        parse_submission(source),
        files=test.files_dict(),
        stdin=test.stdin,
        step_budget=budget,
        tracer=Tracer(),
    )


def _reference(source, test, budget=_BUDGET):
    return reference.Interpreter(
        parse_submission(source),
        files=test.files_dict(),
        stdin=test.stdin,
        step_budget=budget,
        tracer=reference.Tracer() if hasattr(reference, "Tracer") else None,
    )


def _assert_identical(source, test, budget=_BUDGET, context=""):
    got = _run_one(_compiled(source, test, budget), test.method,
                   test.arguments)
    want = _run_one(_reference(source, test, budget), test.method,
                    test.arguments)
    assert got == want, (
        f"divergence {context}\n--- compiled ---\n{got}\n"
        f"--- reference ---\n{want}\n--- source ---\n{source}"
    )
    return want


@pytest.mark.parametrize("name", all_assignment_names())
def test_differential_fuzz(name):
    """Correct + seeded-defect variants agree on every functional test."""
    clear_program_cache()
    assignment = get_assignment(name)
    space = assignment.space()
    saw_defect = False
    for submission in sample_submissions(space, _VARIANTS, seed=1009):
        saw_defect = saw_defect or not submission.all_options_correct
        budget_exhausted = False
        for test in assignment.tests:
            observed = _assert_identical(
                submission.source, test,
                context=f"{name}#{submission.index} on {test.method}"
                        f"({test.arguments!r})",
            )
            # mirror run_tests: once a variant proves non-terminating,
            # skip its remaining inputs (same verdict, pure cost)
            if observed["outcome"] == "error" and \
                    observed["type"] == "BudgetExceededError":
                budget_exhausted = True
                break
        if budget_exhausted:
            continue
    assert saw_defect, "sample contained no seeded-defect variant"


class _EdgeTest:
    stdin = ""

    def __init__(self, method, arguments):
        self.method = method
        self.arguments = arguments

    @staticmethod
    def files_dict():
        return {}


_INT_MAX = 2 ** 31 - 1

#: Hand-written sources for the constructs whose compiled form has no
#: variant of its own: constant conditions, int wrap, literal divisors,
#: string concatenation, every print arity, and static-class dispatch.
_EDGE_CASES = {
    "while-true-break": (
        "int f(int n) { int i = 0; while (true) { i++;"
        " if (i >= n) break; } return i; }", [5]),
    "for-ever": (
        "int f(int n) { int s = 0; for (int i = 0; ; i++) {"
        " if (i > n) { break; } s += i; }"
        " for (;;) { s++; if (s > 40) break; } return s; }", [4]),
    "if-constant": (
        "int f(int n) { int t = 0; if (true) t += 1; if (false) t += 2;"
        " if (true) { t += 4; } else { t += 8; }"
        " if (false) { t += 16; } else { while (n > 0) { n--; t++; } }"
        " for (int i = 0; i < 2; i++) { t += i; } return t; }", [3]),
    "short-circuit-constant": (
        "boolean f(int n) { boolean a = false && n > 0;"
        " boolean b = true || n > 0; boolean c = true && n > 0;"
        " boolean d = false || n > 0; int e = true ? n : -n;"
        " int g = false ? n : -n;"
        " System.out.println(a + \" \" + b + \" \" + c + \" \" + d"
        " + \" \" + e + \" \" + g); return a || b; }", [2]),
    "constant-and-non-boolean": (
        "boolean f(int n) { return true && n; }", [1]),
    "int-wrap": (
        "int f(int x) { int m = Integer.MAX_VALUE; int a = x + 1;"
        " int b = x * 2; int c = m + 1; int d = m * 2;"
        " System.out.println(a + \" \" + b + \" \" + c + \" \" + d);"
        " return a - b; }", [_INT_MAX]),
    "div-literal-zero": ("int f(int x) { return x / 0; }", [7]),
    "rem-literal-zero": ("int f(int x) { return x % 0; }", [7]),
    "double-div-literal-zero": (
        "double f(double x) { return x / 0; }", [1.5]),
    "concat": (
        "String f(int x) { char c = 'a'; int d = c + x;"
        " return \"a\" + x + (x + \"a\") + d + (c + 1) + (c + \"b\"); }",
        [3]),
    "print-arities": (
        "void f(int x) { System.out.println(); System.out.println(x);"
        " System.out.println(x, x + 1); System.out.print(x);"
        " System.out.printf(\"%d-%s.\", x, \"y\"); }", [9]),
    "static-calls": (
        "int f(int x) { int a = Math.max(x, 3) + Math.abs(-x);"
        " int b = Integer.parseInt(\"12\");"
        " boolean c = Character.isDigit('5');"
        " String s = String.valueOf(x);"
        " return a + b + (c ? 1 : 0) + s.length(); }", [4]),
    "local-shadows-math": (
        "int f(int x) { int Math = x; return Math.max(x, 1); }", [2]),
    "system-unknown-method": ("void f(int x) { System.foo(x); }", [1]),
}


@pytest.mark.parametrize("case", sorted(_EDGE_CASES))
def test_edge_corpus(case):
    """Edge constructs agree at the normal budget and at exact-step ±1."""
    source, arguments = _EDGE_CASES[case]
    test = _EdgeTest("f", arguments)
    observed = _assert_identical(source, test, context=case)
    if observed["outcome"] != "ok":
        return
    exact = observed["steps"]
    for budget in (exact - 1, exact, exact + 1):
        _assert_identical(source, test, budget=budget,
                          context=f"{case} budget={budget} (exact={exact})")


def test_budget_edge_exact_boundary():
    """Step charging must raise at exactly the reference's step."""
    source = """
    int f(int n) {
        int total = 0;
        int extra = 1;
        for (int i = 0; i < n; i++) {
            int a = i * 2;
            int b = a + extra;
            total = total + b;
        }
        return total + extra;
    }
    """

    class _Test:
        stdin = ""
        method = "f"
        arguments = [7]

        @staticmethod
        def files_dict():
            return {}

    test = _Test()
    exact = _run_one(_compiled(source, test, 10_000), "f", [7])["steps"]
    for budget in (exact - 2, exact - 1, exact, exact + 1):
        _assert_identical(source, test, budget=budget,
                          context=f"budget={budget} (exact={exact})")


def test_stack_overflow_boundary():
    """Java-level depth accounting: the cap raises a JavaRuntimeError."""
    source = "int f(int n) { return f(n + 1); }"
    unit = parse_submission(source)
    interpreter = Interpreter(unit, step_budget=10_000_000)
    with pytest.raises(JavaRuntimeError) as caught:
        interpreter.run("f", [0])
    assert isinstance(caught.value, BudgetExceededError)
    assert str(caught.value) == (
        "StackOverflowError: call depth exceeded invoking f"
    )

    class _Test:
        stdin = ""
        method = "f"
        arguments = [0]

        @staticmethod
        def files_dict():
            return {}

    _assert_identical(source, _Test(), budget=10_000_000,
                      context="stack overflow")


def test_depth_boundary_is_exact():
    """100 Java frames complete; the 101st overflows — in both engines."""
    source = """
    int f(int n) { if (n <= 1) { return 1; } return n + f(n - 1); }
    """

    class _Test:
        stdin = ""
        method = "f"
        arguments = [100]

        @staticmethod
        def files_dict():
            return {}

    # f(100) nests exactly 100 Java frames: the cap allows it
    observed = _assert_identical(source, _Test(), budget=10_000,
                                 context="depth 100")
    assert observed["outcome"] == "ok"

    class _Deep(_Test):
        arguments = [101]

    observed = _assert_identical(source, _Deep(), budget=10_000,
                                 context="depth 101")
    assert observed["outcome"] == "error"
    assert observed["message"].startswith("StackOverflowError")
