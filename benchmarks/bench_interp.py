"""Execution engine benchmark: closure-compiled interpreter vs. the
seed tree-walker.

The workload models what actually dominates campaign and repair wall
time: running a functional-test suite again and again over a
*duplicate-heavy* cohort (real MOOC cohorts repeat identical sources;
the repair engine re-verifies every candidate against the same suite).
For each of the twelve assignments we sample correct and seeded-defect
variants from the synthetic error model, duplicate each one several
times, and run the full test ladder repeatedly through

* the **reference** engine — the pre-rewrite tree-walking interpreter,
  vendored verbatim in ``benchmarks/_interp_reference.py``; and
* the **compiled** engine — ``repro.interp`` after the closure
  compilation pass, with the source-keyed compiled-program cache on.

Both engines see identical parsed units (parsing is frontend-cached in
the production pipeline, so it is hoisted out of the timed region for
both sides equally).  The gate requires:

* byte-identical outcomes — stdout, return value, step count, and
  error text per test, with the same skip-after-budget-exhaustion
  semantics as :func:`repro.testing.functional.run_tests`; and
* an end-to-end speedup of at least 5x on the full workload
  (a lower bar under ``--quick``, which runs a smaller cohort on noisy
  CI machines and does not rewrite the checked-in results).

Run standalone (CI smoke-tests ``--quick``)::

    PYTHONPATH=src python benchmarks/bench_interp.py [--quick]

or under pytest::

    PYTHONPATH=src python -m pytest benchmarks/bench_interp.py -q

Full-run results land in ``BENCH_interp.json`` at the repo root.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import sys
import time
from pathlib import Path

from repro.errors import BudgetExceededError, JavaRuntimeError, ReproError
from repro.interp import Interpreter, clear_program_cache, program_cache_stats
from repro.interp.values import JavaArray, JavaChar
from repro.java import parse_submission
from repro.kb import all_assignment_names, get_assignment
from repro.synth import sample_submissions
from repro.testing.functional import _materialize_argument

_HERE = Path(__file__).resolve().parent
RESULT_PATH = _HERE.parent / "BENCH_interp.json"

_spec = importlib.util.spec_from_file_location(
    "_interp_reference", _HERE / "_interp_reference.py"
)
assert _spec is not None and _spec.loader is not None
reference = importlib.util.module_from_spec(_spec)
sys.modules[_spec.name] = reference
_spec.loader.exec_module(reference)

#: Step budget per test run.  Small enough that the seeded defects which
#: loop forever stay affordable on the (slow) reference engine, large
#: enough that every terminating variant finishes untouched.
STEP_BUDGET = 20_000

#: Distinct variants sampled per assignment / duplicates of each /
#: times the whole suite is re-run over the cohort.
FULL_SHAPE = (8, 3, 5)
QUICK_SHAPE = (3, 2, 2)

#: Required end-to-end speedup.  The full run gates the compiled engine's
#: floor; the CI smoke run tolerates shared-runner noise on a smaller
#: cohort.
FULL_SPEEDUP = 5.0
QUICK_SPEEDUP = 1.5


def _canonical(value):
    """Return values compared structurally (arrays by contents)."""
    if isinstance(value, JavaArray):
        return ("array", value.element_type,
                tuple(_canonical(v) for v in value.elements))
    if isinstance(value, JavaChar):
        return ("char", value.char)
    return value


def _run_suite(make_interpreter, unit, tests):
    """One pass of the test ladder with ``run_tests`` skip semantics.

    Returns the per-test outcome tuples the identity gate compares:
    ``("ok", stdout, return, steps)`` / ``("error", message)`` /
    ``("skipped", message)``.
    """
    outcomes = []
    timed_out = False
    for test in tests:
        if timed_out:
            outcomes.append(
                ("skipped", "skipped: earlier test exceeded the step budget")
            )
            continue
        arguments = [_materialize_argument(a) for a in test.arguments]
        interpreter = make_interpreter(unit, test)
        try:
            execution = interpreter.run(test.method, arguments)
        except BudgetExceededError as error:
            timed_out = True
            outcomes.append(("error", str(error)))
            continue
        except (JavaRuntimeError, ReproError) as error:
            outcomes.append(("error", str(error)))
            continue
        outcomes.append((
            "ok",
            execution.stdout,
            _canonical(execution.return_value),
            execution.steps,
        ))
    return outcomes


def build_cohort(variants: int, duplicates: int, seed: int = 17):
    """``[(assignment_name, source)]`` over all twelve assignments.

    Each sampled variant (the reference solution plus a seeded mix of
    correct and defective options) appears ``duplicates`` times — the
    duplicate-heavy shape that lets the compiled-program cache pay off.
    """
    cohort = []
    for name in all_assignment_names():
        space = get_assignment(name).space()
        for submission in sample_submissions(space, variants, seed=seed):
            for _ in range(duplicates):
                cohort.append((name, submission.source))
    return cohort


def run_comparison(variants, duplicates, ladder, verbose=True):
    """Time both engines over the cohort; returns the result dict."""
    cohort = build_cohort(variants, duplicates)
    tests_by_name = {
        name: get_assignment(name).tests for name in all_assignment_names()
    }
    # parsing is frontend-cached in production: hoist it for both sides
    units = {}
    for name, source in cohort:
        if source not in units:
            units[source] = parse_submission(source)

    started = time.perf_counter()
    reference_outcomes = []
    for name, source in cohort * ladder:
        reference_outcomes.append(_run_suite(
            lambda unit, t: reference.Interpreter(
                unit, files=t.files_dict(), stdin=t.stdin,
                step_budget=STEP_BUDGET,
            ),
            units[source], tests_by_name[name],
        ))
    reference_wall = time.perf_counter() - started

    # fresh parses for the compiled side: the program cache must earn
    # its hits through the source key, not through shared unit memos
    units = {}
    for name, source in cohort:
        if source not in units:
            units[source] = parse_submission(source)
    clear_program_cache()
    started = time.perf_counter()
    compiled_outcomes = []
    for name, source in cohort * ladder:
        compiled_outcomes.append(_run_suite(
            lambda unit, t, key=source: Interpreter(
                unit, files=t.files_dict(), stdin=t.stdin,
                step_budget=STEP_BUDGET, cache_key=key,
            ),
            units[source], tests_by_name[name],
        ))
    compiled_wall = time.perf_counter() - started

    identical = reference_outcomes == compiled_outcomes
    divergences = sum(
        1 for a, b in zip(reference_outcomes, compiled_outcomes) if a != b
    )
    cache = program_cache_stats()
    results = {
        "assignments": len(all_assignment_names()),
        "cohort_size": len(cohort),
        "unique_sources": len(units),
        "ladder": ladder,
        "suite_runs": len(cohort) * ladder,
        "step_budget": STEP_BUDGET,
        "reference_wall_seconds": round(reference_wall, 3),
        "compiled_wall_seconds": round(compiled_wall, 3),
        "speedup": round(reference_wall / compiled_wall, 2)
        if compiled_wall else 0.0,
        "identical_outcomes": identical,
        "divergent_suites": divergences,
        "compile_cache": {
            "hits": cache["hits"], "misses": cache["misses"],
        },
    }
    if verbose:
        print(f"cohort: {results['cohort_size']} submissions "
              f"({results['unique_sources']} unique) x ladder {ladder} "
              f"over {results['assignments']} assignments")
        print(f"reference: {reference_wall:8.3f}s")
        print(f"compiled:  {compiled_wall:8.3f}s  "
              f"(cache {cache['hits']} hits / {cache['misses']} misses)")
        print(f"speedup:   {results['speedup']:.2f}x   identical outcomes: "
              f"{identical}")
    return results


def gate(results, minimum_speedup) -> list[str]:
    """The acceptance gate; returns failure messages (empty = pass)."""
    failures = []
    if not results["identical_outcomes"]:
        failures.append(
            f"{results['divergent_suites']} suite runs diverged from the "
            "reference tree-walker"
        )
    if results["speedup"] < minimum_speedup:
        failures.append(
            f"speedup {results['speedup']:.2f}x < required "
            f"{minimum_speedup:.1f}x"
        )
    return failures


# -- pytest entry points -------------------------------------------------

def test_compiled_engine_is_byte_identical():
    variants, duplicates, ladder = QUICK_SHAPE
    results = run_comparison(variants, duplicates, ladder, verbose=False)
    assert results["identical_outcomes"], (
        f"{results['divergent_suites']} divergent suites"
    )


def test_compiled_engine_reuses_cached_programs():
    variants, duplicates, ladder = QUICK_SHAPE
    results = run_comparison(variants, duplicates, ladder, verbose=False)
    cache = results["compile_cache"]
    assert cache["misses"] == results["unique_sources"]
    assert cache["hits"] > cache["misses"]


# -- standalone entry point ----------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="small cohort (CI smoke test); does not "
                             "rewrite BENCH_interp.json")
    parser.add_argument("--no-write", action="store_true",
                        help="skip writing BENCH_interp.json")
    args = parser.parse_args(argv)
    variants, duplicates, ladder = QUICK_SHAPE if args.quick else FULL_SHAPE
    minimum = QUICK_SPEEDUP if args.quick else FULL_SPEEDUP
    results = run_comparison(variants, duplicates, ladder)
    failures = gate(results, minimum)
    payload = {
        "benchmark": "interp",
        "mode": "quick" if args.quick else "full",
        "gate": f">={minimum:.1f}x speedup with byte-identical outcomes",
        "passed": not failures,
        **results,
    }
    if not args.quick and not args.no_write:
        RESULT_PATH.write_text(json.dumps(payload, indent=2) + "\n")
        print(f"wrote {RESULT_PATH}")
    for failure in failures:
        print(f"FAIL: {failure}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
