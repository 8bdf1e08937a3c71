"""Matcher engine benchmark: naive reference paths vs the optimized engine.

Two workloads exercise the two optimization layers:

* ``no_headers_multi_method`` — the Algorithm 2 hot case.  The
  esc-LAB-3-P1-V1 reference solution with its methods renamed (so header
  binding cannot shortcut the assignment) plus distractor helper methods,
  graded without header enforcement.  The naive path sweeps every
  injective method assignment, re-grading each (expected, submission)
  pair per permutation; the optimized engine grades each pair once behind
  a memo and solves a maximum-weight bipartite assignment.  The render
  must be byte-identical and the speedup at least
  :data:`REQUIRED_NO_HEADERS_SPEEDUP`.

* ``kb_standard`` — all twelve knowledge-base assignments grading their
  own reference solutions with headers enforced (the common MOOC
  configuration).  Here assignment search is trivial, so the win comes
  from Algorithm 1: compiled search plans and three exact prunes of Φ
  (degree, variable arity and γ-free node content) over indexed EPDGs.
  The naive baseline is the paper-literal path
  (``strategy="permutation"``, ``order="naive"``);
  scores and comment statuses must agree exactly, and the render must be
  byte-identical to the same-order permutation path (variable bindings —
  and thus feedback detail wording — are legitimately order-sensitive,
  see ``bench_ablation_ordering.py``).

Full-run results are written to ``BENCH_matcher.json`` at the
repository root (``--quick`` writes nothing unless given ``--json``),
including the matcher's instrumentation counters (candidates pruned,
nodes visited) for the optimized runs.

Run standalone (CI smoke-tests ``--quick``)::

    PYTHONPATH=src python benchmarks/bench_matcher_engine.py [--quick]

or under pytest::

    PYTHONPATH=src python -m pytest benchmarks/bench_matcher_engine.py -q
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from repro.instrumentation import collecting
from repro.java import parse_submission
from repro.kb import get_assignment
from repro.kb.registry import all_assignment_names
from repro.matching.submission import match_graphs
from repro.pdg.builder import extract_all_epdgs

#: Required speedup of the bipartite engine over the permutation sweep
#: on the no-headers / many-methods workload.
REQUIRED_NO_HEADERS_SPEEDUP = 3.0
#: Distractor methods added to the no-headers submission (7 methods
#: total against 2 expected ones: a P(7, 2) = 42 assignment sweep).
DISTRACTOR_METHODS = 5
#: Default JSON report location (repository root).
DEFAULT_JSON = Path(__file__).resolve().parents[1] / "BENCH_matcher.json"


def build_no_headers_workload():
    """EPDGs for a renamed esc-LAB-3-P1-V1 solution plus distractors.

    Renaming ``fact``/``lab3p1`` forces the matcher to *discover* the
    method assignment; the distractor helpers (parseable but matching no
    expected method) inflate the assignment space the way a student's
    utility methods would.
    """
    assignment = get_assignment("esc-LAB-3-P1-V1")
    source = (
        assignment.reference_solutions[0]
        .replace("fact", "m_fact")
        .replace("lab3p1", "m_drv")
    )
    distractors = "\n".join(
        f"int helper{i}(int a{i}) {{\n"
        f"    int r{i} = a{i} + {i};\n"
        f"    while (r{i} < {10 + i}) {{\n"
        f"        r{i} += {i + 1};\n"
        f"    }}\n"
        f"    System.out.println(r{i});\n"
        f"    return r{i};\n"
        f"}}\n"
        for i in range(DISTRACTOR_METHODS)
    )
    unit = parse_submission(source + "\n" + distractors)
    graphs = extract_all_epdgs(unit, assignment.synthesize_else_conditions)
    return assignment, graphs


def build_kb_workload():
    """(assignment, EPDGs of its reference solution) for all twelve rows."""
    workload = []
    for name in all_assignment_names():
        assignment = get_assignment(name)
        unit = parse_submission(assignment.reference_solutions[0])
        graphs = extract_all_epdgs(
            unit, assignment.synthesize_else_conditions
        )
        workload.append((assignment, graphs))
    return workload


def _timed(rounds, run):
    """Best-of-``rounds`` wall time and the (last) result of ``run``."""
    best = float("inf")
    result = None
    for _ in range(rounds):
        started = time.perf_counter()
        result = run()
        best = min(best, time.perf_counter() - started)
    return best, result


def run_no_headers(rounds=5, verbose=True):
    """Permutation sweep vs bipartite engine without header binding."""
    assignment, graphs = build_no_headers_workload()

    def naive():
        return match_graphs(graphs, assignment.expected_methods, False,
                            strategy="permutation")

    def optimized():
        return match_graphs(graphs, assignment.expected_methods, False,
                            strategy="bipartite")

    naive_s, naive_outcome = _timed(rounds, naive)
    with collecting() as counters:
        optimized_s, optimized_outcome = _timed(rounds, optimized)
    identical = naive_outcome.render() == optimized_outcome.render()
    speedup = naive_s / optimized_s
    stats = {
        "methods": len(graphs),
        "expected_methods": len(assignment.expected_methods),
        "naive_seconds": round(naive_s, 6),
        "optimized_seconds": round(optimized_s, 6),
        "speedup": round(speedup, 2),
        "required_speedup": REQUIRED_NO_HEADERS_SPEEDUP,
        "byte_identical": identical,
        "method_assignment": dict(
            sorted(optimized_outcome.method_assignment.items())
        ),
        "counters": dict(sorted(counters.counters.items())),
    }
    if verbose:
        print(f"no-headers workload: {stats['methods']} submission methods, "
              f"{stats['expected_methods']} expected")
        print(f"  permutation sweep {naive_s * 1000:8.1f} ms")
        print(f"  bipartite engine  {optimized_s * 1000:8.1f} ms   "
              f"{speedup:.1f}x "
              f"(required >= {REQUIRED_NO_HEADERS_SPEEDUP:.1f}x)")
        print(f"  byte-identical render: {identical}")
    return stats


def run_kb_standard(rounds=3, verbose=True):
    """All twelve KB assignments, reference solutions, headers enforced."""
    workload = build_kb_workload()

    def grade_all(strategy, order):
        return [
            match_graphs(graphs, assignment.expected_methods,
                         assignment.enforce_headers,
                         strategy=strategy, order=order)
            for assignment, graphs in workload
        ]

    naive_s, naive_outcomes = _timed(
        rounds, lambda: grade_all("permutation", "naive")
    )
    with collecting() as counters:
        optimized_s, optimized_outcomes = _timed(
            rounds, lambda: grade_all("bipartite", "connectivity")
        )
    # the pre-PR engine path: same ordering, unmemoized sweep — renders
    # must match this byte-for-byte
    _, reference_outcomes = _timed(
        1, lambda: grade_all("permutation", "connectivity")
    )
    equivalent = all(
        naive.score == optimized.score
        and [c.status for c in naive.comments]
        == [c.status for c in optimized.comments]
        for naive, optimized in zip(naive_outcomes, optimized_outcomes)
    )
    identical = all(
        reference.render() == optimized.render()
        for reference, optimized in zip(
            reference_outcomes, optimized_outcomes
        )
    )
    speedup = naive_s / optimized_s
    stats = {
        "assignments": len(workload),
        "naive_seconds": round(naive_s, 6),
        "optimized_seconds": round(optimized_s, 6),
        "speedup": round(speedup, 2),
        "outcomes_equivalent": equivalent,
        "byte_identical_same_order": identical,
        "counters": dict(sorted(counters.counters.items())),
    }
    if verbose:
        print(f"KB standard workload: {stats['assignments']} assignments, "
              f"reference solutions, headers enforced")
        print(f"  naive engine      {naive_s * 1000:8.1f} ms")
        print(f"  optimized engine  {optimized_s * 1000:8.1f} ms   "
              f"{speedup:.1f}x")
        print(f"  scores/statuses equivalent: {equivalent}; "
              f"render identical to same-order sweep: {identical}")
    return stats


def run_benchmark(quick=False, verbose=True):
    rounds = 2 if quick else 5
    no_headers = run_no_headers(rounds=rounds, verbose=verbose)
    kb_standard = run_kb_standard(
        rounds=1 if quick else 3, verbose=verbose
    )
    return {
        "benchmark": "matcher_engine",
        "mode": "quick" if quick else "full",
        "workloads": {
            "no_headers_multi_method": no_headers,
            "kb_standard": kb_standard,
        },
    }


def check(report):
    """(ok, failures) against the benchmark's acceptance gates."""
    failures = []
    no_headers = report["workloads"]["no_headers_multi_method"]
    kb = report["workloads"]["kb_standard"]
    if not no_headers["byte_identical"]:
        failures.append("no-headers render differs from the naive sweep")
    if no_headers["speedup"] < REQUIRED_NO_HEADERS_SPEEDUP:
        failures.append(
            f"no-headers speedup {no_headers['speedup']:.2f}x < "
            f"{REQUIRED_NO_HEADERS_SPEEDUP}x"
        )
    if not kb["outcomes_equivalent"]:
        failures.append("KB outcomes differ from the naive engine")
    if not kb["byte_identical_same_order"]:
        failures.append("KB render differs from the same-order sweep")
    if kb["speedup"] < 1.0:
        failures.append(
            f"optimized engine slower than naive on the KB workload "
            f"({kb['speedup']:.2f}x)"
        )
    return not failures, failures


# -- pytest entry points -------------------------------------------------

def test_no_headers_bipartite_speedup():
    stats = run_no_headers(rounds=2, verbose=False)
    assert stats["byte_identical"], (
        "bipartite render differs from the permutation sweep"
    )
    assert stats["method_assignment"] == {
        "fact": "m_fact", "lab3p1": "m_drv"
    }
    assert stats["speedup"] >= REQUIRED_NO_HEADERS_SPEEDUP, (
        f"speedup {stats['speedup']:.2f}x < {REQUIRED_NO_HEADERS_SPEEDUP}x"
    )


def test_kb_standard_equivalent_and_not_slower():
    stats = run_kb_standard(rounds=1, verbose=False)
    assert stats["outcomes_equivalent"]
    assert stats["byte_identical_same_order"]
    assert stats["speedup"] >= 1.0


# -- standalone entry point ----------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="fewer timing rounds (CI smoke test); does "
                             f"not rewrite {DEFAULT_JSON.name}")
    parser.add_argument("--json", type=Path, default=None,
                        help=f"report path (default {DEFAULT_JSON.name}, "
                             "none with --quick)")
    args = parser.parse_args(argv)
    report = run_benchmark(quick=args.quick)
    out = args.json or (None if args.quick else DEFAULT_JSON)
    if out is not None:
        out.write_text(json.dumps(report, indent=2) + "\n")
        print(f"wrote {out}")
    ok, failures = check(report)
    for failure in failures:
        print(f"FAIL: {failure}")
    print("PASS" if ok else "FAIL")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
