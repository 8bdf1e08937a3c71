"""Frontend benchmark: seed lexer/parser/builder vs the optimized frontend.

Three workloads cover the frontend performance pass end to end:

* ``frontend_cohort`` — a duplicate-heavy cohort (every distinct source
  resubmitted several times, the MOOC shape) across all twelve KB
  assignments.  The naive path is the frozen seed frontend vendored in
  ``_frontend_reference.py`` — char-at-a-time lexer, dataclass tokens,
  uncached printer/variable analysis, no frontend cache — run once per
  submission exactly like the seed engine did.  The optimized path is
  :meth:`repro.core.engine.FeedbackEngine.frontend`: the regex-dispatch
  lexer, parser fast paths, memoized printing/analysis, hash-consed EPDG
  contents, and the engine's source-keyed frontend cache.  Graphs must be
  structurally identical and the speedup at least
  :data:`REQUIRED_FRONTEND_SPEEDUP`; the micro-only speedup (cache
  disabled) is reported alongside.

* ``report_equivalence`` — every distinct source graded twice: through
  the optimized frontend and through reference-built EPDGs fed to the
  same matcher.  Renders and ``to_dict`` JSON must be byte-identical;
  parse-error messages must match the reference lexer/parser's exactly.

* ``warm_store`` — the persistent cache acceptance gate.  Two *separate
  processes* run ``repro.cli grade-batch --cache-dir`` over the same
  cohort; the second must grade nothing: 100% cache hits served from
  disk, zero ``match.*`` counter activity, and report payloads identical
  to the first run's.

Full-run results are written to ``BENCH_frontend.json`` at the
repository root (``--quick`` writes nothing unless given ``--json``),
including the per-phase cost breakdown (parse / epdg_build /
pattern_match / constraint_match / assignment_solve) that
``docs/PERFORMANCE.md`` cites.

Run standalone (CI smoke-tests ``--quick``)::

    PYTHONPATH=src python benchmarks/bench_frontend.py [--quick]

or under pytest::

    PYTHONPATH=src python -m pytest benchmarks/bench_frontend.py -q
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import _frontend_reference as reference  # noqa: E402 - sibling module

from repro.core.engine import FeedbackEngine  # noqa: E402
from repro.instrumentation import collecting  # noqa: E402
from repro.java import parse_submission  # noqa: E402
from repro.kb import get_assignment  # noqa: E402
from repro.kb.registry import all_assignment_names  # noqa: E402
from repro.matching.submission import match_graphs  # noqa: E402

#: Required speedup of the optimized frontend (micro-optimizations plus
#: the engine frontend cache) over the seed frontend on the
#: duplicate-heavy cohort.
REQUIRED_FRONTEND_SPEEDUP = 3.0
#: Resubmission counts cycled over the distinct sources of a cohort:
#: most submissions are duplicates (mean factor 3.2), the shape MOOC
#: cohorts actually have.
DUPLICATION = (8, 4, 2, 1, 1)
#: Synthetic (error-model) variants sampled per assignment on top of the
#: reference solutions.
SYNTHETIC_PER_ASSIGNMENT = 4
#: Default JSON report location (repository root).
DEFAULT_JSON = Path(__file__).resolve().parents[1] / "BENCH_frontend.json"

#: Sources the reference frontend rejects — the error text (message and
#: position) must survive the rewrite byte-for-byte.
BROKEN_SOURCES = (
    "int f() { return 1 + ; }",
    "int f() { int x = 3;\n  /* never closed",
    'int f() { String s = "unterminated\n; }',
    "int f() { if (x > 0) { return 1; }",
    "int f() { int 9lives = 9; }",
)


def build_cohorts(synthetic_per_assignment=SYNTHETIC_PER_ASSIGNMENT):
    """``(assignment, duplicate-heavy source list)`` for every KB row."""
    from repro.synth import sample_submissions

    cohorts = []
    for name in all_assignment_names():
        assignment = get_assignment(name)
        distinct = list(assignment.reference_solutions)
        if assignment.space_factory and synthetic_per_assignment:
            distinct.extend(
                sample.source
                for sample in sample_submissions(
                    assignment.space(), synthetic_per_assignment, seed=7
                )
            )
        seen: set[str] = set()
        unique = [s for s in distinct if not (s in seen or seen.add(s))]
        cohort: list[str] = []
        for index, source in enumerate(unique):
            cohort.extend([source] * DUPLICATION[index % len(DUPLICATION)])
        cohorts.append((assignment, cohort))
    return cohorts


def _graph_snapshot(graphs):
    """Structural fingerprint of a method-name → EPDG mapping."""
    return {
        name: (
            tuple(
                (n.node_id, n.type.value, n.content,
                 tuple(sorted(n.defines)), tuple(sorted(n.uses)))
                for n in graph.nodes
            ),
            frozenset(
                (e.source, e.target, e.type.value) for e in graph.edges
            ),
        )
        for name, graph in graphs.items()
    }


def _timed(rounds, run):
    """Best-of-``rounds`` wall time and the (last) result of ``run``."""
    best = float("inf")
    result = None
    for _ in range(rounds):
        started = time.perf_counter()
        result = run()
        best = min(best, time.perf_counter() - started)
    return best, result


def run_frontend_cohort(rounds=3, verbose=True, cohorts=None):
    """Seed frontend vs optimized frontend over the duplicate cohort."""
    cohorts = cohorts or build_cohorts()

    def naive():
        out = []
        for assignment, cohort in cohorts:
            flag = assignment.synthesize_else_conditions
            for source in cohort:
                out.append(reference.extract_all_epdgs(
                    reference.parse_submission(source), flag
                ))
        return out

    def optimized(cache_size=None):
        out = []
        for assignment, cohort in cohorts:
            engine = (
                FeedbackEngine(assignment) if cache_size is None
                else FeedbackEngine(assignment, frontend_cache_size=cache_size)
            )
            for source in cohort:
                out.append(engine.frontend(source))
        return out

    naive_s, naive_graphs = _timed(rounds, naive)
    micro_s, _ = _timed(rounds, lambda: optimized(cache_size=0))
    optimized_s, optimized_graphs = _timed(rounds, optimized)
    identical = all(
        _graph_snapshot(a) == _graph_snapshot(b)
        for a, b in zip(naive_graphs, optimized_graphs)
    )
    submissions = sum(len(cohort) for _, cohort in cohorts)
    distinct = sum(len(set(cohort)) for _, cohort in cohorts)
    speedup = naive_s / optimized_s
    stats = {
        "submissions": submissions,
        "distinct_sources": distinct,
        "naive_seconds": round(naive_s, 6),
        "micro_seconds": round(micro_s, 6),
        "optimized_seconds": round(optimized_s, 6),
        "micro_speedup": round(naive_s / micro_s, 2),
        "speedup": round(speedup, 2),
        "required_speedup": REQUIRED_FRONTEND_SPEEDUP,
        "graphs_identical": identical,
    }
    if verbose:
        print(f"frontend cohort: {submissions} submissions "
              f"({distinct} distinct) across {len(cohorts)} assignments")
        print(f"  seed frontend        {naive_s * 1000:8.1f} ms")
        print(f"  optimized, no cache  {micro_s * 1000:8.1f} ms   "
              f"{stats['micro_speedup']:.1f}x")
        print(f"  optimized + cache    {optimized_s * 1000:8.1f} ms   "
              f"{speedup:.1f}x (required >= "
              f"{REQUIRED_FRONTEND_SPEEDUP:.1f}x)")
        print(f"  graphs structurally identical: {identical}")
    return stats


def run_report_equivalence(verbose=True, cohorts=None):
    """Reports through either frontend must be byte-identical."""
    cohorts = cohorts or build_cohorts()
    compared = 0
    identical = True
    for assignment, cohort in cohorts:
        engine = FeedbackEngine(assignment)
        flag = assignment.synthesize_else_conditions
        for source in dict.fromkeys(cohort):
            optimized_report = engine.grade(source)
            ref_graphs = reference.extract_all_epdgs(
                reference.parse_submission(source), flag
            )
            # the analysis checks need an AST; hand the reference graphs
            # the fast-parsed unit so diagnostics differ only if the
            # *graphs* differ (which is exactly what this gate detects)
            ref_report = engine.grade_graphs(
                ref_graphs, unit=parse_submission(source)
            )
            compared += 1
            if (
                optimized_report.render() != ref_report.render()
                or json.dumps(optimized_report.to_dict())
                != json.dumps(ref_report.to_dict())
            ):
                identical = False
    errors_identical = True
    engine = FeedbackEngine(get_assignment("assignment1"))
    for source in BROKEN_SOURCES:
        try:
            reference.parse_submission(source)
            errors_identical = False  # reference accepted a broken source
            continue
        except reference.JavaSyntaxError as error:
            expected = str(error)
        report = engine.grade(source)
        if report.parse_error != expected:
            errors_identical = False
    stats = {
        "reports_compared": compared,
        "byte_identical": identical,
        "parse_errors_compared": len(BROKEN_SOURCES),
        "parse_errors_identical": errors_identical,
    }
    if verbose:
        print(f"report equivalence: {compared} reports byte-identical: "
              f"{identical}; {len(BROKEN_SOURCES)} parse errors "
              f"identical: {errors_identical}")
    return stats


def _grade_batch_process(assignment, synthetic, cache_dir):
    """One ``repro.cli grade-batch --cache-dir`` run in a child process."""
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    completed = subprocess.run(
        [sys.executable, "-m", "repro.cli", "grade-batch", assignment,
         "--synthetic", str(synthetic), "--seed", "11",
         "--cache-dir", cache_dir, "--json", "-"],
        cwd=root, env=env, capture_output=True, text=True, check=True,
    )
    return json.loads(completed.stdout)


def _strip_from_cache(payload):
    return [
        {k: v for k, v in item.items() if k != "from_cache"}
        for item in payload["submissions"]
    ]


def run_warm_store(synthetic=40, verbose=True):
    """Second process against a warm ``--cache-dir`` grades nothing."""
    with tempfile.TemporaryDirectory() as cache_dir:
        cold = _grade_batch_process("assignment1", synthetic, cache_dir)
        warm = _grade_batch_process("assignment1", synthetic, cache_dir)
    cold_stats, warm_stats = cold["stats"], warm["stats"]
    warm_counters = warm_stats["counters"]
    stats = {
        "submissions": warm_stats["submissions"],
        "cold_graded": cold_stats["graded"],
        "cold_store_writes": cold_stats["counters"].get(
            "cache.store_writes", 0
        ),
        "warm_graded": warm_stats["graded"],
        "warm_cache_hits": warm_stats["cache_hits"],
        "warm_store_hits": warm_counters.get("cache.store_hits", 0),
        "warm_matcher_idle": not any(
            name.startswith("match.") for name in warm_counters
        ),
        "reports_identical": (
            _strip_from_cache(cold) == _strip_from_cache(warm)
        ),
        "phase_breakdown": {
            name: {
                "ms": cold_stats["phase_ms"][name],
                "calls": cold_stats["phase_calls"].get(name, 0),
            }
            for name in sorted(cold_stats["phase_ms"])
        },
    }
    if verbose:
        print(f"warm store: {stats['submissions']} submissions; cold run "
              f"graded {stats['cold_graded']} "
              f"({stats['cold_store_writes']} persisted)")
        print(f"  warm process graded {stats['warm_graded']}, "
              f"{stats['warm_cache_hits']} cache hits "
              f"({stats['warm_store_hits']} from disk), "
              f"matcher idle: {stats['warm_matcher_idle']}")
        print(f"  reports identical across processes: "
              f"{stats['reports_identical']}")
    return stats


def measure_assignment_solve():
    """Seconds spent in ``assignment_solve`` on a no-headers workload.

    Headers-enforced grading never invokes the assignment DP, so the
    per-phase table gets this number from the multi-method workload the
    matcher benchmark uses.
    """
    assignment = get_assignment("esc-LAB-3-P1-V1")
    source = (
        assignment.reference_solutions[0]
        .replace("fact", "m_fact")
        .replace("lab3p1", "m_drv")
    )
    engine = FeedbackEngine(assignment)
    graphs = engine.frontend(source)
    with collecting() as collector:
        match_graphs(graphs, assignment.expected_methods, False)
    return round(collector.seconds.get("assignment_solve", 0.0), 6)


def run_benchmark(quick=False, verbose=True):
    cohorts = build_cohorts(
        synthetic_per_assignment=2 if quick else SYNTHETIC_PER_ASSIGNMENT
    )
    frontend = run_frontend_cohort(
        rounds=2 if quick else 4, verbose=verbose, cohorts=cohorts
    )
    equivalence = run_report_equivalence(verbose=verbose, cohorts=cohorts)
    warm = run_warm_store(synthetic=16 if quick else 40, verbose=verbose)
    warm["phase_breakdown"]["assignment_solve"] = {
        "ms": round(1000 * measure_assignment_solve(), 3),
        "calls": 1,
        "note": "no-headers multi-method workload; "
                "not invoked when headers are enforced",
    }
    return {
        "benchmark": "frontend",
        "mode": "quick" if quick else "full",
        "workloads": {
            "frontend_cohort": frontend,
            "report_equivalence": equivalence,
            "warm_store": warm,
        },
    }


def check(report):
    """(ok, failures) against the benchmark's acceptance gates."""
    failures = []
    frontend = report["workloads"]["frontend_cohort"]
    equivalence = report["workloads"]["report_equivalence"]
    warm = report["workloads"]["warm_store"]
    if not frontend["graphs_identical"]:
        failures.append("optimized frontend builds different EPDGs")
    if frontend["speedup"] < REQUIRED_FRONTEND_SPEEDUP:
        failures.append(
            f"frontend speedup {frontend['speedup']:.2f}x < "
            f"{REQUIRED_FRONTEND_SPEEDUP}x"
        )
    if not equivalence["byte_identical"]:
        failures.append("reports differ between frontends")
    if not equivalence["parse_errors_identical"]:
        failures.append("parse-error text differs between frontends")
    if warm["warm_graded"] != 0:
        failures.append(
            f"warm process graded {warm['warm_graded']} submissions"
        )
    if warm["warm_cache_hits"] != warm["submissions"]:
        failures.append("warm process missed the cache")
    if not warm["warm_matcher_idle"]:
        failures.append("warm process invoked the matcher")
    if not warm["reports_identical"]:
        failures.append("warm-process reports differ from the cold run's")
    return not failures, failures


# -- pytest entry points -------------------------------------------------

def test_frontend_cohort_speedup_and_equivalence():
    cohorts = build_cohorts(synthetic_per_assignment=2)
    stats = run_frontend_cohort(rounds=2, verbose=False, cohorts=cohorts)
    assert stats["graphs_identical"], (
        "optimized frontend builds different EPDGs"
    )
    assert stats["speedup"] >= REQUIRED_FRONTEND_SPEEDUP, (
        f"speedup {stats['speedup']:.2f}x < {REQUIRED_FRONTEND_SPEEDUP}x"
    )


def test_reports_byte_identical():
    cohorts = build_cohorts(synthetic_per_assignment=2)
    stats = run_report_equivalence(verbose=False, cohorts=cohorts)
    assert stats["byte_identical"]
    assert stats["parse_errors_identical"]


def test_warm_store_second_process_grades_nothing():
    stats = run_warm_store(synthetic=8, verbose=False)
    assert stats["warm_graded"] == 0
    assert stats["warm_cache_hits"] == stats["submissions"]
    assert stats["warm_matcher_idle"]
    assert stats["reports_identical"]


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
