"""Unit tests for the closure compiler's cache and cost accounting."""

from __future__ import annotations

import pytest

from repro.analysis.perf.static import method_loops
from repro.instrumentation import collecting
from repro.interp import (
    Interpreter,
    Tracer,
    clear_program_cache,
    compile_unit,
    program_cache_stats,
    run_method,
)
from repro.interp.compiler import _ProgramCache
from repro.java import parse_submission
from repro.testing.functional import run_tests_on_source
from repro.kb import all_assignment_names, get_assignment
from repro.synth.generator import sample_submissions

SOURCE = """
int sumTo(int n) {
    int total = 0;
    for (int i = 1; i <= n; i++) {
        total = total + i;
    }
    return total;
}
"""


class TestProgramCache:
    def test_source_keyed_reuse_across_parses(self):
        clear_program_cache()
        first = compile_unit(parse_submission(SOURCE), cache_key=SOURCE)
        second = compile_unit(parse_submission(SOURCE), cache_key=SOURCE)
        assert first is second
        stats = program_cache_stats()
        assert stats["misses"] == 1
        assert stats["hits"] == 1
        assert stats["size"] == 1

    def test_unit_memo_without_key(self):
        clear_program_cache()
        unit = parse_submission(SOURCE)
        first = compile_unit(unit)
        second = compile_unit(unit)
        assert first is second
        assert program_cache_stats() == {
            "size": 0, "capacity": 256, "hits": 1, "misses": 1,
        }

    def test_counters_flow_through_ambient_collector(self):
        clear_program_cache()
        with collecting() as phases:
            run_method(parse_submission(SOURCE), "sumTo", [3],
                       cache_key=SOURCE)
            run_method(parse_submission(SOURCE), "sumTo", [4],
                       cache_key=SOURCE)
        assert phases.counters["interp.compile_misses"] == 1
        assert phases.counters["interp.compile_hits"] == 1

    def test_fifo_eviction_is_bounded(self):
        cache = _ProgramCache(capacity=2)
        cache.put("a", object())
        cache.put("b", object())
        cache.put("c", object())
        assert cache.get("a") is None  # oldest evicted
        assert cache.get("b") is not None
        assert cache.get("c") is not None
        assert cache.stats()["size"] == 2


class TestCostCounters:
    def test_loop_iterations_and_calls(self):
        result = run_method(parse_submission(SOURCE), "sumTo", [5])
        cost = result.cost
        assert cost is not None
        assert cost.steps == result.steps
        assert cost.calls == 1
        assert cost.loop_iterations == {"sumTo:for@0": 5}

    def test_every_loop_appears_even_unexecuted(self):
        source = """
        int f(int n) {
            int total = 0;
            while (n > 100) { n = n - 1; total = total + 1; }
            for (int i = 0; i < n; i++) { total = total + i; }
            return total;
        }
        """
        cost = run_method(parse_submission(source), "f", [3]).cost
        assert cost.loop_iterations == {"f:while@0": 0, "f:for@1": 3}

    def test_allocations_count_new_expressions(self):
        source = """
        int f(int n) {
            int total = 0;
            for (int i = 0; i < n; i++) {
                int[] xs = new int[4];
                total = total + xs.length;
            }
            return total;
        }
        """
        cost = run_method(parse_submission(source), "f", [3]).cost
        assert cost.allocations == 3

    def test_nested_call_accounting(self):
        source = """
        int g(int n) { return n * 2; }
        int f(int n) { return g(n) + g(n + 1); }
        """
        cost = run_method(parse_submission(source), "f", [1]).cost
        assert cost.calls == 3  # entry + two g() invocations

    def test_cost_reaches_functional_test_results(self):
        assignment = get_assignment("assignment1")
        report = run_tests_on_source(
            assignment.reference_solutions[0], assignment.tests
        )
        assert report.passed
        for result in report.results:
            assert result.cost is not None
            assert result.cost.steps > 0
            assert result.cost.to_dict()["steps"] == result.cost.steps


class TestNullTracerFastPath:
    def test_untraced_run_records_nothing(self):
        result = run_method(parse_submission(SOURCE), "sumTo", [5])
        assert result.tracer is None

    def test_traced_and_untraced_agree_on_outcome(self):
        unit = parse_submission(SOURCE)
        plain = Interpreter(unit).run("sumTo", [6])
        tracer = Tracer()
        traced = Interpreter(unit, tracer=tracer).run("sumTo", [6])
        assert plain.return_value == traced.return_value == 21
        assert plain.steps == traced.steps
        assert tracer.variable_trace("total")[-1] == 21


class TestLoopIds:
    """Runtime loop ids must join the perf analyzer's static loop table."""

    DEAD_ELSE = """
    int f(int n) {
        int t = 0;
        if (true) { t = 1; } else { while (n > 0) { n--; } }
        for (int i = 0; i < n; i++) { t = t + i; }
        return t;
    }
    """

    @staticmethod
    def _assert_ids_match(source):
        unit = parse_submission(source)
        static = [
            info.loop_id
            for loops in method_loops(unit).values()
            for info in loops
        ]
        assert compile_unit(unit).loop_ids == static, source

    def test_dead_else_branch_keeps_its_loop_ids(self):
        self._assert_ids_match(self.DEAD_ELSE)
        cost = run_method(parse_submission(self.DEAD_ELSE), "f", [3]).cost
        assert cost.loop_iterations == {"f:while@0": 0, "f:for@1": 3}

    @pytest.mark.parametrize("name", all_assignment_names())
    def test_kb_references_and_synth_samples(self, name):
        assignment = get_assignment(name)
        sources = list(assignment.reference_solutions) + [
            submission.source
            for submission in sample_submissions(
                assignment.space(), 24, seed=3
            )
        ]
        for source in sources:
            self._assert_ids_match(source)
