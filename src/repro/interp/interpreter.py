"""Execution facade over the closure-compiled runtime.

Historically this module *was* the interpreter — a tree-walker that
re-dispatched on AST node types for every step.  The execution engine now
lives in :mod:`repro.interp.compiler`, which lowers each parsed method
once into nested Python closures (slot-indexed frames, sentinel-return
control flow, one closure per construct) and caches the compiled
program per unique source.  This module keeps
the stable public surface — :class:`Interpreter`, :class:`ExecutionResult`,
:func:`run_method` — unchanged for callers, plus two additions: a
``cache_key`` to share compiled programs across separate parses of the
same source, and :class:`~repro.interp.tracing.CostCounters` on every
result.

The original tree-walker survives verbatim as
``benchmarks/_interp_reference.py``; the differential tests run both
engines and require byte-identical outcomes, stdout, traces, error
text, and step counts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.errors import BudgetExceededError
from repro.interp import stdlib
from repro.interp.compiler import CompiledProgram, Runtime, compile_unit, cost_of
from repro.interp.tracing import CostCounters, Tracer
from repro.java import ast

DEFAULT_STEP_BUDGET = 1_000_000


@dataclass
class ExecutionResult:
    """Outcome of running one method: stdout, return value, step count."""

    stdout: str
    return_value: object
    steps: int
    tracer: Tracer | None = None
    #: Execution-cost profile of the run (steps, per-loop iterations,
    #: calls, allocations) — a free byproduct of compiled execution.
    cost: CostCounters | None = None


class Interpreter:
    """Executes methods of a parsed submission (compiled on construction).

    Parameters
    ----------
    unit:
        The parsed submission whose methods may call each other.
    files:
        Virtual filesystem served to ``new Scanner(new File(name))``.
    stdin:
        Text served to ``new Scanner(System.in)``.
    step_budget:
        Maximum statements/iterations before the run is declared
        non-terminating.
    tracer:
        Optional :class:`Tracer` receiving assignment/output events.
        When ``None``, the compiled runtime skips trace recording (and
        its deep-copy snapshots) entirely.
    cache_key:
        Optional content key — conventionally the submission's source
        text — for the module-level compiled-program cache, so repeated
        construction over duplicate sources compiles once.
    """

    def __init__(
        self,
        unit: ast.CompilationUnit,
        files: stdlib.VirtualFileSystem | dict[str, str] | None = None,
        stdin: str = "",
        step_budget: int = DEFAULT_STEP_BUDGET,
        tracer: Tracer | None = None,
        cache_key: str | None = None,
    ) -> None:
        self._program: CompiledProgram = compile_unit(unit, cache_key)
        if isinstance(files, dict):
            files = stdlib.VirtualFileSystem(files)
        self._files = files or stdlib.VirtualFileSystem()
        self._stdin = stdin
        self._budget = step_budget
        self._tracer = tracer
        self._last_runtime: Runtime | None = None

    # ------------------------------------------------------------------
    # public API

    def run(self, method_name: str, arguments: list[Any]) -> ExecutionResult:
        """Run ``method_name`` with ``arguments`` and collect the result."""
        runtime = Runtime(
            budget=self._budget,
            files=self._files,
            stdin=self._stdin,
            tracer=self._tracer,
            loop_count=len(self._program.loop_ids),
        )
        self._last_runtime = runtime
        try:
            value = self._program.invoke(
                method_name, list(arguments), runtime
            )
        except RecursionError:
            # belt-and-braces: the Java-level depth cap should fire first
            raise BudgetExceededError(
                "StackOverflowError: interpreter recursion limit"
            ) from None
        return ExecutionResult(
            stdout="".join(runtime.out),
            return_value=value,
            steps=runtime.steps,
            tracer=self._tracer,
            cost=cost_of(self._program, runtime),
        )

    @property
    def stdout(self) -> str:
        """Output of the latest run so far (partial if it raised)."""
        if self._last_runtime is None:
            return ""
        return "".join(self._last_runtime.out)


def run_method(
    unit: ast.CompilationUnit,
    method_name: str,
    arguments: list[Any],
    files: dict[str, str] | None = None,
    stdin: str = "",
    step_budget: int = DEFAULT_STEP_BUDGET,
    trace: bool = False,
    cache_key: str | None = None,
) -> ExecutionResult:
    """Convenience wrapper: build an interpreter and run one method."""
    tracer = Tracer() if trace else None
    interpreter = Interpreter(
        unit, files=files, stdin=stdin, step_budget=step_budget,
        tracer=tracer, cache_key=cache_key,
    )
    return interpreter.run(method_name, arguments)
