"""Closure-compiled interpreter for the Java subset.

This is the substitute for running student submissions on a JVM: the
functional-testing harness (paper Table I, column ``T``) executes
submissions here, and the CLARA baseline collects its variable traces from
the interpreter's tracing hooks.

Each parsed method is lowered once by :mod:`repro.interp.compiler` into
nested Python closures (slot-indexed frames, sentinel-return control
flow, one closure per construct) and cached per unique source, so
campaign-scale re-execution pays compilation once per distinct program.
Execution cost (steps, per-loop iterations, calls, allocations) is
recorded as :class:`CostCounters` on every result.

Key behaviours mirrored from Java:

* 32-bit wrapping ``int`` arithmetic, truncating division, Java ``%`` sign;
* ``String`` concatenation with Java-style value formatting;
* ``System.out.print``/``println`` captured into an output buffer;
* ``Scanner`` over ``System.in`` or a simulated file (virtual filesystem);
* runtime errors (division by zero, array bounds) surface as
  :class:`~repro.errors.JavaRuntimeError`;
* a step budget turns non-termination into
  :class:`~repro.errors.BudgetExceededError`.
"""

from repro.interp.compiler import (
    clear_program_cache,
    compile_unit,
    program_cache_stats,
)
from repro.interp.interpreter import ExecutionResult, Interpreter, run_method
from repro.interp.tracing import CostCounters, TraceEvent, Tracer
from repro.interp.values import JavaArray, java_str

__all__ = [
    "ExecutionResult",
    "Interpreter",
    "run_method",
    "CostCounters",
    "TraceEvent",
    "Tracer",
    "JavaArray",
    "java_str",
    "compile_unit",
    "program_cache_stats",
    "clear_program_cache",
]
