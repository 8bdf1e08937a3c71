"""Closure compiler: the Java-subset AST lowered to Python closures.

One-time compilation replaces the per-step ``isinstance`` dispatch of the
original tree-walker: every statement becomes a closure ``(frame, runtime)
-> signal`` and every expression a closure ``(frame, runtime) -> value``,
built once per parsed submission and reused across every test, trace, and
re-verification run.  Each construct lowers to exactly one closure shape;
no construct is specialized for an arity, a literal operand, a constant
condition, or an unrolled length.  What makes the closures fast:

* **slot frames** — lexical scoping is resolved at compile time into flat
  list indices, so a variable read is ``frame[3]`` instead of a runtime
  scope-chain walk; only slots declared inside ``switch`` cases (which the
  tree-walker can jump past) check for :data:`_UNDEF` at runtime;
* **sentinel control flow** — ``break``/``continue``/``return`` return
  sentinel objects up the statement chain instead of raising and
  catching Python exceptions;
* **in-loop step charging** — a block charges each of its statements one
  step in its own loop, and a loop charges each iteration, so there is no
  per-statement wrapper call inside blocks;
* **``int`` fast paths** — binary operators and compound assignments take
  one table-driven ``int`` path (``+ - *`` wrap to 32 bits, ``/ %`` use
  Java's truncation, comparisons are exact) and fall back to
  :func:`_binary_value` for everything else;
* **a null-tracer fast path** — trace hooks cost one ``None`` test when
  no tracer is attached.

Behavioral fidelity is the contract: outcomes, stdout, traces, error
text, and step counts must be byte-identical to the vendored
tree-walking reference (``benchmarks/_interp_reference.py``), which the
differential tests enforce.  Every fast path falls back to the shared
slow helpers (:func:`_binary_value`, :func:`_unary_value`) that
replicate the tree-walker line for line, so a fast path can only ever
shortcut a case whose result is already fixed.

Compiled programs are cached two ways: a memo attribute on the
:class:`~repro.java.ast.CompilationUnit` itself (same parse ⇒ same
program) and a source-keyed bounded cache, so duplicate-heavy cohorts
and repair re-verification compile each unique source once.  Cache
traffic surfaces as ``interp.compile_hits`` / ``interp.compile_misses``
via :func:`repro.instrumentation.count`.

Execution cost (steps, per-loop iteration counts, calls, allocations) is
tallied on the :class:`Runtime` as a near-free byproduct and exposed as
:class:`~repro.interp.tracing.CostCounters`.  Loop ids are assigned in
source order, dead branches included, so they join the static loop
table of :func:`repro.analysis.perf.static.method_loops`.
"""

from __future__ import annotations

import math
import threading
from operator import add, eq, ge, gt, le, lt, mul, ne, sub
from typing import Any, Callable

from repro.errors import BudgetExceededError, JavaRuntimeError
from repro.instrumentation import count
from repro.interp import stdlib
from repro.interp.tracing import CostCounters, Tracer
from repro.interp.values import (
    JavaArray,
    JavaChar,
    java_div,
    java_rem,
    java_str,
    numeric_value,
    wrap_int,
)
from repro.java import ast

#: A method frame: one flat list indexed by compile-time slot numbers.
Frame = list[Any]
StmtFn = Callable[["Frame", "Runtime"], Any]
ExprFn = Callable[["Frame", "Runtime"], Any]

_INT_MIN = -(2 ** 31)
_INT_MAX = 2 ** 31 - 1

# Java-level frames, counted by the compiled runtime itself (satellite:
# no reliance on CPython frame-depth headroom for the *accounting*; the
# RecursionError belt-and-braces in Interpreter.run stays as a backstop).
_MAX_CALL_DEPTH = 100


class _Sentinel:
    """Interned control-flow / undefined-slot marker."""

    __slots__ = ("label",)

    def __init__(self, label: str) -> None:
        self.label = label

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{self.label}>"


#: Slot value before its declaration has executed on this code path.
_UNDEF = _Sentinel("undef")
#: Statement-closure return signals (replacing the tree-walker's
#: ``_BreakSignal``/``_ContinueSignal``/``_ReturnSignal`` exceptions).
_BREAK = _Sentinel("break")
_CONTINUE = _Sentinel("continue")
_RETURN = _Sentinel("return")


class _BreakSignal(Exception):
    """A ``break`` escaping the enclosing method (tree-walker fidelity)."""


class _ContinueSignal(Exception):
    """A ``continue`` escaping the enclosing method."""


class _ClassRef:
    """Sentinel for a static class reference (``Math``, ``Integer``...)."""

    __slots__ = ("name",)

    def __init__(self, name: str) -> None:
        self.name = name


class _SystemOut:
    """Sentinel for the ``System.out`` stream object."""


_SYSTEM_OUT = _SystemOut()
_STATIC_CLASSES = frozenset({"Math", "Integer", "String", "Character", "System"})

#: Static field table, consulted for ``Name.field`` targets *before* any
#: local lookup — exactly like the tree-walker's ``_eval_field``.
_STATIC_FIELDS: dict[tuple[str, str], Any] = {
    ("System", "out"): _SYSTEM_OUT,
    ("System", "in"): "<stdin>",
    ("Integer", "MAX_VALUE"): 2 ** 31 - 1,
    ("Integer", "MIN_VALUE"): -(2 ** 31),
    ("Math", "PI"): math.pi,
    ("Math", "E"): math.e,
}


class Runtime:
    """Mutable per-run state shared by every closure of one execution."""

    __slots__ = (
        "budget", "steps", "out", "tracer", "files", "stdin",
        "depth", "method", "retval", "calls", "allocations", "loop_iters",
    )

    def __init__(
        self,
        budget: int,
        files: stdlib.VirtualFileSystem,
        stdin: str,
        tracer: Tracer | None,
        loop_count: int,
    ) -> None:
        self.budget = budget
        self.steps = 0
        self.out: list[str] = []
        self.tracer = tracer
        self.files = files
        self.stdin = stdin
        self.depth = 0
        self.method = ""
        self.retval: Any = None
        self.calls = 0
        self.allocations = 0
        self.loop_iters = [0] * loop_count


def _raise_budget(budget: int) -> Any:
    raise BudgetExceededError(
        f"step budget of {budget} exceeded (non-terminating?)"
    )


def _raise_condition(value: Any) -> Any:
    raise JavaRuntimeError(
        f"condition must be boolean, got {java_str(value)}"
    )


def _java_equals(left: Any, right: Any) -> bool:
    left_number = numeric_value(left)
    right_number = numeric_value(right)
    if left_number is not None and right_number is not None:
        return left_number == right_number
    # Strings compare by value: models the common student assumption
    # (and constant-pool interning) without a full reference model.
    return bool(left == right)


def _int_index(value: Any) -> int:
    number = numeric_value(value)
    if not isinstance(number, int):
        raise JavaRuntimeError(f"array index must be int, got {java_str(value)}")
    return number


def _two_ints(operator: str, left: Any, right: Any) -> tuple[int, int]:
    left_number = numeric_value(left)
    right_number = numeric_value(right)
    if not isinstance(left_number, int) or not isinstance(right_number, int):
        raise JavaRuntimeError(f"{operator} requires integers")
    return left_number, right_number


def _binary_value(operator: str, left: Any, right: Any) -> Any:
    """Full binary-operator semantics, line for line the tree-walker's."""
    if operator == "+" and (isinstance(left, str) or isinstance(right, str)):
        return java_str(left) + java_str(right)
    if operator == "==":
        return _java_equals(left, right)
    if operator == "!=":
        return not _java_equals(left, right)
    if operator in ("&", "|", "^"):
        if isinstance(left, bool) and isinstance(right, bool):
            if operator == "&":
                return left and right
            if operator == "|":
                return left or right
            return left != right
        left_number, right_number = _two_ints(operator, left, right)
        if operator == "&":
            return wrap_int(left_number & right_number)
        if operator == "|":
            return wrap_int(left_number | right_number)
        return wrap_int(left_number ^ right_number)
    if operator in ("<<", ">>", ">>>"):
        left_number, right_number = _two_ints(operator, left, right)
        shift = right_number & 31
        if operator == "<<":
            return wrap_int(left_number << shift)
        if operator == ">>":
            return wrap_int(left_number >> shift)
        return wrap_int((left_number & 0xFFFFFFFF) >> shift)
    left_num = numeric_value(left)
    right_num = numeric_value(right)
    if left_num is None or right_num is None:
        raise JavaRuntimeError(
            f"cannot apply {operator} to "
            f"{java_str(left)} and {java_str(right)}"
        )
    if operator == "<":
        return left_num < right_num
    if operator == "<=":
        return left_num <= right_num
    if operator == ">":
        return left_num > right_num
    if operator == ">=":
        return left_num >= right_num
    both_int = isinstance(left_num, int) and isinstance(right_num, int)
    if operator == "+":
        result = left_num + right_num
    elif operator == "-":
        result = left_num - right_num
    elif operator == "*":
        result = left_num * right_num
    elif operator == "/":
        if both_int:
            return java_div(left_num, right_num)
        if right_num == 0:
            if left_num == 0:
                return float("nan")
            return math.copysign(float("inf"), left_num)
        return left_num / right_num
    elif operator == "%":
        if both_int:
            return java_rem(left_num, right_num)
        if right_num == 0:
            return float("nan")
        return math.fmod(left_num, right_num)
    else:
        raise JavaRuntimeError(f"unknown operator {operator}")
    return wrap_int(result) if both_int else float(result)


def _const(value: Any) -> ExprFn:
    def const(F: Frame, R: Runtime) -> Any:
        return value

    return const


def _nothing(F: Frame, R: Runtime) -> Any:
    return None


def _default_value(type_name: str) -> Any:
    if type_name in ("int", "long", "short", "byte"):
        return 0
    if type_name in ("double", "float"):
        return 0.0
    if type_name == "boolean":
        return False
    if type_name == "char":
        return JavaChar("\0")
    return None


def _make_array(element: str, lengths: list[int], dims: int) -> Any:
    if not lengths:
        return None
    if len(lengths) == 1:
        if dims > 1:
            return JavaArray("array", [None] * lengths[0])
        return JavaArray.of_length(element, lengths[0])
    return JavaArray(
        "array",
        [_make_array(element, lengths[1:], dims - 1) for _ in range(lengths[0])],
    )


def _emit(R: Runtime, method: str, text: str) -> None:
    R.out.append(text)
    tracer = R.tracer
    if tracer is not None:
        tracer.on_output(method, text)


def _print_call(
    R: Runtime, method: str, name: str, arguments: list[Any]
) -> Any:
    """Dynamic ``System.out`` dispatch (aliased stream objects)."""
    if name == "println":
        text = java_str(arguments[0]) if arguments else ""
        _emit(R, method, text + "\n")
        return None
    if name == "print":
        _emit(R, method, java_str(arguments[0]))
        return None
    if name == "printf":
        template = arguments[0]
        values = [
            v.char if isinstance(v, JavaChar) else v for v in arguments[1:]
        ]
        try:
            _emit(R, method, template % tuple(values))
        except (TypeError, ValueError) as error:
            raise JavaRuntimeError(f"IllegalFormatException: {error}")
        return None
    raise JavaRuntimeError(f"System.out has no method {name}")


def _call_class_ref(ref: _ClassRef, name: str, arguments: list[Any]) -> Any:
    if ref.name == "Math":
        return stdlib.call_math(name, arguments)
    if ref.name == "Integer":
        return stdlib.call_integer(name, arguments)
    if ref.name == "String":
        return stdlib.call_string_static(name, arguments)
    if ref.name == "Character":
        return stdlib.call_character(name, arguments)
    raise JavaRuntimeError(f"cannot call {name} on {java_str(ref)}")


def _dispatch_call(
    R: Runtime, method: str, target: Any, name: str, arguments: list[Any]
) -> Any:
    """Instance-call dispatch for dynamically-typed targets."""
    if isinstance(target, str):
        return stdlib.call_string(target, name, arguments)
    if isinstance(target, stdlib.ScannerObject):
        return stdlib.call_scanner(target, name, arguments)
    if isinstance(target, stdlib.StringBuilderObject):
        return target.call(name, arguments)
    if isinstance(target, _SystemOut):
        return _print_call(R, method, name, arguments)
    if isinstance(target, _ClassRef):
        return _call_class_ref(target, name, arguments)
    raise JavaRuntimeError(f"cannot call {name} on {java_str(target)}")


# ----------------------------------------------------------------------
# compiled program objects


class CompiledMethod:
    """One method lowered to a closure tree plus its frame layout."""

    __slots__ = ("name", "param_names", "nslots", "body")

    def __init__(self, name: str, param_names: tuple[str, ...]) -> None:
        self.name = name
        self.param_names = param_names
        self.nslots = 0
        # placeholder body; _MethodCompiler fills it in (two-phase so
        # call sites can bind the CompiledMethod before bodies exist)
        self.body: StmtFn = _nothing

    def invoke(self, arguments: list[Any], R: Runtime) -> Any:
        depth = R.depth
        if depth >= _MAX_CALL_DEPTH:
            raise BudgetExceededError(
                f"StackOverflowError: call depth exceeded invoking {self.name}"
            )
        R.depth = depth + 1
        R.calls += 1
        frame = [_UNDEF] * self.nslots
        frame[: len(arguments)] = arguments
        tracer = R.tracer
        if tracer is not None:
            # parameter traces are attributed to the *caller's* method,
            # exactly like the tree-walker (it traces before switching
            # _current_method)
            caller = R.method
            for pname, argument in zip(self.param_names, arguments):
                tracer.on_assign(caller, pname, argument)
        previous = R.method
        R.method = self.name
        try:
            signal = self.body(frame, R)
        finally:
            R.depth = depth
            R.method = previous
        if signal is None:
            return None
        if signal is _RETURN:
            value = R.retval
            R.retval = None
            return value
        # a stray break/continue escaping the method surfaces as the
        # same exception the tree-walker would leak
        if signal is _BREAK:
            raise _BreakSignal()
        raise _ContinueSignal()


class CompiledProgram:
    """All methods of one submission, compiled; shared and immutable."""

    __slots__ = ("methods", "loop_ids")

    def __init__(self) -> None:
        self.methods: dict[tuple[str, int], CompiledMethod] = {}
        self.loop_ids: list[str] = []

    def invoke(self, name: str, arguments: list[Any], R: Runtime) -> Any:
        compiled = self.methods.get((name, len(arguments)))
        if compiled is None:
            raise JavaRuntimeError(
                f"no method {name}/{len(arguments)} in submission"
            )
        return compiled.invoke(arguments, R)


# ----------------------------------------------------------------------
# compilation


class _Scope:
    """One compile-time lexical scope: name -> frame slot."""

    __slots__ = ("names",)

    def __init__(self) -> None:
        self.names: dict[str, int] = {}


class _MethodCompiler:
    """Compiles one method body into a closure tree."""

    def __init__(self, program: CompiledProgram, compiled: CompiledMethod,
                 method: ast.MethodDecl) -> None:
        self.program = program
        self.compiled = compiled
        self.method_name = method.name
        self.scopes: list[_Scope] = [_Scope()]
        self.nslots = 0
        #: slots that may be read/written before their declaration ran
        #: (declared inside switch cases, which the tree-walker executes
        #: without a scope push, so case-jumping can skip the decl)
        self.checked: set[int] = set()
        self.switch_depth = 0
        #: per-method loop ordinal for stable loop ids
        self.loop_ordinal = 0

        for parameter in method.parameters:
            self._declare(parameter.name)
        self.compiled.body = self._compile_stmt_unticked(method.body)
        self.compiled.nslots = self.nslots

    # -- scope handling ------------------------------------------------

    def _declare(self, name: str) -> int:
        slot = self.nslots
        self.nslots += 1
        self.scopes[-1].names[name] = slot
        if self.switch_depth > 0:
            self.checked.add(slot)
        return slot

    def _resolve(self, name: str) -> int | None:
        for scope in reversed(self.scopes):
            slot = scope.names.get(name)
            if slot is not None:
                return slot
        return None

    def _push_scope(self) -> None:
        self.scopes.append(_Scope())

    def _pop_scope(self) -> list[int]:
        """Pop; returns checked slots declared here (need re-entry reset).

        The tree-walker's scope dict dies on pop, so a checked slot
        declared in a re-entered block must read as undeclared again.
        Unchecked slots are always re-declared before any use on every
        path (that is what makes them unchecked), so they need no reset.
        """
        scope = self.scopes.pop()
        return [s for s in scope.names.values() if s in self.checked]

    def _next_loop_id(self, kind: str) -> int:
        index = len(self.program.loop_ids)
        self.program.loop_ids.append(
            f"{self.method_name}:{kind}@{self.loop_ordinal}"
        )
        self.loop_ordinal += 1
        return index

    # -- statements ----------------------------------------------------

    def _compile_stmt(self, node: ast.Statement) -> StmtFn:
        """One statement including its own step tick."""
        unticked = self._compile_stmt_unticked(node)

        def ticked(F: Frame, R: Runtime) -> Any:
            steps = R.steps + 1
            R.steps = steps
            if steps > R.budget:
                _raise_budget(R.budget)
            return unticked(F, R)

        return ticked

    def _compile_stmt_unticked(self, node: ast.Statement) -> StmtFn:
        if isinstance(node, ast.Block):
            return self._compile_block(node)
        if isinstance(node, ast.LocalVarDecl):
            return self._compile_decl(node)
        if isinstance(node, ast.ExpressionStatement):
            expression = self._compile_expr(node.expression)

            def expr_stmt(F: Frame, R: Runtime) -> Any:
                expression(F, R)
                return None

            return expr_stmt
        if isinstance(node, ast.If):
            return self._compile_if(node)
        if isinstance(node, ast.While):
            return self._compile_while(node)
        if isinstance(node, ast.DoWhile):
            return self._compile_dowhile(node)
        if isinstance(node, ast.For):
            return self._compile_for(node)
        if isinstance(node, ast.ForEach):
            return self._compile_foreach(node)
        if isinstance(node, ast.Break):
            def brk(F: Frame, R: Runtime) -> Any:
                return _BREAK

            return brk
        if isinstance(node, ast.Continue):
            def cont(F: Frame, R: Runtime) -> Any:
                return _CONTINUE

            return cont
        if isinstance(node, ast.Return):
            value = (
                self._compile_expr(node.value)
                if node.value is not None else _const(None)
            )

            def ret(F: Frame, R: Runtime) -> Any:
                R.retval = value(F, R)
                return _RETURN

            return ret
        if isinstance(node, ast.Switch):
            return self._compile_switch(node)
        if isinstance(node, ast.EmptyStatement):
            return _nothing
        kind = type(node).__name__

        def unknown(F: Frame, R: Runtime) -> Any:
            raise JavaRuntimeError(f"cannot execute statement {kind}")

        return unknown

    def _compile_block(self, node: ast.Block) -> StmtFn:
        self._push_scope()
        units = tuple(
            self._compile_stmt_unticked(s) for s in node.statements
        )
        reset_slots = tuple(self._pop_scope())

        def block(F: Frame, R: Runtime) -> Any:
            for slot in reset_slots:
                F[slot] = _UNDEF
            # each statement is charged its step here, as _compile_stmt
            # charges a lone one; the first non-None signal stops the block
            budget = R.budget
            for unit in units:
                steps = R.steps + 1
                R.steps = steps
                if steps > budget:
                    _raise_budget(budget)
                signal = unit(F, R)
                if signal is not None:
                    return signal
            return None

        return block

    def _compile_if(self, node: ast.If) -> StmtFn:
        condition = self._compile_expr(node.condition)
        then_branch = self._compile_stmt(node.then_branch)
        orelse = (
            self._compile_stmt(node.else_branch)
            if node.else_branch is not None else _nothing
        )

        def if_else(F: Frame, R: Runtime) -> Any:
            value = condition(F, R)
            if value is True:
                return then_branch(F, R)
            if value is False:
                return orelse(F, R)
            return _raise_condition(value)

        return if_else

    def _compile_while(self, node: ast.While) -> StmtFn:
        condition = self._compile_expr(node.condition)
        loop_index = self._next_loop_id("while")
        body = self._compile_stmt(node.body)

        def while_loop(F: Frame, R: Runtime) -> Any:
            iters = R.loop_iters
            budget = R.budget
            while True:
                value = condition(F, R)
                if value is not True:
                    if value is False:
                        return None
                    return _raise_condition(value)
                steps = R.steps + 1
                R.steps = steps
                if steps > budget:
                    _raise_budget(budget)
                iters[loop_index] += 1
                signal = body(F, R)
                if signal is not None:
                    if signal is _BREAK:
                        return None
                    if signal is not _CONTINUE:
                        return signal

        return while_loop

    def _compile_dowhile(self, node: ast.DoWhile) -> StmtFn:
        loop_index = self._next_loop_id("dowhile")
        body = self._compile_stmt(node.body)
        condition = self._compile_expr(node.condition)

        def dowhile_loop(F: Frame, R: Runtime) -> Any:
            iters = R.loop_iters
            budget = R.budget
            while True:
                steps = R.steps + 1
                R.steps = steps
                if steps > budget:
                    _raise_budget(budget)
                iters[loop_index] += 1
                signal = body(F, R)
                if signal is not None:
                    if signal is _BREAK:
                        return None
                    if signal is not _CONTINUE:
                        return signal
                value = condition(F, R)
                if value is not True:
                    if value is False:
                        return None
                    return _raise_condition(value)

        return dowhile_loop

    def _compile_for(self, node: ast.For) -> StmtFn:
        self._push_scope()
        init_units = [self._compile_stmt(init) for init in node.init]
        # `for (;;)` loops on a constant `true`, as the tree-walker does
        condition = (
            self._compile_expr(node.condition)
            if node.condition is not None else _const(True)
        )
        loop_index = self._next_loop_id("for")
        body = self._compile_stmt(node.body)
        updates = tuple(self._compile_expr(update) for update in node.update)
        resets = tuple(self._pop_scope())

        def for_loop(F: Frame, R: Runtime) -> Any:
            for slot in resets:
                F[slot] = _UNDEF
            for init in init_units:
                signal = init(F, R)
                if signal is not None:
                    return signal
            iters = R.loop_iters
            budget = R.budget
            while True:
                value = condition(F, R)
                if value is not True:
                    if value is False:
                        return None
                    return _raise_condition(value)
                steps = R.steps + 1
                R.steps = steps
                if steps > budget:
                    _raise_budget(budget)
                iters[loop_index] += 1
                signal = body(F, R)
                if signal is not None:
                    if signal is _BREAK:
                        return None
                    if signal is _RETURN:
                        return signal
                    # _CONTINUE falls through to the updates,
                    # like the tree-walker's `except _ContinueSignal: pass`
                for update in updates:
                    update(F, R)

        return for_loop

    def _compile_foreach(self, node: ast.ForEach) -> StmtFn:
        iterable = self._compile_expr(node.iterable)
        self._push_scope()
        slot = self._declare(node.name)
        loop_index = self._next_loop_id("foreach")
        body = self._compile_stmt(node.body)
        resets = tuple(self._pop_scope())
        name = node.name
        method = self.method_name

        def foreach_loop(F: Frame, R: Runtime) -> Any:
            value = iterable(F, R)
            if isinstance(value, JavaArray):
                elements = list(value.elements)
            elif isinstance(value, str):
                elements = [JavaChar(ch) for ch in value]
            else:
                raise JavaRuntimeError(
                    f"cannot iterate over {java_str(value)}"
                )
            for reset in resets:
                F[reset] = _UNDEF
            F[slot] = None
            iters = R.loop_iters
            budget = R.budget
            tracer = R.tracer
            for element in elements:
                steps = R.steps + 1
                R.steps = steps
                if steps > budget:
                    _raise_budget(budget)
                iters[loop_index] += 1
                F[slot] = element
                if tracer is not None:
                    tracer.on_assign(method, name, element)
                signal = body(F, R)
                if signal is not None:
                    if signal is _BREAK:
                        return None
                    if signal is not _CONTINUE:
                        return signal
            return None

        return foreach_loop

    def _compile_decl(self, node: ast.LocalVarDecl) -> StmtFn:
        units: list[StmtFn] = []
        type_name = node.type.name
        base_dims = node.type.dimensions
        method = self.method_name
        for declarator in node.declarators:
            name = declarator.name
            if declarator.initializer is None:
                dimensions = base_dims + declarator.extra_dimensions
                default = None if dimensions else _default_value(type_name)
                slot = self._declare(name)

                def decl_default(
                    F: Frame, R: Runtime,
                    _slot: int = slot, _name: str = name, _value: Any = default,
                ) -> Any:
                    F[_slot] = _value
                    tracer = R.tracer
                    if tracer is not None:
                        tracer.on_assign(method, _name, _value)
                    return None

                units.append(decl_default)
                continue
            if isinstance(declarator.initializer, ast.ArrayInitializer):
                value_fn = self._compile_array_initializer(
                    declarator.initializer, type_name
                )
            else:
                value_fn = self._compile_expr(declarator.initializer)
                dims = base_dims + declarator.extra_dimensions
                if dims == 0 and type_name in ("double", "float"):
                    value_fn = _float_coerced(value_fn)
                elif dims == 0 and type_name in ("int", "short", "byte"):
                    value_fn = _char_coerced(value_fn)
            slot = self._declare(name)

            def decl_init(
                F: Frame, R: Runtime,
                _slot: int = slot, _name: str = name, _fn: ExprFn = value_fn,
            ) -> Any:
                value = _fn(F, R)
                F[_slot] = value
                tracer = R.tracer
                if tracer is not None:
                    tracer.on_assign(method, _name, value)
                return None

            units.append(decl_init)
        if len(units) == 1:
            return units[0]

        def decl_all(F: Frame, R: Runtime) -> Any:
            for unit in units:
                unit(F, R)
            return None

        return decl_all

    def _compile_switch(self, node: ast.Switch) -> StmtFn:
        selector = self._compile_expr(node.selector)
        cases: list[tuple[tuple[ExprFn | None, ...], tuple[StmtFn, ...]]] = []
        self.switch_depth += 1
        try:
            for case in node.cases:
                labels = tuple(
                    None if label is None else self._compile_expr(label)
                    for label in case.labels
                )
                statements = tuple(
                    self._compile_stmt(statement)
                    for statement in case.statements
                )
                cases.append((labels, statements))
        finally:
            self.switch_depth -= 1
        case_list = tuple(cases)

        def switch(F: Frame, R: Runtime) -> Any:
            value = selector(F, R)
            matched = False
            for labels, statements in case_list:
                if not matched:
                    for label in labels:
                        if label is None:
                            matched = True
                            break
                        if _java_equals(value, label(F, R)):
                            matched = True
                            break
                if matched:
                    for statement in statements:
                        signal = statement(F, R)
                        if signal is not None:
                            if signal is _BREAK:
                                return None
                            return signal
            return None

        return switch

    # -- expressions ---------------------------------------------------

    def _compile_expr(self, node: ast.Expression) -> ExprFn:
        if isinstance(node, ast.Literal):
            if node.kind == "char":
                return _const(JavaChar(str(node.value)))
            return _const(node.value)
        if isinstance(node, ast.Name):
            return self._compile_name(node.identifier)
        if isinstance(node, ast.FieldAccess):
            return self._compile_field(node)
        if isinstance(node, ast.ArrayAccess):
            return self._compile_array_access(node)
        if isinstance(node, ast.MethodCall):
            return self._compile_call(node)
        if isinstance(node, ast.ObjectCreation):
            return self._compile_creation(node)
        if isinstance(node, ast.ArrayCreation):
            return self._compile_array_creation(node)
        if isinstance(node, ast.ArrayInitializer):
            return self._compile_array_initializer(node, "int")
        if isinstance(node, ast.Unary):
            return self._compile_unary(node)
        if isinstance(node, ast.Binary):
            return self._compile_binary(node)
        if isinstance(node, ast.Ternary):
            return self._compile_ternary(node)
        if isinstance(node, ast.Assignment):
            return self._compile_assignment(node)
        if isinstance(node, ast.Cast):
            return self._compile_cast(node)
        kind = type(node).__name__

        def unknown(F: Frame, R: Runtime) -> Any:
            raise JavaRuntimeError(f"cannot evaluate {kind}")

        return unknown

    def _compile_name(self, name: str) -> ExprFn:
        slot = self._resolve(name)
        if slot is None:
            if name in _STATIC_CLASSES:
                def class_ref(F: Frame, R: Runtime) -> Any:
                    # fresh per evaluation, like the tree-walker
                    return _ClassRef(name)

                return class_ref

            def undefined(F: Frame, R: Runtime) -> Any:
                raise JavaRuntimeError(f"undefined variable {name}")

            return undefined
        index: int = slot
        if index in self.checked:
            if name in _STATIC_CLASSES:
                def load_checked_static(F: Frame, R: Runtime) -> Any:
                    value = F[index]
                    if value is _UNDEF:
                        return _ClassRef(name)
                    return value

                return load_checked_static

            def load_checked(F: Frame, R: Runtime) -> Any:
                value = F[index]
                if value is _UNDEF:
                    raise JavaRuntimeError(f"undefined variable {name}")
                return value

            return load_checked

        def load(F: Frame, R: Runtime) -> Any:
            return F[index]

        return load

    def _compile_field(self, node: ast.FieldAccess) -> ExprFn:
        name = node.name
        if isinstance(node.target, ast.Name):
            key = (node.target.identifier, name)
            if key in _STATIC_FIELDS:
                # static table wins over locals, like the tree-walker's
                # _eval_field (checked before any env lookup)
                return _const(_STATIC_FIELDS[key])
        target = self._compile_expr(node.target)
        if name == "length":
            def length(F: Frame, R: Runtime) -> Any:
                value = target(F, R)
                if type(value) is JavaArray:
                    return len(value.elements)
                if isinstance(value, str):
                    raise JavaRuntimeError(
                        "String has no field length (use length())"
                    )
                raise JavaRuntimeError(
                    f"unknown field length on {java_str(value)}"
                )

            return length

        def unknown_field(F: Frame, R: Runtime) -> Any:
            value = target(F, R)
            raise JavaRuntimeError(
                f"unknown field {name} on {java_str(value)}"
            )

        return unknown_field

    def _compile_array_access(self, node: ast.ArrayAccess) -> ExprFn:
        array = self._compile_expr(node.array)
        index = self._compile_expr(node.index)

        def access(F: Frame, R: Runtime) -> Any:
            array_value = array(F, R)
            index_value = index(F, R)
            if type(array_value) is JavaArray and type(index_value) is int:
                elements = array_value.elements
                if 0 <= index_value < len(elements):
                    return elements[index_value]
                raise JavaRuntimeError(
                    "ArrayIndexOutOfBoundsException: "
                    f"Index {index_value} out of bounds for length "
                    f"{len(elements)}"
                )
            index_int = _int_index(index_value)
            if not isinstance(array_value, JavaArray):
                raise JavaRuntimeError("NullPointerException: not an array")
            return array_value.get(index_int)

        return access

    def _compile_call(self, node: ast.MethodCall) -> ExprFn:
        arguments = [self._compile_expr(a) for a in node.arguments]
        name = node.name
        method = self.method_name
        if node.target is None:
            compiled = self.program.methods.get((name, len(arguments)))
            if compiled is None:
                arity = len(arguments)

                def missing(F: Frame, R: Runtime) -> Any:
                    for argument in arguments:
                        argument(F, R)
                    raise JavaRuntimeError(
                        f"no method {name}/{arity} in submission"
                    )

                return missing
            callee = compiled

            def call(F: Frame, R: Runtime) -> Any:
                return callee.invoke([a(F, R) for a in arguments], R)

            return call
        # `System.out` (a static field, which wins over locals) and
        # unshadowed static classes compile to constant and class-ref
        # targets, so they dispatch here like the tree-walker's calls
        target = self._compile_expr(node.target)

        def call_dynamic(F: Frame, R: Runtime) -> Any:
            argument_values = [a(F, R) for a in arguments]
            return _dispatch_call(
                R, method, target(F, R), name, argument_values
            )

        return call_dynamic

    def _compile_creation(self, node: ast.ObjectCreation) -> ExprFn:
        arguments = [self._compile_expr(a) for a in node.arguments]
        name = node.type.name
        if name in ("Scanner", "java.util.Scanner"):
            def new_scanner(F: Frame, R: Runtime) -> Any:
                values = [a(F, R) for a in arguments]
                R.allocations += 1
                source = values[0] if values else "<stdin>"
                if isinstance(source, stdlib.FileObject):
                    return stdlib.ScannerObject(R.files.read(source.name))
                if source == "<stdin>":
                    return stdlib.ScannerObject(R.stdin)
                if isinstance(source, str):
                    return stdlib.ScannerObject(source)
                raise JavaRuntimeError("unsupported Scanner source")

            return new_scanner
        if name in ("File", "java.io.File"):
            def new_file(F: Frame, R: Runtime) -> Any:
                values = [a(F, R) for a in arguments]
                R.allocations += 1
                return stdlib.FileObject(str(values[0]))

            return new_file
        if name == "String":
            def new_string(F: Frame, R: Runtime) -> Any:
                values = [a(F, R) for a in arguments]
                R.allocations += 1
                return str(values[0]) if values else ""

            return new_string
        if name in ("StringBuilder", "StringBuffer"):
            def new_builder(F: Frame, R: Runtime) -> Any:
                values = [a(F, R) for a in arguments]
                R.allocations += 1
                initial = ""
                if values and isinstance(values[0], str):
                    initial = values[0]
                return stdlib.StringBuilderObject(initial)

            return new_builder

        def cannot(F: Frame, R: Runtime) -> Any:
            for argument in arguments:
                argument(F, R)
            raise JavaRuntimeError(f"cannot instantiate {name}")

        return cannot

    def _compile_array_creation(self, node: ast.ArrayCreation) -> ExprFn:
        if node.initializer is not None:
            return self._compile_array_initializer(
                node.initializer, node.type.name
            )
        element = node.type.name
        dims = node.type.dimensions
        if not node.dimensions:
            def no_dims(F: Frame, R: Runtime) -> Any:
                raise JavaRuntimeError("array creation without dimensions")

            return no_dims
        lengths = [self._compile_expr(d) for d in node.dimensions]

        def new_array(F: Frame, R: Runtime) -> Any:
            sizes = [_int_index(length(F, R)) for length in lengths]
            R.allocations += 1
            return _make_array(element, sizes, dims)

        return new_array

    def _compile_array_initializer(
        self, node: ast.ArrayInitializer, element: str
    ) -> ExprFn:
        items: list[ExprFn] = []
        coerce = element in ("double", "float")
        for item in node.elements:
            if isinstance(item, ast.ArrayInitializer):
                items.append(self._compile_array_initializer(item, element))
            else:
                fn = self._compile_expr(item)
                items.append(_float_coerced(fn) if coerce else fn)

        def initializer(F: Frame, R: Runtime) -> Any:
            R.allocations += 1
            return JavaArray(element, [item(F, R) for item in items])

        return initializer

    def _compile_unary(self, node: ast.Unary) -> ExprFn:
        operator = node.operator
        if operator in ("++", "--"):
            return self._compile_incdec(node)
        operand = self._compile_expr(node.operand)

        def unary(F: Frame, R: Runtime) -> Any:
            return _unary_value(operator, operand(F, R))

        return unary

    def _compile_incdec(self, node: ast.Unary) -> ExprFn:
        operator = node.operator
        delta = 1 if operator == "++" else -1
        prefix = node.prefix
        operand = node.operand
        load = self._compile_expr(operand)
        store = self._compile_store(operand)

        def incdec(F: Frame, R: Runtime) -> Any:
            old = load(F, R)
            if type(old) is int:
                new = old + delta
                if not _INT_MIN <= new <= _INT_MAX:
                    new = wrap_int(new)
            else:
                number = numeric_value(old)
                if number is None:
                    raise JavaRuntimeError(
                        f"cannot {operator} {java_str(old)}"
                    )
                new = number + delta
                if isinstance(number, int):
                    new = wrap_int(new)
            store(F, R, new)
            return new if prefix else old

        return incdec

    def _compile_binary(self, node: ast.Binary) -> ExprFn:
        operator = node.operator
        if operator in ("&&", "||"):
            return self._compile_logical(node)
        left = self._compile_expr(node.left)
        right = self._compile_expr(node.right)
        return _binop_closure(operator, left, right)

    def _compile_logical(self, node: ast.Binary) -> ExprFn:
        is_and = node.operator == "&&"
        left = self._compile_expr(node.left)
        right = self._compile_expr(node.right)
        if is_and:
            def and_(F: Frame, R: Runtime) -> Any:
                value = left(F, R)
                if value is False:
                    return False
                if value is not True:
                    return _raise_condition(value)
                value = right(F, R)
                if value is True:
                    return True
                if value is False:
                    return False
                return _raise_condition(value)

            return and_

        def or_(F: Frame, R: Runtime) -> Any:
            value = left(F, R)
            if value is True:
                return True
            if value is not False:
                return _raise_condition(value)
            value = right(F, R)
            if value is True:
                return True
            if value is False:
                return False
            return _raise_condition(value)

        return or_

    def _compile_ternary(self, node: ast.Ternary) -> ExprFn:
        condition = self._compile_expr(node.condition)
        if_true = self._compile_expr(node.if_true)
        if_false = self._compile_expr(node.if_false)

        def ternary(F: Frame, R: Runtime) -> Any:
            value = condition(F, R)
            if value is True:
                return if_true(F, R)
            if value is False:
                return if_false(F, R)
            return _raise_condition(value)

        return ternary

    def _compile_assignment(self, node: ast.Assignment) -> ExprFn:
        target = node.target
        if node.operator == "=":
            value_fn = self._compile_expr(node.value)
            store = self._compile_store(target)

            def assign(F: Frame, R: Runtime) -> Any:
                value = value_fn(F, R)
                store(F, R, value)
                return value

            return assign
        operator = node.operator[:-1]
        load = self._compile_expr(target)
        value_fn = self._compile_expr(node.value)
        store = self._compile_store(target)
        fast = _INT_FAST.get(operator)

        def compound(F: Frame, R: Runtime) -> Any:
            current = load(F, R)
            rhs = value_fn(F, R)
            if fast is not None and type(current) is int and \
                    type(rhs) is int:
                value = fast(current, rhs)
                if not _INT_MIN <= value <= _INT_MAX:
                    value = wrap_int(value)
            else:
                value = _binary_value(operator, current, rhs)
                # compound assignment to an int variable narrows the
                # result, e.g. `int x; x += 1.5` keeps x an int in Java
                if isinstance(current, int) and \
                        not isinstance(current, bool) and \
                        isinstance(value, float):
                    value = wrap_int(int(value))
            store(F, R, value)
            return value

        return compound

    def _compile_store(
        self, target: ast.Expression
    ) -> Callable[["Frame", Runtime, Any], None]:
        if isinstance(target, ast.Name):
            name = target.identifier
            slot = self._resolve(name)
            method = self.method_name
            if slot is None:
                def store_undefined(F: Frame, R: Runtime, value: Any) -> None:
                    raise JavaRuntimeError(f"undefined variable {name}")

                return store_undefined
            sindex: int = slot
            if slot in self.checked:
                def store_checked(F: Frame, R: Runtime, value: Any) -> None:
                    current = F[sindex]
                    if current is _UNDEF:
                        # tree-walker: env.lookup fails before assign
                        raise JavaRuntimeError(f"undefined variable {name}")
                    if type(current) is float and type(value) is int:
                        value = float(value)
                    F[sindex] = value
                    tracer = R.tracer
                    if tracer is not None:
                        tracer.on_assign(method, name, value)

                return store_checked

            def store_slot(F: Frame, R: Runtime, value: Any) -> None:
                if type(F[sindex]) is float and type(value) is int:
                    value = float(value)
                F[sindex] = value
                tracer = R.tracer
                if tracer is not None:
                    tracer.on_assign(method, name, value)

            return store_slot
        if isinstance(target, ast.ArrayAccess):
            array = self._compile_expr(target.array)
            index = self._compile_expr(target.index)
            array_name = (
                target.array.identifier
                if isinstance(target.array, ast.Name) else None
            )
            method = self.method_name

            def store_element(F: Frame, R: Runtime, value: Any) -> None:
                array_value = array(F, R)
                index_value = index(F, R)
                if type(index_value) is not int:
                    index_value = _int_index(index_value)
                if not isinstance(array_value, JavaArray):
                    raise JavaRuntimeError("NullPointerException: not an array")
                if array_value.element_type in ("double", "float") and \
                        type(value) is int:
                    value = float(value)
                elements = array_value.elements
                if 0 <= index_value < len(elements):
                    elements[index_value] = value
                else:
                    array_value.set(index_value, value)
                if array_name is not None:
                    tracer = R.tracer
                    if tracer is not None:
                        tracer.on_assign(method, array_name, array_value)

            return store_element
        kind = type(target).__name__

        def store_invalid(F: Frame, R: Runtime, value: Any) -> None:
            raise JavaRuntimeError(f"cannot assign to {kind}")

        return store_invalid

    def _compile_cast(self, node: ast.Cast) -> ExprFn:
        expression = self._compile_expr(node.expression)
        name = node.type.name
        if name in ("int", "short", "byte", "long"):
            def cast_int(F: Frame, R: Runtime) -> Any:
                value = expression(F, R)
                if type(value) is int:
                    return value if _INT_MIN <= value <= _INT_MAX \
                        else wrap_int(value)
                number = numeric_value(value)
                if number is None:
                    raise JavaRuntimeError(
                        f"cannot cast {java_str(value)} to {name}"
                    )
                return wrap_int(int(number))

            return cast_int
        if name in ("double", "float"):
            def cast_float(F: Frame, R: Runtime) -> Any:
                value = expression(F, R)
                number = numeric_value(value)
                if number is None:
                    raise JavaRuntimeError(
                        f"cannot cast {java_str(value)} to {name}"
                    )
                return float(number)

            return cast_float
        if name == "char":
            def cast_char(F: Frame, R: Runtime) -> Any:
                value = expression(F, R)
                number = numeric_value(value)
                if number is None:
                    raise JavaRuntimeError("cannot cast to char")
                return JavaChar(chr(int(number) & 0xFFFF))

            return cast_char
        return expression


def _unary_value(operator: str, value: Any) -> Any:
    """Non-lvalue unary semantics, matching the tree-walker exactly."""
    if operator == "!":
        if value is True:
            return False
        if value is False:
            return True
        return _raise_condition(value)
    number = numeric_value(value)
    if number is None:
        raise JavaRuntimeError(
            f"cannot apply {operator} to {java_str(value)}"
        )
    if operator == "-":
        return wrap_int(-number) if isinstance(number, int) else -number
    if operator == "+":
        return number
    if operator == "~":
        if not isinstance(number, int):
            raise JavaRuntimeError("~ requires an integer")
        return wrap_int(~number)
    raise JavaRuntimeError(f"unknown unary operator {operator}")


def _float_coerced(fn: ExprFn) -> ExprFn:
    """Declared double/float: int initializers widen (bools excluded)."""

    def coerced(F: Frame, R: Runtime) -> Any:
        value = fn(F, R)
        if type(value) is int:
            return float(value)
        return value

    return coerced


def _char_coerced(fn: ExprFn) -> ExprFn:
    """Declared int/short/byte: char initializers narrow to code points."""

    def coerced(F: Frame, R: Runtime) -> Any:
        value = fn(F, R)
        if type(value) is JavaChar:
            return value.code
        return value

    return coerced


#: ``int``-operand fast paths of the binary operators, by family: ``+ - *``
#: wrap to 32 bits (the closure's range check), ``/ %`` truncate with
#: Java's sign rules, and comparisons are exact.  Any other operand types
#: or operators take :func:`_binary_value`.
_INT_FAST: dict[str, Callable[[int, int], Any]] = {
    "+": add, "-": sub, "*": mul,
    "/": java_div, "%": java_rem,
    "<": lt, "<=": le, ">": gt, ">=": ge, "==": eq, "!=": ne,
}


def _binop_closure(op: str, left: ExprFn, right: ExprFn) -> ExprFn:
    """A binary-operator closure with the ``int`` fast path of its table.

    The fast path computes exactly what :func:`_binary_value` would for
    two ``int`` operands (``bool`` is excluded by the exact type test);
    anything else falls through to it, so semantics cannot drift.
    """
    fast = _INT_FAST.get(op)

    def binop(F: Frame, R: Runtime) -> Any:
        lhs = left(F, R)
        rhs = right(F, R)
        if fast is not None and type(lhs) is int and type(rhs) is int:
            result = fast(lhs, rhs)
            if _INT_MIN <= result <= _INT_MAX:
                return result
            return wrap_int(result)
        return _binary_value(op, lhs, rhs)

    return binop


# ----------------------------------------------------------------------
# program compilation + cache


def _compile_program(unit: ast.CompilationUnit) -> CompiledProgram:
    program = CompiledProgram()
    # two-phase: register every method first (duplicate (name, arity)
    # pairs overwrite, last wins — the tree-walker's dict behavior), then
    # compile bodies so call sites can bind callees directly
    declarations: dict[tuple[str, int], ast.MethodDecl] = {}
    for method in unit.methods():
        declarations[(method.name, method.arity)] = method
    for key, method in declarations.items():
        program.methods[key] = CompiledMethod(
            method.name,
            tuple(parameter.name for parameter in method.parameters),
        )
    for key, method in declarations.items():
        _MethodCompiler(program, program.methods[key], method)
    return program


class _ProgramCache:
    """Source-keyed bounded cache of compiled programs (FIFO eviction)."""

    def __init__(self, capacity: int = 256) -> None:
        self.capacity = capacity
        self._programs: dict[str, CompiledProgram] = {}
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0

    def get(self, key: str) -> CompiledProgram | None:
        with self._lock:
            return self._programs.get(key)

    def put(self, key: str, program: CompiledProgram) -> None:
        with self._lock:
            if key in self._programs:
                return
            if len(self._programs) >= self.capacity:
                del self._programs[next(iter(self._programs))]
            self._programs[key] = program

    def clear(self) -> None:
        with self._lock:
            self._programs.clear()
            self.hits = 0
            self.misses = 0

    def stats(self) -> dict[str, int]:
        with self._lock:
            return {
                "size": len(self._programs),
                "capacity": self.capacity,
                "hits": self.hits,
                "misses": self.misses,
            }


_PROGRAM_CACHE = _ProgramCache()

#: Memo attribute stashed on the CompilationUnit itself: the same parse
#: always maps to the same program, no key needed.
_MEMO_ATTR = "_compiled_program"


def compile_unit(
    unit: ast.CompilationUnit, cache_key: str | None = None
) -> CompiledProgram:
    """Compile ``unit`` once; reuse via unit memo and source-keyed cache.

    ``cache_key`` should be the submission's source text (the same key
    the frontend cache uses): duplicate-heavy cohorts and repeated
    re-verification of the same source then share one compiled program
    across separate parses.  Cache traffic is reported through the
    ambient collector as ``interp.compile_hits`` / ``interp.compile_misses``.
    """
    program = getattr(unit, _MEMO_ATTR, None)
    if program is not None:
        _PROGRAM_CACHE.hits += 1
        count("interp.compile_hits")
        return program  # type: ignore[no-any-return]
    if cache_key is not None:
        cached = _PROGRAM_CACHE.get(cache_key)
        if cached is not None:
            _PROGRAM_CACHE.hits += 1
            count("interp.compile_hits")
            try:
                setattr(unit, _MEMO_ATTR, cached)
            except AttributeError:  # pragma: no cover - slots guard
                pass
            return cached
    _PROGRAM_CACHE.misses += 1
    count("interp.compile_misses")
    program = _compile_program(unit)
    try:
        setattr(unit, _MEMO_ATTR, program)
    except AttributeError:  # pragma: no cover - slots guard
        pass
    if cache_key is not None:
        _PROGRAM_CACHE.put(cache_key, program)
    return program


def program_cache_stats() -> dict[str, int]:
    """Hit/miss/size counters of the module-level program cache."""
    return _PROGRAM_CACHE.stats()


def clear_program_cache() -> None:
    """Drop all cached programs and reset counters (test isolation)."""
    _PROGRAM_CACHE.clear()


def cost_of(program: CompiledProgram, runtime: Runtime) -> CostCounters:
    """Snapshot a finished runtime's counters as :class:`CostCounters`."""
    return CostCounters(
        steps=runtime.steps,
        calls=runtime.calls,
        allocations=runtime.allocations,
        loop_iterations=dict(zip(program.loop_ids, runtime.loop_iters)),
    )
