"""Static side of the performance analyzer: loops and anti-patterns.

Two layers:

* :func:`method_loops` builds a per-method loop table — nesting depth,
  a bound classification (constant / input-linear / data-dependent),
  the induction variable where one is identifiable, and crucially the
  *same stable loop id* (``method:kind@ordinal``) the compiled runtime
  uses to key :class:`~repro.interp.tracing.CostCounters.loop_iterations`.
  The walk mirrors :mod:`repro.interp.compiler` exactly: methods are
  deduplicated by ``(name, arity)`` in first-occurrence order with the
  last body winning, and within a method loops are numbered in
  statement pre-order (a ``for``'s init statements are compiled before
  its id is assigned, but init statements cannot contain loops, so
  pre-order reproduces the numbering).  That shared key is what lets
  the dynamic fitter attach a measured cost shape to a static finding.
* :func:`detect_patterns` runs the anti-pattern detectors over the
  loop table and yields advisory :class:`StaticFinding` records for
  the analyzer to render (and possibly escalate).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Mapping, Sequence

from repro.analysis.cfg import position_of
from repro.analysis.perf.model import (
    LOOP_INVARIANT_RECOMPUTATION,
    NESTED_LOOP_LOOKUP,
    STRING_CONCAT_IN_LOOP,
)
from repro.java import ast
from repro.java.printer import print_expression
from repro.pdg.expressions import defined_variables, used_variables

#: Loop-bound classifications, from cheapest to least predictable.
BOUND_CONSTANT = "constant"
BOUND_INPUT_LINEAR = "input-linear"
BOUND_DATA_DEPENDENT = "data-dependent"

_LOOP_KINDS: dict[type[ast.Statement], str] = {
    ast.While: "while",
    ast.DoWhile: "dowhile",
    ast.For: "for",
    ast.ForEach: "foreach",
}

_SIZE_CALLS = frozenset({"length", "size"})


@dataclass(frozen=True, eq=False)
class LoopInfo:
    """One loop of one method, in compiler numbering order."""

    loop_id: str
    kind: str
    method: str
    depth: int
    bound: str
    loop_var: str | None
    node: ast.Statement
    parent: "LoopInfo | None" = None


@dataclass(frozen=True, eq=False)
class StaticFinding:
    """One detected anti-pattern, before dynamic corroboration.

    ``loop`` is the loop whose iteration counter evidences the problem
    (the *inner* loop for the nested patterns) — the analyzer looks up
    that loop id's fitted shape to decide escalation.
    """

    pattern_id: str
    method: str
    loop: LoopInfo
    gamma: dict[str, str] = field(default_factory=dict)
    position: tuple[int, int] | None = None
    snippet: str | None = None


# ---------------------------------------------------------------------------
# loop table

def method_loops(unit: ast.CompilationUnit) -> dict[str, list[LoopInfo]]:
    """Per-method loop table keyed by method name, compiler order."""
    declarations: dict[tuple[str, int], ast.MethodDecl] = {}
    for method in unit.methods():
        declarations[(method.name, method.arity)] = method
    table: dict[str, list[LoopInfo]] = {}
    for method in declarations.values():
        loops: list[LoopInfo] = []
        ordinal = [0]
        parameters = frozenset(p.name for p in method.parameters)
        for statement in method.body.statements:
            _collect_loops(
                statement, method.name, ordinal, None, parameters, loops
            )
        table.setdefault(method.name, []).extend(loops)
    return table


def _collect_loops(
    statement: ast.Statement,
    method_name: str,
    ordinal: list[int],
    parent: LoopInfo | None,
    parameters: frozenset[str],
    out: list[LoopInfo],
) -> None:
    kind = _LOOP_KINDS.get(type(statement))
    if kind is not None:
        loop_id = f"{method_name}:{kind}@{ordinal[0]}"
        ordinal[0] += 1
        info = LoopInfo(
            loop_id=loop_id,
            kind=kind,
            method=method_name,
            depth=(parent.depth + 1) if parent is not None else 1,
            bound=_classify_bound(statement, parameters),
            loop_var=_loop_variable(statement),
            node=statement,
            parent=parent,
        )
        out.append(info)
        body = _loop_body(statement)
        _collect_loops(body, method_name, ordinal, info, parameters, out)
        return
    if isinstance(statement, ast.Block):
        for child in statement.statements:
            _collect_loops(child, method_name, ordinal, parent, parameters, out)
    elif isinstance(statement, ast.If):
        _collect_loops(
            statement.then_branch, method_name, ordinal, parent, parameters, out
        )
        if statement.else_branch is not None:
            _collect_loops(
                statement.else_branch, method_name, ordinal, parent,
                parameters, out,
            )
    elif isinstance(statement, ast.Switch):
        for case in statement.cases:
            for child in case.statements:
                _collect_loops(
                    child, method_name, ordinal, parent, parameters, out
                )


def _loop_body(statement: ast.Statement) -> ast.Statement:
    if isinstance(statement, (ast.While, ast.DoWhile, ast.For, ast.ForEach)):
        return statement.body
    raise TypeError(f"not a loop: {type(statement).__name__}")


def _loop_condition(statement: ast.Statement) -> ast.Expression | None:
    if isinstance(statement, (ast.While, ast.DoWhile)):
        return statement.condition
    if isinstance(statement, ast.For):
        return statement.condition
    return None


def _loop_variable(statement: ast.Statement) -> str | None:
    """The induction/iteration variable, where one is identifiable."""
    if isinstance(statement, ast.ForEach):
        return statement.name
    if isinstance(statement, ast.For):
        for init in statement.init:
            if isinstance(init, ast.LocalVarDecl) and init.declarators:
                return init.declarators[0].name
            if isinstance(init, ast.ExpressionStatement) and isinstance(
                init.expression, ast.Assignment
            ) and isinstance(init.expression.target, ast.Name):
                return init.expression.target.identifier
        condition = statement.condition
    else:
        condition = _loop_condition(statement)
    # while/dowhile (and degenerate for): a condition variable that the
    # body also writes is the loop's progress variable
    if condition is None:
        return None
    candidates = used_variables(condition)
    if not candidates:
        return None
    body = _loop_body(statement)
    for expression in _statement_tree_expressions(body):
        for name in sorted(defined_variables(expression)):
            if name in candidates:
                return name
    if isinstance(statement, ast.For):
        for update in statement.update:
            for name in sorted(defined_variables(update)):
                if name in candidates:
                    return name
    return None


def _classify_bound(
    statement: ast.Statement, parameters: frozenset[str]
) -> str:
    """Constant / input-linear / data-dependent trip-count estimate."""
    if isinstance(statement, ast.ForEach):
        if used_variables(statement.iterable) & parameters:
            return BOUND_INPUT_LINEAR
        return BOUND_DATA_DEPENDENT
    condition = _loop_condition(statement)
    if condition is None:
        return BOUND_DATA_DEPENDENT
    if _mentions_size(condition):
        return BOUND_INPUT_LINEAR
    uses = used_variables(condition)
    if not uses:
        return BOUND_CONSTANT
    loop_var = _loop_variable(statement)
    if (
        isinstance(statement, ast.For)
        and loop_var is not None
        and uses <= {loop_var}
        and _has_int_literal(condition)
        and _initialized_to_literal(statement, loop_var)
    ):
        # for (int i = <literal>; i <op> <literal>; ...): a fixed trip
        # count.  A while over a shrinking parameter also matches the
        # uses/literal test, but its trip count depends on the input —
        # the init check is what separates the two.
        return BOUND_CONSTANT
    return BOUND_DATA_DEPENDENT


def _initialized_to_literal(statement: ast.For, loop_var: str) -> bool:
    for init in statement.init:
        if isinstance(init, ast.LocalVarDecl):
            for declarator in init.declarators:
                if declarator.name == loop_var:
                    return isinstance(declarator.initializer, ast.Literal)
        elif isinstance(init, ast.ExpressionStatement) and isinstance(
            init.expression, ast.Assignment
        ) and isinstance(init.expression.target, ast.Name) \
                and init.expression.target.identifier == loop_var:
            return isinstance(init.expression.value, ast.Literal)
    return False


def _mentions_size(expression: ast.Expression) -> bool:
    for node in ast.walk(expression):
        if isinstance(node, ast.FieldAccess) and node.name == "length":
            return True
        if isinstance(node, ast.MethodCall) and node.name in _SIZE_CALLS:
            return True
    return False


def _has_int_literal(expression: ast.Expression) -> bool:
    return any(
        isinstance(node, ast.Literal) and isinstance(node.value, int)
        and not isinstance(node.value, bool)
        for node in ast.walk(expression)
    )


# ---------------------------------------------------------------------------
# statement-region helpers

def _region_statements(statement: ast.Statement) -> Iterator[ast.Statement]:
    """Pre-order statements, *not* descending into nested loops.

    The loop statements themselves are yielded (so callers can stop at
    them), but their bodies belong to the nested loop's own region.
    """
    yield statement
    if isinstance(statement, tuple(_LOOP_KINDS)):
        return
    if isinstance(statement, ast.Block):
        for child in statement.statements:
            yield from _region_statements(child)
    elif isinstance(statement, ast.If):
        yield from _region_statements(statement.then_branch)
        if statement.else_branch is not None:
            yield from _region_statements(statement.else_branch)
    elif isinstance(statement, ast.Switch):
        for case in statement.cases:
            for child in case.statements:
                yield from _region_statements(child)


def _loop_region(loop: LoopInfo) -> Iterator[ast.Statement]:
    """The loop's own statements: its body region minus nested loops."""
    body = _loop_body(loop.node)
    if isinstance(body, tuple(_LOOP_KINDS)):
        yield body
        return
    yield from _region_statements(body)


def _expressions_of(statement: ast.Statement) -> Iterator[ast.Expression]:
    """Expressions attached to one statement (not nested statements)."""
    if isinstance(statement, ast.ExpressionStatement):
        yield statement.expression
    elif isinstance(statement, ast.LocalVarDecl):
        for declarator in statement.declarators:
            if declarator.initializer is not None:
                yield declarator.initializer
    elif isinstance(statement, ast.If):
        yield statement.condition
    elif isinstance(statement, ast.Return):
        if statement.value is not None:
            yield statement.value
    elif isinstance(statement, ast.Switch):
        yield statement.selector
    elif isinstance(statement, (ast.While, ast.DoWhile)):
        yield statement.condition
        yield from _statement_tree_expressions(statement.body)
    elif isinstance(statement, ast.For):
        for init in statement.init:
            yield from _expressions_of(init)
        if statement.condition is not None:
            yield statement.condition
        yield from statement.update
        yield from _statement_tree_expressions(statement.body)
    elif isinstance(statement, ast.ForEach):
        yield statement.iterable
        yield from _statement_tree_expressions(statement.body)
    elif isinstance(statement, ast.Block):
        pass


def _statement_tree_expressions(
    statement: ast.Statement,
) -> Iterator[ast.Expression]:
    for child in _region_statements(statement):
        yield from _expressions_of(child)


def _region_written(loop: LoopInfo) -> list[str]:
    """Variables written in the loop's own region, first-write order."""
    written: list[str] = []
    seen: set[str] = set()
    for statement in _loop_region(loop):
        if statement is loop.node:
            continue
        for expression in _expressions_of(statement):
            for name in sorted(defined_variables(expression)):
                if name not in seen and _writes(expression, name):
                    seen.add(name)
                    written.append(name)
    return written


def _writes(expression: ast.Expression, name: str) -> bool:
    """True when the expression *assigns* ``name`` (not array stores)."""
    for node in ast.walk(expression):
        if isinstance(node, ast.Assignment) and isinstance(
            node.target, ast.Name
        ) and node.target.identifier == name:
            return True
        if isinstance(node, ast.Unary) and node.operator in ("++", "--") \
                and isinstance(node.operand, ast.Name) \
                and node.operand.identifier == name:
            return True
    return False


# ---------------------------------------------------------------------------
# detectors

def detect_patterns(
    unit: ast.CompilationUnit,
    table: Mapping[str, Sequence[LoopInfo]] | None = None,
) -> list[StaticFinding]:
    """Run every static anti-pattern detector; source order per method."""
    if table is None:
        table = method_loops(unit)
    declarations: dict[tuple[str, int], ast.MethodDecl] = {}
    for method in unit.methods():
        declarations[(method.name, method.arity)] = method
    findings: list[StaticFinding] = []
    for method in declarations.values():
        loops = list(table.get(method.name, ()))
        findings.extend(_detect_nested_lookup(method, loops))
        findings.extend(_detect_invariant_recomputation(method, loops))
        findings.extend(_detect_string_concat(method, loops))
    return findings


def _detect_nested_lookup(
    method: ast.MethodDecl, loops: Sequence[LoopInfo]
) -> Iterator[StaticFinding]:
    """Inner loop that re-scans the input to locate one outer position.

    Signature: an equality test inside the inner loop relating the
    inner loop's variable to the enclosing loop's variable — the inner
    scan exists only to find the index the outer loop already has.
    """
    for loop in loops:
        parent = loop.parent
        if parent is None or loop.loop_var is None \
                or parent.loop_var is None:
            continue
        probe = _find_lookup_probe(loop, parent)
        if probe is None:
            continue
        yield StaticFinding(
            pattern_id=NESTED_LOOP_LOOKUP.id,
            method=method.name,
            loop=loop,
            gamma={
                "outer_kind": parent.kind,
                "inner_kind": loop.kind,
                "outer_var": parent.loop_var,
                "inner_var": loop.loop_var,
                "probe": print_expression(probe),
            },
            position=position_of(loop.node),
            snippet=print_expression(probe),
        )


def _find_lookup_probe(
    loop: LoopInfo, parent: LoopInfo
) -> ast.Expression | None:
    inner_var, outer_var = loop.loop_var, parent.loop_var
    sources: list[ast.Expression] = []
    condition = _loop_condition(loop.node)
    if condition is not None:
        sources.append(condition)
    for statement in _loop_region(loop):
        if statement is not loop.node:
            sources.extend(_expressions_of(statement))
    for source in sources:
        for node in ast.walk(source):
            equality = (
                isinstance(node, ast.Binary) and node.operator == "=="
            ) or (
                isinstance(node, ast.MethodCall) and node.name == "equals"
                and node.target is not None
            )
            if not equality:
                continue
            assert isinstance(node, ast.Expression)
            uses = used_variables(node)
            if inner_var in uses and outer_var in uses:
                return node
    return None


def _detect_invariant_recomputation(
    method: ast.MethodDecl, loops: Sequence[LoopInfo]
) -> Iterator[StaticFinding]:
    """Inner loop rebuilding a value reset in the enclosing loop's body.

    Signature: a variable initialized in the outer loop's body *before*
    the inner loop and re-accumulated by the inner loop on every outer
    pass — the classic "reset, then recompute from scratch" shape.
    """
    loop_vars = frozenset(
        info.loop_var for info in loops if info.loop_var is not None
    )
    for loop in loops:
        parent = loop.parent
        if parent is None:
            continue
        prefix = _statements_before(parent, loop)
        if prefix is None:
            continue
        for name in _region_written(loop):
            if name in loop_vars:
                continue
            if _initialized_in(prefix, name):
                yield StaticFinding(
                    pattern_id=LOOP_INVARIANT_RECOMPUTATION.id,
                    method=method.name,
                    loop=loop,
                    gamma={
                        "var": name,
                        "inner_kind": loop.kind,
                        "outer_kind": parent.kind,
                    },
                    position=position_of(loop.node),
                    snippet=None,
                )
                break


def _statements_before(
    parent: LoopInfo, loop: LoopInfo
) -> list[ast.Statement] | None:
    """Statements in the parent's region preceding ``loop`` (pre-order)."""
    prefix: list[ast.Statement] = []
    for statement in _loop_region(parent):
        if statement is loop.node:
            return prefix
        prefix.append(statement)
    return None


def _initialized_in(statements: Sequence[ast.Statement], name: str) -> bool:
    for statement in statements:
        if isinstance(statement, ast.LocalVarDecl):
            for declarator in statement.declarators:
                if declarator.name == name \
                        and declarator.initializer is not None:
                    return True
        elif isinstance(statement, ast.ExpressionStatement):
            expression = statement.expression
            if isinstance(expression, ast.Assignment) \
                    and expression.operator == "=" \
                    and isinstance(expression.target, ast.Name) \
                    and expression.target.identifier == name:
                return True
    return False


def _detect_string_concat(
    method: ast.MethodDecl, loops: Sequence[LoopInfo]
) -> Iterator[StaticFinding]:
    """String accumulated with ``+=`` (or ``s = s + ...``) in a loop."""
    string_vars = _string_variables(method)
    if not string_vars:
        return
    for loop in loops:
        local_decls = {
            declarator.name
            for statement in _loop_region(loop)
            if isinstance(statement, ast.LocalVarDecl)
            for declarator in statement.declarators
        }
        reported: set[str] = set()
        for statement in _loop_region(loop):
            if statement is loop.node \
                    or not isinstance(statement, ast.ExpressionStatement):
                continue
            expression = statement.expression
            if not isinstance(expression, ast.Assignment) \
                    or not isinstance(expression.target, ast.Name):
                continue
            name = expression.target.identifier
            if name not in string_vars or name in local_decls \
                    or name in reported:
                continue
            concat = expression.operator == "+=" or (
                expression.operator == "="
                and isinstance(expression.value, ast.Binary)
                and expression.value.operator == "+"
                and name in used_variables(expression.value)
            )
            if not concat:
                continue
            reported.add(name)
            yield StaticFinding(
                pattern_id=STRING_CONCAT_IN_LOOP.id,
                method=method.name,
                loop=loop,
                gamma={"var": name, "kind": loop.kind},
                position=position_of(statement),
                snippet=print_expression(expression),
            )


def _string_variables(method: ast.MethodDecl) -> frozenset[str]:
    names = {
        parameter.name
        for parameter in method.parameters
        if parameter.type.name == "String" and parameter.type.dimensions == 0
    }
    for node in ast.walk(method.body):
        if isinstance(node, ast.LocalVarDecl) \
                and node.type.name == "String" and node.type.dimensions == 0:
            names.update(d.name for d in node.declarators)
    return frozenset(names)
