"""Canonical printer: render AST nodes back to normalized Java source.

Two jobs depend on this module:

* The EPDG builder labels every graph node with the *canonical* text of its
  expression (single spaces around binary operators, no redundant
  parentheses), which is what pattern templates match against.
* The synthetic-submission generator unparses mutated ASTs into compilable
  source text.

Expression printing is precedence-aware, so ``(i % 2) == 1`` and
``i % 2 == 1`` both render to ``i % 2 == 1`` while parentheses that change
meaning (``(a + b) * c``) are preserved.
"""

from __future__ import annotations

from repro.java import ast

_PRECEDENCE = {
    "=": 0, "+=": 0, "-=": 0, "*=": 0, "/=": 0, "%=": 0,
    "&=": 0, "|=": 0, "^=": 0, "<<=": 0, ">>=": 0, ">>>=": 0,
    "?:": 1,
    "||": 2,
    "&&": 3,
    "|": 4,
    "^": 5,
    "&": 6,
    "==": 7, "!=": 7,
    "<": 8, ">": 8, "<=": 8, ">=": 8, "instanceof": 8,
    "<<": 9, ">>": 9, ">>>": 9,
    "+": 10, "-": 10,
    "*": 11, "/": 11, "%": 11,
    "unary": 12,
    "postfix": 13,
}

_STRING_ESCAPES = {
    "\\": "\\\\", '"': '\\"', "\n": "\\n", "\t": "\\t",
    "\r": "\\r", "\b": "\\b", "\f": "\\f", "\0": "\\0",
}


def _escape_string(value: str) -> str:
    return "".join(_STRING_ESCAPES.get(ch, ch) for ch in value)


#: Precedence assigned to forms that are never parenthesized (atoms and
#: postfix-shaped nodes such as calls, field accesses, and indexing).
_ATOM = 99


def print_expression(node: ast.Expression) -> str:
    """Render an expression to canonical single-line source text."""
    try:
        return node._printed[0]  # type: ignore[attr-defined]
    except AttributeError:
        return _expr(node, 0)


def _expr(node: ast.Expression, parent_precedence: int) -> str:
    """Memoized rendering: each node caches ``(core text, precedence)``.

    The core text embeds the children's parentheses (those depend only on
    this node), while this node's own parentheses depend on the caller and
    are applied per call.  The memo lives directly on the (mutable,
    never-mutated-after-parse) AST node, so identical statements printed
    repeatedly — EPDG labels, feedback rendering, synthesis — cost one dict
    lookup after the first rendering.
    """
    try:
        text, precedence = node._printed  # type: ignore[attr-defined]
    except AttributeError:
        text, precedence = _render(node)
        node._printed = (text, precedence)  # type: ignore[attr-defined]
    if precedence < parent_precedence:
        return f"({text})"
    return text


def _render(node: ast.Expression) -> tuple[str, int]:
    if isinstance(node, ast.Literal):
        return _literal(node), _ATOM
    if isinstance(node, ast.Name):
        return node.identifier, _ATOM
    if isinstance(node, ast.FieldAccess):
        return f"{_expr(node.target, _PRECEDENCE['postfix'])}.{node.name}", _ATOM
    if isinstance(node, ast.ArrayAccess):
        return (
            f"{_expr(node.array, _PRECEDENCE['postfix'])}"
            f"[{_expr(node.index, 0)}]"
        ), _ATOM
    if isinstance(node, ast.MethodCall):
        arguments = ", ".join(_expr(arg, 0) for arg in node.arguments)
        if node.target is None:
            return f"{node.name}({arguments})", _ATOM
        return (
            f"{_expr(node.target, _PRECEDENCE['postfix'])}.{node.name}({arguments})"
        ), _ATOM
    if isinstance(node, ast.ObjectCreation):
        arguments = ", ".join(_expr(arg, 0) for arg in node.arguments)
        return f"new {node.type}({arguments})", _ATOM
    if isinstance(node, ast.ArrayCreation):
        base = node.type.name
        dims = "".join(f"[{_expr(d, 0)}]" for d in node.dimensions)
        dims += "[]" * (node.type.dimensions - len(node.dimensions))
        text = f"new {base}{dims}"
        if node.initializer is not None:
            text += " " + _expr(node.initializer, 0)
        return text, _ATOM
    if isinstance(node, ast.ArrayInitializer):
        return "{" + ", ".join(_expr(e, 0) for e in node.elements) + "}", _ATOM
    if isinstance(node, ast.Unary):
        precedence = _PRECEDENCE["unary" if node.prefix else "postfix"]
        operand = _expr(node.operand, precedence)
        if not node.prefix:
            return f"{operand}{node.operator}", precedence
        if operand[:1] in ("+", "-") and operand[0] == node.operator[-1]:
            # -(-x) and -(-1), never --x or --1, which lex as a decrement
            operand = f"({operand})"
        return f"{node.operator}{operand}", precedence
    if isinstance(node, ast.Binary):
        precedence = _PRECEDENCE[node.operator]
        left = _expr(node.left, precedence)
        # +1 forces parentheses on same-precedence right operands, keeping
        # left-associativity explicit: a - (b - c).
        right = _expr(node.right, precedence + 1)
        return f"{left} {node.operator} {right}", precedence
    if isinstance(node, ast.Ternary):
        precedence = _PRECEDENCE["?:"]
        text = (
            f"{_expr(node.condition, precedence + 1)} ? "
            f"{_expr(node.if_true, 0)} : {_expr(node.if_false, precedence)}"
        )
        return text, precedence
    if isinstance(node, ast.Assignment):
        precedence = _PRECEDENCE[node.operator]
        text = (
            f"{_expr(node.target, _PRECEDENCE['postfix'])} {node.operator} "
            f"{_expr(node.value, precedence)}"
        )
        return text, precedence
    if isinstance(node, ast.Cast):
        precedence = _PRECEDENCE["unary"]
        text = f"({node.type}) {_expr(node.expression, precedence)}"
        return text, precedence
    raise TypeError(f"cannot print expression node {type(node).__name__}")


def _literal(node: ast.Literal) -> str:
    if node.kind == "string":
        return f'"{_escape_string(str(node.value))}"'
    if node.kind == "char":
        ch = str(node.value)
        return "'" + _STRING_ESCAPES.get(ch, ch).replace('\\"', '"') + "'"
    if node.kind == "boolean":
        return "true" if node.value else "false"
    if node.kind == "null":
        return "null"
    if node.kind == "long":
        return f"{node.value}L"
    if node.kind == "double":
        value = node.value
        if isinstance(value, float) and value == int(value):
            return f"{value:.1f}"
        return repr(value)
    return str(node.value)


# ----------------------------------------------------------------------
# statements and declarations


class _Printer:
    """Stateful indented printer for statements and declarations."""

    def __init__(self, indent: str = "    "):
        self._indent = indent
        self._lines: list[str] = []
        self._level = 0

    def text(self) -> str:
        return "\n".join(self._lines) + "\n"

    def _emit(self, line: str) -> None:
        self._lines.append(self._indent * self._level + line)

    def declaration(self, node: ast.Node) -> None:
        if isinstance(node, ast.CompilationUnit):
            for imported in node.imports:
                self._emit(f"import {imported};")
            if node.imports:
                self._emit("")
            for cls in node.classes:
                self.declaration(cls)
            for method in node.bare_methods:
                self.declaration(method)
            return
        if isinstance(node, ast.ClassDecl):
            modifiers = " ".join(node.modifiers)
            prefix = f"{modifiers} " if modifiers else ""
            self._emit(f"{prefix}class {node.name} {{")
            self._level += 1
            for field_decl in node.fields:
                field_modifiers = " ".join(field_decl.modifiers)
                field_prefix = f"{field_modifiers} " if field_modifiers else ""
                declarators = ", ".join(
                    _declarator(d) for d in field_decl.declarators
                )
                self._emit(f"{field_prefix}{field_decl.type} {declarators};")
            for method in node.methods:
                self.declaration(method)
            self._level -= 1
            self._emit("}")
            return
        if isinstance(node, ast.MethodDecl):
            modifiers = " ".join(node.modifiers)
            prefix = f"{modifiers} " if modifiers else ""
            params = ", ".join(f"{p.type} {p.name}" for p in node.parameters)
            throws = f" throws {', '.join(node.throws)}" if node.throws else ""
            self._emit(f"{prefix}{node.return_type} {node.name}({params}){throws} {{")
            self._level += 1
            for statement in node.body.statements:
                self.statement(statement)
            self._level -= 1
            self._emit("}")
            return
        raise TypeError(f"cannot print declaration node {type(node).__name__}")

    def statement(self, node: ast.Statement) -> None:
        if isinstance(node, ast.Block):
            self._emit("{")
            self._level += 1
            for statement in node.statements:
                self.statement(statement)
            self._level -= 1
            self._emit("}")
        elif isinstance(node, ast.LocalVarDecl):
            declarators = ", ".join(_declarator(d) for d in node.declarators)
            self._emit(f"{node.type} {declarators};")
        elif isinstance(node, ast.ExpressionStatement):
            self._emit(f"{print_expression(node.expression)};")
        elif isinstance(node, ast.If):
            self._emit(f"if ({print_expression(node.condition)}) {{")
            self._block_body(node.then_branch)
            if node.else_branch is not None:
                self._emit("} else {")
                self._block_body(node.else_branch)
            self._emit("}")
        elif isinstance(node, ast.While):
            self._emit(f"while ({print_expression(node.condition)}) {{")
            self._block_body(node.body)
            self._emit("}")
        elif isinstance(node, ast.DoWhile):
            self._emit("do {")
            self._block_body(node.body)
            self._emit(f"}} while ({print_expression(node.condition)});")
        elif isinstance(node, ast.For):
            init = "; ".join(_inline_statement(s) for s in node.init)
            condition = print_expression(node.condition) if node.condition else ""
            update = ", ".join(print_expression(u) for u in node.update)
            self._emit(f"for ({init}; {condition}; {update}) {{")
            self._block_body(node.body)
            self._emit("}")
        elif isinstance(node, ast.ForEach):
            self._emit(
                f"for ({node.type} {node.name} : "
                f"{print_expression(node.iterable)}) {{"
            )
            self._block_body(node.body)
            self._emit("}")
        elif isinstance(node, ast.Break):
            self._emit(f"break{' ' + node.label if node.label else ''};")
        elif isinstance(node, ast.Continue):
            self._emit(f"continue{' ' + node.label if node.label else ''};")
        elif isinstance(node, ast.Return):
            if node.value is None:
                self._emit("return;")
            else:
                self._emit(f"return {print_expression(node.value)};")
        elif isinstance(node, ast.Switch):
            self._emit(f"switch ({print_expression(node.selector)}) {{")
            self._level += 1
            for case in node.cases:
                for label in case.labels:
                    if label is None:
                        self._emit("default:")
                    else:
                        self._emit(f"case {print_expression(label)}:")
                self._level += 1
                for statement in case.statements:
                    self.statement(statement)
                self._level -= 1
            self._level -= 1
            self._emit("}")
        elif isinstance(node, ast.EmptyStatement):
            self._emit(";")
        else:
            raise TypeError(f"cannot print statement node {type(node).__name__}")

    def _block_body(self, node: ast.Statement) -> None:
        """Print the body of a control statement one level deeper.

        Bodies that are already blocks are flattened so the output uses a
        single consistent brace style.
        """
        self._level += 1
        if isinstance(node, ast.Block):
            for statement in node.statements:
                self.statement(statement)
        else:
            self.statement(node)
        self._level -= 1


def _declarator(node: ast.VarDeclarator) -> str:
    text = node.name + "[]" * node.extra_dimensions
    if node.initializer is not None:
        text += f" = {print_expression(node.initializer)}"
    return text


def _inline_statement(node: ast.Statement) -> str:
    """Render a for-init statement without the trailing semicolon."""
    if isinstance(node, ast.LocalVarDecl):
        declarators = ", ".join(_declarator(d) for d in node.declarators)
        return f"{node.type} {declarators}"
    if isinstance(node, ast.ExpressionStatement):
        return print_expression(node.expression)
    raise TypeError(f"cannot inline statement node {type(node).__name__}")


def to_source(node: ast.Node) -> str:
    """Render any AST node (expression, statement, or declaration) to source."""
    if isinstance(node, ast.Expression):
        return print_expression(node)
    printer = _Printer()
    if isinstance(node, ast.Statement):
        printer.statement(node)
    else:
        printer.declaration(node)
    return printer.text()
