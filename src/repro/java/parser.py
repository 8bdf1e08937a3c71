"""Recursive-descent parser for the Java subset.

The entry points are :func:`parse_submission` (a whole student submission:
a compilation unit, a class body, or one-or-more bare methods) and
:func:`parse_expression` (a single expression, used by pattern templates
and tests).  Operator precedence follows the Java Language Specification
for the subset we accept.
"""

from __future__ import annotations

import math

from repro.errors import JavaSyntaxError
from repro.java import ast
from repro.java.lexer import Token, TokenType, tokenize

#: Primitive type keywords accepted in declarations.
PRIMITIVE_TYPES = frozenset(
    {"boolean", "byte", "char", "short", "int", "long", "float", "double"}
)

_MODIFIERS = frozenset(
    {"public", "private", "protected", "static", "final", "abstract",
     "synchronized", "native", "strictfp", "transient", "volatile"}
)

#: Binary operator precedence (higher binds tighter), per the JLS.
_BINARY_PRECEDENCE = {
    "||": 1,
    "&&": 2,
    "|": 3,
    "^": 4,
    "&": 5,
    "==": 6, "!=": 6,
    "<": 7, ">": 7, "<=": 7, ">=": 7, "instanceof": 7,
    "<<": 8, ">>": 8, ">>>": 8,
    "+": 9, "-": 9,
    "*": 10, "/": 10, "%": 10,
}

_ASSIGN_OPERATORS = frozenset(
    {"=", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "<<=", ">>=", ">>>="}
)

#: Token types whose value is structural syntax rather than literal content.
#: A string literal containing ``"("`` must not satisfy ``_check("(")``.
_STRUCTURAL = frozenset(
    {TokenType.KEYWORD, TokenType.OPERATOR, TokenType.SEPARATOR}
)

_PRIMITIVE_OR_VOID = PRIMITIVE_TYPES | {"void"}

#: Numeric literal token type → its :class:`~repro.java.ast.Literal`
#: kind and the type-suffix letters its spelling may end in.
_NUMBER_KINDS = {
    TokenType.INT_LITERAL: ("int", ""),
    TokenType.LONG_LITERAL: ("long", "lL"),
    TokenType.DOUBLE_LITERAL: ("double", "dDfF"),
}

_UNARY_PREFIX = frozenset({"+", "-", "!", "~"})

#: Deepest nesting a submission may reach.  Each statement, (sub)expression,
#: unary prefix or cast, array-initializer brace, and each link of a
#: left-associative binary or postfix chain counts as one level, so the
#: count bounds the AST depth.  Deeper input raises a positioned
#: :class:`~repro.errors.JavaSyntaxError`, a cacheable ``parse-error``,
#: instead of a RecursionError here or in any later recursive pass.
MAX_DEPTH = 100


#: Bit width of each integer literal kind.
_INTEGER_BITS = {"int": 32, "long": 64}


def _number_literal(token: Token, negated: bool = False) -> ast.Literal:
    """The value of a numeric literal token, read as Java reads it.

    A leading zero makes an integer octal (``010`` is 8); underscores
    are insignificant.  Hex and octal spell a bit pattern of at most 32
    bits (64 for ``long``), read as two's complement (``0xFFFFFFFF`` is
    -1).  Decimal spells a magnitude that must fit the type; only the
    direct operand of unary minus (``negated``) may reach ``2**31``
    (``2**63``), the magnitude of the minimum value.  Malformed octal
    (``09``), a hex prefix without digits (``0x``), a double that
    overflows (``1e999``) and an out-of-range integer are positioned
    syntax errors, as ``javac`` rejects them too.
    """
    kind, suffixes = _NUMBER_KINDS[token.type]
    digits = token.value.rstrip(suffixes).replace("_", "")
    try:
        if kind == "double":
            value: float = float(digits)
            if math.isinf(value):
                raise ValueError(digits)
        else:
            value = _integer_value(digits, _INTEGER_BITS[kind], negated)
    except ValueError:
        raise JavaSyntaxError(
            f"malformed {kind} literal {token.value!r}",
            token.line, token.column,
        ) from None
    except OverflowError:
        raise JavaSyntaxError(
            f"{kind} literal {token.value!r} is out of range",
            token.line, token.column,
        ) from None
    return ast.Literal(value, kind)


def _integer_value(digits: str, bits: int, negated: bool) -> int:
    if digits[:2] in ("0x", "0X"):
        pattern = int(digits[2:], 16)
    elif digits[0] == "0":
        pattern = int(digits, 8)
    else:
        value = int(digits)
        if value > (1 << (bits - 1)) - (0 if negated else 1):
            raise OverflowError(digits)
        return value
    if pattern >> bits:
        raise OverflowError(digits)
    return _wrap(pattern, bits)


def _wrap(value: int, bits: int) -> int:
    """``value`` reduced to a ``bits``-bit two's-complement integer."""
    half = 1 << (bits - 1)
    return (value + half) % (1 << bits) - half


class Parser:
    """Parses a token stream produced by :mod:`repro.java.lexer`."""

    def __init__(self, source: str):
        self._tokens = tokenize(source)
        self._pos = 0
        #: open nesting levels, and the deepest level the operand being
        #: parsed has reached.  Every operand starts with _peak == _depth
        #: (_parse_assignment and _parse_binary reset it), so an
        #: operand's height is how far _peak rose while parsing it.
        self._depth = 0
        self._peak = 0

    # ------------------------------------------------------------------
    # token helpers

    def _peek(self, offset: int = 0) -> Token:
        # The token list always ends with EOF and _advance never moves past
        # it, so _pos itself is always in range; only lookahead can fall off.
        tokens = self._tokens
        if offset:
            index = self._pos + offset
            return tokens[index] if index < len(tokens) else tokens[-1]
        return tokens[self._pos]

    def _advance(self) -> Token:
        token = self._tokens[self._pos]
        if token.type is not TokenType.EOF:
            self._pos += 1
        return token

    def _check(self, value: str, offset: int = 0) -> bool:
        token = self._peek(offset) if offset else self._tokens[self._pos]
        return token.value == value and token.type in _STRUCTURAL

    def _match(self, value: str) -> bool:
        if self._check(value):
            self._advance()
            return True
        return False

    def _expect(self, value: str) -> Token:
        if not self._check(value):
            token = self._peek()
            raise JavaSyntaxError(
                f"expected {value!r} but found {token.value!r}",
                token.line, token.column,
            )
        return self._advance()

    def _expect_identifier(self) -> str:
        token = self._peek()
        if token.type is not TokenType.IDENTIFIER:
            raise JavaSyntaxError(
                f"expected identifier but found {token.value!r}",
                token.line, token.column,
            )
        return self._advance().value

    def _at_eof(self) -> bool:
        return self._peek().type is TokenType.EOF

    def _error(self, message: str) -> JavaSyntaxError:
        token = self._peek()
        return JavaSyntaxError(message, token.line, token.column)

    def _too_deep(self) -> JavaSyntaxError:
        return self._error(f"nesting deeper than {MAX_DEPTH} levels")

    def _enter(self) -> None:
        """Open one nesting level (the caller closes it on success)."""
        depth = self._depth + 1
        if depth > MAX_DEPTH:
            raise self._too_deep()
        self._depth = depth
        if depth > self._peak:
            self._peak = depth

    def _link(self, base: int, height: int) -> int:
        """Add one link to a left-deep chain rooted at depth ``base``.

        The chain's AST grows one level per link, so no recursion depth
        shows it: ``height`` is the chain's height so far, and the
        operand just parsed reached ``self._peak``.  Returns the new
        height.
        """
        height = max(height, self._peak - base) + 1
        if base + height > MAX_DEPTH:
            raise self._too_deep()
        return height

    # ------------------------------------------------------------------
    # top level

    def parse_submission(self) -> ast.CompilationUnit:
        """Parse a whole submission (classes and/or bare methods)."""
        unit = ast.CompilationUnit()
        while self._match("import"):
            parts = [self._expect_identifier()]
            while self._match("."):
                if self._match("*"):
                    parts.append("*")
                    break
                parts.append(self._expect_identifier())
            self._expect(";")
            unit.imports.append(".".join(parts))
        while not self._at_eof():
            modifiers = self._parse_modifiers()
            if self._check("class"):
                unit.classes.append(self._parse_class(modifiers))
            else:
                unit.bare_methods.append(self._parse_method(modifiers))
        return unit

    def parse_expression_only(self) -> ast.Expression:
        """Parse exactly one expression; trailing tokens are an error."""
        expression = self._parse_expression()
        if not self._at_eof():
            raise self._error("unexpected trailing tokens after expression")
        return expression

    def _parse_modifiers(self) -> list[str]:
        modifiers = []
        while self._peek().type is TokenType.KEYWORD and self._peek().value in _MODIFIERS:
            modifiers.append(self._advance().value)
        return modifiers

    def _parse_class(self, modifiers: list[str]) -> ast.ClassDecl:
        self._expect("class")
        name = self._expect_identifier()
        if self._match("extends"):
            self._expect_identifier()
        if self._match("implements"):
            self._expect_identifier()
            while self._match(","):
                self._expect_identifier()
        self._expect("{")
        cls = ast.ClassDecl(name=name, modifiers=modifiers)
        while not self._check("}"):
            if self._at_eof():
                raise self._error("unterminated class body")
            member_modifiers = self._parse_modifiers()
            if self._looks_like_method():
                cls.methods.append(self._parse_method(member_modifiers))
            else:
                decl = self._parse_local_var_decl()
                self._expect(";")
                cls.fields.append(
                    ast.FieldDecl(
                        type=decl.type,
                        declarators=decl.declarators,
                        modifiers=member_modifiers,
                    )
                )
        self._expect("}")
        return cls

    def _looks_like_method(self) -> bool:
        """Disambiguate method declarations from field declarations.

        After the (already consumed) modifiers, a method looks like
        ``Type name (`` whereas a field looks like ``Type name =|;|,``.
        """
        offset = 0
        token = self._peek(offset)
        if token.type not in (TokenType.KEYWORD, TokenType.IDENTIFIER):
            return False
        offset += 1
        while self._check("[", offset) and self._check("]", offset + 1):
            offset += 2
        if self._peek(offset).type is not TokenType.IDENTIFIER:
            return False
        offset += 1
        return self._check("(", offset)

    def _parse_method(self, modifiers: list[str]) -> ast.MethodDecl:
        first_token = self._tokens[self._pos]
        return_type = self._parse_type()
        name = self._expect_identifier()
        self._expect("(")
        parameters: list[ast.Parameter] = []
        if not self._check(")"):
            while True:
                param_type = self._parse_type()
                param_name = self._expect_identifier()
                while self._match("["):
                    self._expect("]")
                    param_type = ast.Type(param_type.name, param_type.dimensions + 1)
                parameters.append(ast.Parameter(type=param_type, name=param_name))
                if not self._match(","):
                    break
        self._expect(")")
        throws: list[str] = []
        if self._match("throws"):
            throws.append(self._expect_identifier())
            while self._match(","):
                throws.append(self._expect_identifier())
        body = self._parse_block()
        method = ast.MethodDecl(
            name=name,
            return_type=return_type,
            parameters=parameters,
            body=body,
            modifiers=modifiers,
            throws=throws,
        )
        method.position = (first_token.line, first_token.column)
        return method

    # ------------------------------------------------------------------
    # types

    def _parse_type(self) -> ast.Type:
        token = self._peek()
        if token.type is TokenType.KEYWORD and token.value in _PRIMITIVE_OR_VOID:
            name = self._advance().value
        elif token.type is TokenType.IDENTIFIER:
            name = self._advance().value
            while self._check(".") and self._peek(1).type is TokenType.IDENTIFIER:
                self._advance()
                name += "." + self._advance().value
        else:
            raise self._error(f"expected type but found {token.value!r}")
        dimensions = 0
        while self._check("[") and self._check("]", 1):
            self._advance()
            self._advance()
            dimensions += 1
        return ast.Type(name, dimensions)

    def _at_type_start(self) -> bool:
        """True when the upcoming tokens begin a local variable declaration."""
        token = self._peek()
        if token.type is TokenType.KEYWORD and token.value in PRIMITIVE_TYPES:
            return True
        if token.type is not TokenType.IDENTIFIER:
            return False
        # `Ident Ident`  ->  declaration (e.g. `Scanner s`)
        if self._peek(1).type is TokenType.IDENTIFIER:
            return True
        # `Ident [ ] Ident`  ->  array declaration (e.g. `int[] a` spelled
        # with a class type, `String[] words`)
        offset = 1
        saw_brackets = False
        while self._check("[", offset) and self._check("]", offset + 1):
            saw_brackets = True
            offset += 2
        return saw_brackets and self._peek(offset).type is TokenType.IDENTIFIER

    # ------------------------------------------------------------------
    # statements

    def _parse_block(self) -> ast.Block:
        self._expect("{")
        block = ast.Block()
        while not self._check("}"):
            if self._at_eof():
                raise self._error("unterminated block")
            block.statements.append(self._parse_statement())
        self._expect("}")
        return block

    def _parse_statement(self) -> ast.Statement:
        token = self._tokens[self._pos]
        self._enter()
        handler = (
            _STATEMENT_DISPATCH.get(token.value)
            if token.type in _STRUCTURAL else None
        )
        if handler is not None:
            statement = handler(self)
        elif self._at_type_start():
            statement = self._parse_local_var_decl()
            self._expect(";")
        else:
            statement = ast.ExpressionStatement(self._parse_expression())
            self._expect(";")
        self._depth -= 1
        # non-field attribute (like the printer/EPDG memo slots):
        # dataclass equality and fields() stay untouched, so
        # differential tests against position-less ASTs still pass
        statement.position = (token.line, token.column)
        return statement

    def _parse_empty_statement(self) -> ast.EmptyStatement:
        self._advance()
        return ast.EmptyStatement()

    def _parse_break(self) -> ast.Break:
        self._advance()
        label = None
        if self._peek().type is TokenType.IDENTIFIER:
            label = self._advance().value
        self._expect(";")
        return ast.Break(label)

    def _parse_continue(self) -> ast.Continue:
        self._advance()
        label = None
        if self._peek().type is TokenType.IDENTIFIER:
            label = self._advance().value
        self._expect(";")
        return ast.Continue(label)

    def _parse_return(self) -> ast.Return:
        self._advance()
        value = None
        if not self._check(";"):
            value = self._parse_expression()
        self._expect(";")
        return ast.Return(value)

    def _parse_final_decl(self) -> ast.LocalVarDecl:
        self._advance()
        declaration = self._parse_local_var_decl()
        self._expect(";")
        return declaration

    def _parse_local_var_decl(self) -> ast.LocalVarDecl:
        var_type = self._parse_type()
        declarators = [self._parse_declarator()]
        while self._match(","):
            declarators.append(self._parse_declarator())
        return ast.LocalVarDecl(type=var_type, declarators=declarators)

    def _parse_declarator(self) -> ast.VarDeclarator:
        name = self._expect_identifier()
        extra_dimensions = 0
        while self._check("[") and self._check("]", 1):
            self._advance()
            self._advance()
            extra_dimensions += 1
        initializer = None
        if self._match("="):
            if self._check("{"):
                initializer = self._parse_array_initializer()
            else:
                initializer = self._parse_expression()
        return ast.VarDeclarator(
            name=name, initializer=initializer, extra_dimensions=extra_dimensions
        )

    def _parse_if(self) -> ast.If:
        self._expect("if")
        self._expect("(")
        condition = self._parse_expression()
        self._expect(")")
        then_branch = self._parse_statement()
        else_branch = None
        if self._match("else"):
            else_branch = self._parse_statement()
        return ast.If(condition, then_branch, else_branch)

    def _parse_while(self) -> ast.While:
        self._expect("while")
        self._expect("(")
        condition = self._parse_expression()
        self._expect(")")
        body = self._parse_statement()
        return ast.While(condition, body)

    def _parse_do_while(self) -> ast.DoWhile:
        self._expect("do")
        body = self._parse_statement()
        self._expect("while")
        self._expect("(")
        condition = self._parse_expression()
        self._expect(")")
        self._expect(";")
        return ast.DoWhile(body, condition)

    def _parse_for(self) -> ast.Statement:
        self._expect("for")
        self._expect("(")
        # enhanced for: `for (Type name : expr)`
        checkpoint = self._pos, self._depth, self._peak
        if self._at_type_start() or (
            self._peek().type is TokenType.KEYWORD
            and self._peek().value in PRIMITIVE_TYPES
        ):
            try:
                item_type = self._parse_type()
                name = self._expect_identifier()
                if self._match(":"):
                    iterable = self._parse_expression()
                    self._expect(")")
                    body = self._parse_statement()
                    return ast.ForEach(item_type, name, iterable, body)
            except JavaSyntaxError:
                pass
            self._pos, self._depth, self._peak = checkpoint
        init: list[ast.Statement] = []
        if not self._check(";"):
            if self._at_type_start():
                init.append(self._parse_local_var_decl())
            else:
                init.append(ast.ExpressionStatement(self._parse_expression()))
                while self._match(","):
                    init.append(ast.ExpressionStatement(self._parse_expression()))
        self._expect(";")
        condition = None
        if not self._check(";"):
            condition = self._parse_expression()
        self._expect(";")
        update: list[ast.Expression] = []
        if not self._check(")"):
            update.append(self._parse_expression())
            while self._match(","):
                update.append(self._parse_expression())
        self._expect(")")
        body = self._parse_statement()
        return ast.For(init, condition, update, body)

    def _parse_switch(self) -> ast.Switch:
        self._expect("switch")
        self._expect("(")
        selector = self._parse_expression()
        self._expect(")")
        self._expect("{")
        cases: list[ast.SwitchCase] = []
        while not self._check("}"):
            labels: list[ast.Expression | None] = []
            while self._check("case") or self._check("default"):
                if self._match("case"):
                    labels.append(self._parse_expression())
                else:
                    self._expect("default")
                    labels.append(None)
                self._expect(":")
            if not labels:
                raise self._error("expected 'case' or 'default' in switch body")
            statements: list[ast.Statement] = []
            while not (
                self._check("case") or self._check("default") or self._check("}")
            ):
                statements.append(self._parse_statement())
            cases.append(ast.SwitchCase(labels, statements))
        self._expect("}")
        return ast.Switch(selector, cases)

    # ------------------------------------------------------------------
    # expressions

    def _parse_expression(self) -> ast.Expression:
        return self._parse_assignment()

    def _parse_assignment(self) -> ast.Expression:
        outer_peak = self._peak
        depth = self._depth + 1
        if depth > MAX_DEPTH:
            raise self._too_deep()
        self._depth = self._peak = depth
        left = self._parse_ternary()
        token = self._tokens[self._pos]
        if token.type is TokenType.OPERATOR and token.value in _ASSIGN_OPERATORS:
            self._pos += 1
            value = self._parse_assignment()
            left = ast.Assignment(target=left, operator=token.value, value=value)
        self._depth = depth - 1
        if outer_peak > self._peak:
            self._peak = outer_peak
        return left

    def _parse_ternary(self) -> ast.Expression:
        condition = self._parse_binary(1)
        token = self._tokens[self._pos]
        if token.value == "?" and token.type is TokenType.OPERATOR:
            self._pos += 1
            if_true = self._parse_expression()
            self._expect(":")
            if_false = self._parse_assignment()
            return ast.Ternary(condition, if_true, if_false)
        return condition

    def _parse_binary(self, min_precedence: int) -> ast.Expression:
        base = self._depth
        left = self._parse_unary()
        height = self._peak - base
        tokens = self._tokens
        get_precedence = _BINARY_PRECEDENCE.get
        while True:
            token = tokens[self._pos]
            token_type = token.type
            if token_type is TokenType.OPERATOR:
                operator = token.value
                precedence = get_precedence(operator)
                if precedence is None or precedence < min_precedence:
                    break
                self._pos += 1
                self._peak = base
                right = self._parse_binary(precedence + 1)
                height = self._link(base, height)
                left = ast.Binary(operator, left, right)
                continue
            if token_type is TokenType.KEYWORD and token.value == "instanceof":
                if _BINARY_PRECEDENCE["instanceof"] < min_precedence:
                    break
                self._pos += 1
                right_type = self._parse_type()
                self._peak = base
                height = self._link(base, height)
                left = ast.Binary("instanceof", left, ast.Name(str(right_type)))
                continue
            break
        self._peak = base + height
        return left

    def _parse_unary(self) -> ast.Expression:
        token = self._tokens[self._pos]
        if token.type is TokenType.OPERATOR:
            operator = token.value
            if operator in _UNARY_PREFIX:
                self._pos += 1
                self._enter()
                literal = self._tokens[self._pos]
                if operator == "-" and literal.type in _NUMBER_KINDS:
                    # the only place 2147483648 may stand, as -2147483648
                    self._pos += 1
                    operand: ast.Expression = _number_literal(literal, True)
                else:
                    operand = self._parse_unary()
                self._depth -= 1
                # Fold unary minus into negative literals so `-1` renders as
                # a single literal, matching how instructors write patterns.
                if (
                    operator == "-"
                    and isinstance(operand, ast.Literal)
                    and operand.kind in ("int", "long", "double")
                ):
                    value = -operand.value  # type: ignore[operator]
                    if operand.kind in _INTEGER_BITS:
                        # Java negation wraps: -(-2147483648) is itself
                        value = _wrap(value, _INTEGER_BITS[operand.kind])
                    return ast.Literal(value, operand.kind)
                return ast.Unary(operator, operand, prefix=True)
            if operator == "++" or operator == "--":
                self._pos += 1
                self._enter()
                operand = self._parse_unary()
                self._depth -= 1
                return ast.Unary(operator, operand, prefix=True)
        elif (
            token.type is TokenType.SEPARATOR
            and token.value == "("
            and self._is_cast()
        ):
            self._pos += 1
            cast_type = self._parse_type()
            self._expect(")")
            self._enter()
            expression = self._parse_unary()
            self._depth -= 1
            return ast.Cast(cast_type, expression)
        return self._parse_postfix()

    def _is_cast(self) -> bool:
        """Lookahead check for `(type) unary` casts.

        Only primitive-type casts are treated as casts; `(expr)` with a
        class-type name is ambiguous in Java and intro submissions do not
        need reference casts.
        """
        offset = 1
        token = self._peek(offset)
        if token.type is TokenType.KEYWORD and token.value in PRIMITIVE_TYPES:
            offset += 1
            while self._check("[", offset) and self._check("]", offset + 1):
                offset += 2
            return self._check(")", offset)
        return False

    def _parse_postfix(self) -> ast.Expression:
        base = self._depth
        expression = self._parse_primary()
        height = self._peak - base
        tokens = self._tokens
        while True:
            token = tokens[self._pos]
            token_type = token.type
            if token_type is TokenType.SEPARATOR:
                if token.value == ".":
                    self._pos += 1
                    name = self._expect_identifier()
                    if self._check("("):
                        arguments = self._parse_arguments()
                        expression = ast.MethodCall(expression, name, arguments)
                    else:
                        expression = ast.FieldAccess(expression, name)
                    height = self._link(base, height)
                    continue
                if token.value == "[":
                    self._pos += 1
                    index = self._parse_expression()
                    self._expect("]")
                    expression = ast.ArrayAccess(expression, index)
                    height = self._link(base, height)
                    continue
                break
            if token_type is TokenType.OPERATOR and token.value in ("++", "--"):
                self._pos += 1
                expression = ast.Unary(token.value, expression, prefix=False)
                height = self._link(base, height)
                continue
            break
        self._peak = base + height
        return expression

    def _parse_arguments(self) -> list[ast.Expression]:
        self._expect("(")
        arguments: list[ast.Expression] = []
        if not self._check(")"):
            arguments.append(self._parse_expression())
            while self._match(","):
                arguments.append(self._parse_expression())
        self._expect(")")
        return arguments

    def _parse_array_initializer(self) -> ast.ArrayInitializer:
        self._expect("{")
        self._enter()
        elements: list[ast.Expression] = []
        if not self._check("}"):
            while True:
                if self._check("{"):
                    elements.append(self._parse_array_initializer())
                else:
                    elements.append(self._parse_expression())
                if not self._match(","):
                    break
        self._expect("}")
        self._depth -= 1
        return ast.ArrayInitializer(elements)

    def _parse_primary(self) -> ast.Expression:
        token = self._tokens[self._pos]
        token_type = token.type
        if token_type is TokenType.IDENTIFIER:
            self._pos += 1
            if self._check("("):
                arguments = self._parse_arguments()
                return ast.MethodCall(None, token.value, arguments)
            return ast.Name(token.value)
        if token_type is TokenType.SEPARATOR:
            if token.value == "(":
                self._pos += 1
                expression = self._parse_expression()
                self._expect(")")
                return expression
        elif token_type is TokenType.KEYWORD:
            if token.value == "new":
                return self._parse_creation()
            if token.value == "this":
                self._pos += 1
                return ast.Name("this")
        elif token_type in _NUMBER_KINDS:
            self._pos += 1
            return _number_literal(token)
        elif token_type is TokenType.STRING_LITERAL:
            self._pos += 1
            return ast.Literal(token.value, "string")
        elif token_type is TokenType.CHAR_LITERAL:
            self._pos += 1
            return ast.Literal(token.value, "char")
        elif token_type is TokenType.BOOL_LITERAL:
            self._pos += 1
            return ast.Literal(token.value == "true", "boolean")
        elif token_type is TokenType.NULL_LITERAL:
            self._pos += 1
            return ast.Literal(None, "null")
        raise self._error(f"unexpected token {token.value!r} in expression")

    def _parse_creation(self) -> ast.Expression:
        self._expect("new")
        token = self._peek()
        if token.type is TokenType.KEYWORD and token.value in PRIMITIVE_TYPES:
            base = ast.Type(self._advance().value)
        else:
            name = self._expect_identifier()
            while self._check(".") and self._peek(1).type is TokenType.IDENTIFIER:
                self._advance()
                name += "." + self._advance().value
            base = ast.Type(name)
        if self._check("("):
            arguments = self._parse_arguments()
            return ast.ObjectCreation(base, arguments)
        dimensions: list[ast.Expression] = []
        total_dims = 0
        while self._check("["):
            self._advance()
            if self._check("]"):
                self._advance()
                total_dims += 1
            else:
                dimensions.append(self._parse_expression())
                self._expect("]")
                total_dims += 1
        initializer = None
        if self._check("{"):
            initializer = self._parse_array_initializer()
        if total_dims == 0:
            raise self._error("array creation requires dimensions")
        return ast.ArrayCreation(
            ast.Type(base.name, total_dims), dimensions, initializer
        )


#: Statement dispatch keyed on the leading structural token's value.  The
#: caller has already verified the token type is in :data:`_STRUCTURAL`, so
#: a string literal whose content happens to be ``"if"`` cannot land here.
_STATEMENT_DISPATCH = {
    "{": Parser._parse_block,
    ";": Parser._parse_empty_statement,
    "if": Parser._parse_if,
    "while": Parser._parse_while,
    "do": Parser._parse_do_while,
    "for": Parser._parse_for,
    "switch": Parser._parse_switch,
    "break": Parser._parse_break,
    "continue": Parser._parse_continue,
    "return": Parser._parse_return,
    "final": Parser._parse_final_decl,
}


def parse_submission(source: str) -> ast.CompilationUnit:
    """Parse a student submission into a :class:`~repro.java.ast.CompilationUnit`."""
    return Parser(source).parse_submission()


def parse_expression(source: str) -> ast.Expression:
    """Parse a single Java expression."""
    return Parser(source).parse_expression_only()
