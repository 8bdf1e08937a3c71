"""Incomplete Java expression templates (Definition 6).

A template is a regular expression over *canonical* node content in which
the pattern's variables appear as bare identifiers.  Matching a template
against a graph node's content under a variable mapping γ (``r ⪯_γ c``)
substitutes each variable with its bound submission identifier and then
searches the node content — templates are *incomplete*, so a substring
match suffices, exactly as in the paper.

Authoring rules:

* the template body is a Python regular expression, so literal
  metacharacters must be escaped (``s\\[x\\]``, ``x \\+= 1``);
* declared variables are written as bare identifiers and are replaced with
  the γ-bound name (with identifier-boundary guards, so variable ``x``
  never matches inside ``max``);
* a single space matches any run of whitespace, letting one template match
  both canonical and hand-written spacing.

**One regex per template.**  Substituting γ into the regex text
(:meth:`ExprTemplate.render`) would compile a new regex for every new
spelling of the names, and alpha-renamed submissions bring many.  So
each template is compiled once, with γ moved from the pattern into the
subject.  For the mentioned variables ``v_0 … v_{N-1}`` in sorted order
the regex is ::

    \\A(?P<_g0>[^\\x00]*)\\x00 … (?P<_gN-1>[^\\x00]*)\\x00(?s:.*?)(?:BODY)

where every occurrence of ``v_k`` in ``BODY`` is
``BOUNDARY_BEFORE (?P=_gk) BOUNDARY_AFTER``, and :meth:`matches` runs
``.match`` on ``γ[v_0] \\x00 … γ[v_{N-1}] \\x00 content``.  This answers
exactly as searching ``content`` with the rendered regex:

* the anchored prefix forces group *k* to be exactly ``γ[v_k]`` (no
  value holds ``\\x00``), and a backreference compares it literally, as
  the escaped name does;
* ``(?s:.*?)`` tries every start offset in the content, as ``search``
  does, and the ``(?:…)`` wrapper keeps a top-level ``|`` under it;
* the one difference is at content offset 0, where a lookbehind sees
  ``\\x00`` instead of the start of the string; ``BOUNDARY_BEFORE`` cannot
  tell the two apart, because ``\\x00`` is not an identifier character.

The render-per-γ path (:meth:`ExprTemplate.render` compiled through an
LRU cache) remains for the cases that argument does not cover:

* literal text with ``^``, ``\\A`` or ``\\B`` (they see the start of the
  string), a lookbehind (it can see the prefix), ``(?P``, ``(?(`` or
  ``\\1``–``\\9`` (the prefix's groups shift the numbering, and a
  template group could clash by name), or an inline flag (``(?i)`` would
  make the backreferences case-insensitive);
* a template whose rendered form does not compile, so that it still
  raises :class:`~repro.errors.PatternDefinitionError` at match time (the
  wrapper alone would accept ``a)|(b``); whether it compiles does not
  depend on γ, so one check at construction decides;
* a content or γ value holding ``\\x00``, and an unbound variable.

A template without variables is its own one regex and is searched
directly.  Every compile on the render-per-γ path counts
``match.regex_compiles`` (see :func:`repro.instrumentation.count`).

Every template also has a **γ-free form**, compiled once, that matches
at least every content some γ makes the template match, so
``matches(c, γ)`` implies ``may_match(c)``.  Algorithm 1 uses the
contrapositive to drop candidates before the search (see
:func:`repro.matching.pattern_matching._prune_space`).  Each variable
must therefore match *more* in the γ-free form than under any γ, in the
sense that makes the whole regex match more:

* outside negative lookarounds, a variable becomes :data:`ANY_IDENTIFIER`
  inside the same boundary guards.  A γ-bound name sits at a guarded
  position, and the γ-free variable matches the same span there;
* inside a negative lookaround (``c =(?! c \\*)``) a larger body makes
  the assertion *fail* more, so there the variable becomes
  :data:`NOTHING`: the body matches less and the assertion holds more.
  The two cases alternate with the nesting depth.

The argument needs every sub-match to count only by existence, which
atomic groups, possessive quantifiers, conditional groups and
backreferences break (a larger sub-match can commit a different branch).
A template using one of them has no γ-free form and rules nothing out.
"""

from __future__ import annotations

import re
from functools import lru_cache

from repro.errors import PatternDefinitionError
from repro.instrumentation import count

# identifiers *in templates* never contain `$` (it is the regex
# end-anchor there); submission identifiers may, which the boundary
# lookarounds below account for
_IDENTIFIER = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")

#: Regex class body of the characters a submission identifier may contain:
#: ``A-Za-z0-9_$`` and, because the lexer accepts Unicode identifiers,
#: every non-ASCII character.  It is spelled as the complement of the
#: other ASCII characters: the same set as ``A-Za-z0-9_$\u0080-\U0010ffff``,
#: which ``re`` takes ~17 ms to compile (it walks the range) where this
#: takes ~0.2 ms — and the render-per-γ path compiles one per new γ.  It
#: also searches faster than ``[\w$]`` (1.8 µs against 2.2 µs for a
#: two-variable template; Python 3.11, x86-64).
IDENTIFIER_CHARS = r"^\x00-#%-/:-@\[-^`{-\x7f"
BOUNDARY_BEFORE = rf"(?<![{IDENTIFIER_CHARS}])"
BOUNDARY_AFTER = rf"(?![{IDENTIFIER_CHARS}])"
#: Any submission identifier: what a variable becomes in the γ-free form.
ANY_IDENTIFIER = rf"[{IDENTIFIER_CHARS}]+"
#: A regex that matches nothing: a variable inside a negative lookaround
#: in the γ-free form.
NOTHING = "(?!)"

#: Literal template text under which the one-regex form is not exact
#: (module docstring): ``^``, ``\A``, ``\B``, numbered backreferences,
#: lookbehinds, ``(?P``, conditional groups and inline flags.
#: Conservative: an escaped ``\^`` also hits, which only costs that
#: template its one regex.
_PER_BINDING_ONLY = re.compile(r"\^|\\[AB1-9]|\(\?(?:<[=!]|P|\(|[aiLmsux-])")


class ExprTemplate:
    """A compiled incomplete-expression template.

    Parameters
    ----------
    source:
        The regex template text, e.g. ``x <= s\\.length``.
    variables:
        The declared variable names appearing in ``source``.  Identifiers
        not listed here are matched literally (``length``, ``System``...).
    """

    def __init__(self, source: str, variables: frozenset[str] | set[str]):
        self.source = source
        self.variables = frozenset(variables)
        self._segments = self._split(source)
        mentioned = {seg for kind, seg in self._segments if kind == "var"}
        missing = self.variables - mentioned
        # A variable declared but never mentioned is almost always a typo
        # in the knowledge base; fail fast at definition time.
        if missing and source:
            raise PatternDefinitionError(
                f"template {source!r} never mentions variables {sorted(missing)}"
            )
        # literal segments as regex text, with " " already rewritten
        self._regex_segments = [
            (kind, segment if kind == "var" else segment.replace(" ", r"\s*"))
            for kind, segment in self._segments
        ]
        self._gamma_free = self._compile_gamma_free()
        self._names = tuple(sorted(mentioned))
        self._one_regex = self._compile_one_regex()

    def _compile_gamma_free(self) -> re.Pattern[str] | None:
        """The γ-free form (module docstring), or ``None`` if it has none."""
        negated = _negated_positions(
            "".join(segment for _, segment in self._regex_segments)
        )
        if negated is None:
            return None
        parts: list[str] = []
        position = 0
        for kind, segment in self._regex_segments:
            parts.append(
                segment if kind == "lit"
                else NOTHING if position in negated
                else BOUNDARY_BEFORE + ANY_IDENTIFIER + BOUNDARY_AFTER
            )
            position += len(segment)
        try:
            return re.compile("".join(parts))
        except re.error:
            # an invalid template still fails in ``matches``, as before;
            # a form only the γ-free rewrite breaks (a variable inside a
            # positive look-behind) rules nothing out
            return None

    def _compile_one_regex(self) -> re.Pattern[str] | None:
        """The one regex (module docstring), or ``None`` to render per γ."""
        if not self.source:
            return None
        literal = "".join(
            segment for kind, segment in self._regex_segments if kind == "lit"
        )
        if self._names and _PER_BINDING_ONLY.search(literal):
            return None
        group = {name: f"_g{k}" for k, name in enumerate(self._names)}
        prefix = "".join(rf"(?P<{group[n]}>[^\x00]*)\x00" for n in self._names)
        body = "".join(
            segment if kind == "lit"
            else f"{BOUNDARY_BEFORE}(?P={group[segment]}){BOUNDARY_AFTER}"
            for kind, segment in self._regex_segments
        )
        try:
            # whether the rendered form compiles does not depend on γ
            rendered = re.compile(
                self.render(dict.fromkeys(self._names, "x0"))
            )
            if not self._names:
                return rendered
            return re.compile(rf"\A{prefix}(?s:.*?)(?:{body})")
        except re.error:
            return None

    def _split(self, source: str) -> list[tuple[str, str]]:
        """Split the template into literal-regex and variable segments."""
        segments: list[tuple[str, str]] = []
        position = 0
        for match in _IDENTIFIER.finditer(source):
            name = match.group(0)
            if name not in self.variables:
                continue
            # an identifier preceded by a backslash is regex syntax
            # (\b, \s ...), never a variable
            if match.start() > 0 and source[match.start() - 1] == "\\":
                continue
            if match.start() > position:
                segments.append(("lit", source[position:match.start()]))
            segments.append(("var", name))
            position = match.end()
        if position < len(source):
            segments.append(("lit", source[position:]))
        return segments

    def mentioned_variables(self) -> frozenset[str]:
        """Variables that actually occur in the template text."""
        return frozenset(seg for kind, seg in self._segments if kind == "var")

    def render(self, gamma: dict[str, str]) -> str:
        """Build the concrete regex for a (complete) binding γ."""
        parts: list[str] = []
        for kind, segment in self._regex_segments:
            if kind == "var":
                if segment not in gamma:
                    raise PatternDefinitionError(
                        f"variable {segment!r} of template {self.source!r} "
                        "is unbound"
                    )
                parts.append(
                    BOUNDARY_BEFORE + re.escape(gamma[segment]) + BOUNDARY_AFTER
                )
            else:
                parts.append(segment)
        return "".join(parts)

    def matches(self, content: str, gamma: dict[str, str]) -> bool:
        """Test ``self ⪯_γ content`` (substring semantics)."""
        if not self.source:
            return True
        regex = self._one_regex
        if regex is not None:
            if not self._names:
                return regex.search(content) is not None
            try:
                subject = "\0".join([gamma[name] for name in self._names])
            except KeyError:
                pass  # unbound: ``render`` raises
            else:
                subject += "\0" + content
                if subject.count("\0") == len(self._names):
                    return regex.match(subject) is not None
        return _compile(self.render(gamma)).search(content) is not None

    @property
    def renders_per_binding(self) -> bool:
        """Whether :meth:`matches` compiles a regex for each new γ."""
        return bool(self.source) and self._one_regex is None

    def may_match(self, content: str) -> bool:
        """Whether ``self ⪯_γ content`` holds for *some* γ over identifiers.

        ``False`` is exact: no binding of the variables to submission
        identifiers can make :meth:`matches` succeed on ``content``.
        """
        free = self._gamma_free
        return free is None or free.search(content) is not None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ExprTemplate({self.source!r}, vars={sorted(self.variables)})"


#: Constructs under which a sub-regex that matches more can make the whole
#: regex match less: atomic and conditional groups, backreferences and
#: possessive quantifiers.  Conservative: ``\++`` (one or more ``+``) and
#: ``[*+]`` also hit, which only costs that template its γ-free form.
_NON_MONOTONE = re.compile(r"\(\?[>(]|\(\?P=|\\[1-9]|[*+?}]\+")


def _negated_positions(regex: str) -> set[int] | None:
    """Positions of ``regex`` inside an odd number of negative lookarounds.

    ``None`` when ``regex`` uses a construct from :data:`_NON_MONOTONE`.
    """
    if _NON_MONOTONE.search(regex):
        return None
    negated: set[int] = set()
    negative_groups: list[bool] = []  # per open group: a negative lookaround?
    depth = 0  # enclosing negative lookarounds
    position = 0
    while position < len(regex):
        char = regex[position]
        start = position
        position += 1
        if char == "\\":
            position += 1
        elif char == "[":
            # a "]" first in the class (after any "^") is a literal
            position += regex.startswith("^", position)
            position += regex.startswith("]", position)
            while position < len(regex) and regex[position] != "]":
                position += 2 if regex[position] == "\\" else 1
            position += 1
        elif char == "(":
            negative = regex.startswith(("?!", "?<!"), position)
            negative_groups.append(negative)
            depth += negative
        elif char == ")" and negative_groups:
            depth -= negative_groups.pop()
        if depth % 2:
            negated.update(range(start, position))
    return negated


@lru_cache(maxsize=4096)
def _compile(pattern: str) -> re.Pattern[str]:
    count("match.regex_compiles")
    try:
        return re.compile(pattern)
    except re.error as error:
        raise PatternDefinitionError(
            f"invalid expression template regex {pattern!r}: {error}"
        ) from None


def render_feedback(template: str, gamma: dict[str, str]) -> str:
    """Instantiate a natural-language feedback template with γ.

    Feedback text references pattern variables in braces — ``"{x} should
    be initialized to 0"`` — which are substituted with the matched
    submission identifiers.  Unbound references are left verbatim so
    partial matches still produce readable feedback.
    """
    def substitute(match: re.Match[str]) -> str:
        name = match.group(1)
        return gamma.get(name, "{" + name + "}")

    return re.sub(r"\{([A-Za-z_$][A-Za-z0-9_$]*)\}", substitute, template)
