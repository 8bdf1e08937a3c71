"""Unit tests for incomplete-expression templates (r ⪯_γ c)."""

import pickle
import re

import pytest

from repro.errors import PatternDefinitionError
from repro.instrumentation import collecting
from repro.patterns.template import ExprTemplate, _compile, render_feedback


def template(source, *variables):
    return ExprTemplate(source, frozenset(variables))


class TestMatching:
    def test_literal_template(self):
        assert template(r"x = 0", "x").matches("i = 0", {"x": "i"})

    def test_substring_semantics(self):
        # incomplete expressions match anywhere inside the content
        assert template(r"s\[x\]", "s", "x").matches(
            "odd += a[i]", {"s": "a", "x": "i"}
        )

    def test_no_match(self):
        assert not template(r"x = 0", "x").matches("i = 1", {"x": "i"})

    def test_variable_boundary_left(self):
        # variable x bound to `i` must not match inside `mi`
        assert not template(r"x = 0", "x").matches("mi = 0", {"x": "i"})

    def test_variable_boundary_right(self):
        assert not template(r"x = 0", "x").matches("iq = 0", {"x": "i"})

    def test_variable_bound_to_dollar_identifier(self):
        assert template(r"x = 0", "x").matches("$tmp = 0", {"x": "$tmp"})

    def test_unicode_identifier_is_not_a_boundary(self):
        # the lexer accepts `éi` as one identifier, so variable x bound
        # to `i` must not match its tail (nor `iπ`'s head)
        tpl = template(r"x = x \+ 1", "x")
        assert not tpl.matches("éi = i + 1", {"x": "i"})
        assert not tpl.matches("iπ = i + 1", {"x": "i"})
        assert tpl.matches("éi = éi + 1", {"x": "éi"})

    def test_literal_identifiers_match_literally(self):
        tpl = template(r"x < s\.length", "x", "s")
        assert tpl.matches("i < a.length", {"x": "i", "s": "a"})
        assert not tpl.matches("i < a.size", {"x": "i", "s": "a"})

    def test_space_matches_any_whitespace_amount(self):
        tpl = template(r"x = 0", "x")
        assert tpl.matches("i=0", {"x": "i"})
        assert tpl.matches("i  =  0", {"x": "i"})

    def test_alternation(self):
        tpl = template(r"x\+\+|x \+= 1", "x")
        assert tpl.matches("i++", {"x": "i"})
        assert tpl.matches("i += 1", {"x": "i"})
        assert not tpl.matches("i -= 1", {"x": "i"})

    def test_regex_classes_pass_through(self):
        tpl = template(r"x % \d+", "x")
        assert tpl.matches("n % 10", {"x": "n"})
        assert not tpl.matches("n % m", {"x": "n"})

    def test_dollar_anchor_is_regex_not_variable(self):
        tpl = template(r"= p1 \+ p2$", "p1", "p2")
        assert tpl.matches("t = p + q", {"p1": "p", "p2": "q"})
        assert not tpl.matches("t = p + q + 1", {"p1": "p", "p2": "q"})

    def test_empty_template_matches_everything(self):
        tpl = ExprTemplate("", frozenset())
        assert tpl.matches("anything at all", {})

    def test_same_variable_twice(self):
        tpl = template(r"x \* x", "x")
        assert tpl.matches("d * d", {"x": "d"})
        assert not tpl.matches("d * e", {"x": "d"})

    def test_unbound_variable_raises(self):
        with pytest.raises(PatternDefinitionError, match="unbound"):
            template(r"x = 0", "x").matches("i = 0", {})

    def test_escaped_regex_shorthand_not_a_variable(self):
        # `\b` is regex syntax, the standalone `b` is the variable
        tpl = ExprTemplate(r"\bfoo = b", frozenset({"b"}))
        rendered = tpl.render({"b": "z"})
        assert rendered.startswith(r"\bfoo")
        assert "z" in rendered

    def test_declared_but_unmentioned_variable_rejected(self):
        with pytest.raises(PatternDefinitionError, match="never mentions"):
            template(r"y = 0", "x")

    def test_invalid_regex_reported(self):
        tpl = template(r"x ((", "x")
        with pytest.raises(PatternDefinitionError, match="invalid"):
            tpl.matches("i ((", {"x": "i"})

    def test_gamma_free_form_rules_out_only_impossible_content(self):
        tpl = template(r"x = x \+ 1", "x")
        assert tpl.may_match("i = i + 1")
        # the γ-free form does not tie the two occurrences together
        assert tpl.may_match("j = i + 1")
        assert tpl.may_match("éi = $k + 1")
        assert not tpl.may_match("i = i - 1")
        assert not tpl.may_match("i = (i) + 1")

    def test_gamma_free_form_of_empty_template_admits_everything(self):
        assert ExprTemplate("", frozenset()).may_match("anything at all")

    def test_gamma_free_form_admits_what_a_negative_lookahead_allows(self):
        # with γ = {c: odd} the lookahead body `odd *` does not match
        # ` 2 * odd`, so the template matches; a γ-free body that took
        # any identifier would match ` 2 *` and wrongly rule it out
        for source, content, gamma in [
            (r"c =(?! c \*)", "odd = 2 * odd + a[i]", {"c": "odd"}),
            (r"d =(?! d \+)", "even = 1 + even", {"d": "even"}),
            (r"c =(?! c )", "s = k + s", {"c": "s"}),
        ]:
            tpl = template(source, source[0])
            assert tpl.matches(content, gamma)
            assert tpl.may_match(content)
        # the literal part outside the lookahead still rules content out
        assert not template(r"c =(?! c \*)", "c").may_match("odd += a[i]")

    def test_gamma_free_form_flips_with_nested_negative_lookarounds(self):
        # inside two negations a variable is back in a positive context
        tpl = template(r"x(?!(?! = c))", "x", "c")
        assert tpl.matches("i = j", {"x": "i", "c": "j"})
        assert tpl.may_match("i = j")
        assert not tpl.may_match("i = -1")

    @pytest.mark.parametrize("source", [
        r"(?>x|x =) 0",     # atomic group
        r"x =*+ 0",         # possessive quantifier
        r"(x)? (?(1)=) 0",  # conditional group
        r"(x) = \1",        # backreference
        r"x (?P<o>=) (?P=o)",
    ])
    def test_constructs_without_a_gamma_free_form_rule_nothing_out(
        self, source
    ):
        assert template(source, "x").may_match("no match here")

    def test_invalid_regex_is_not_ruled_out_by_gamma_free_form(self):
        # the error still surfaces in ``matches``, at match time
        assert template(r"x ((", "x").may_match("i ((")

    def test_mentioned_variables(self):
        tpl = template(r"x < s\.length", "x", "s")
        assert tpl.mentioned_variables() == frozenset({"x", "s"})


def matched_with_compiles(tpl, content, gamma):
    """``tpl.matches(content, gamma)`` and the regexes it compiled."""
    _compile.cache_clear()
    with collecting() as collector:
        matched = tpl.matches(content, gamma)
    return matched, collector.counters.get("match.regex_compiles", 0)


def rendered_match(tpl, content, gamma):
    """The render-per-γ reference: search ``content`` with ``render(γ)``."""
    return re.search(tpl.render(gamma), content) is not None


class TestOneRegex:
    """One compiled regex per template; render-per-γ only as fallback."""

    def test_new_bindings_compile_nothing(self):
        tpl = template(r"x = x \+ s\[x\]", "x", "s")
        assert not tpl.renders_per_binding
        for gamma in ({"x": "i", "s": "a"}, {"x": "é$", "s": "变量"},
                      {"x": "i", "s": "i"}):
            content = "{x} = {x} + {s}[{x}]".format(**gamma)
            assert matched_with_compiles(tpl, content, gamma) == (True, 0)
            assert matched_with_compiles(
                tpl, content, {**gamma, "x": gamma["x"] + "q"}
            ) == (False, 0)

    def test_top_level_alternation_stays_under_the_prefix(self):
        tpl = template(r"x\+\+|x \+= 1", "x")
        assert not tpl.renders_per_binding
        assert matched_with_compiles(tpl, "k += 1", {"x": "k"}) == (True, 0)
        assert matched_with_compiles(tpl, "i += 1", {"x": "k"}) == (False, 0)

    def test_boundary_at_content_start_is_the_string_start(self):
        tpl = template(r"x = 0", "x")
        assert matched_with_compiles(tpl, "i = 0", {"x": "i"}) == (True, 0)
        assert matched_with_compiles(tpl, "éi = 0", {"x": "i"}) == (False, 0)

    def test_template_without_variables_is_its_own_regex(self):
        tpl = ExprTemplate(r"^System\.out", frozenset())
        assert not tpl.renders_per_binding
        assert matched_with_compiles(tpl, "System.out.println(x)", {}) == (
            True, 0
        )
        assert matched_with_compiles(tpl, "x = System.out", {}) == (False, 0)

    # each construct below keeps the template on render-per-γ; the
    # noted cases would answer wrongly in the one-regex form
    @pytest.mark.parametrize("source, hit, miss", [
        # `^` and `\A` would never match: content offset 0 is not the
        # subject's start
        (r"^x = 0", "i = 0", " i = 0"),
        (r"\A x = 0", "i = 0", "k, i = 0"),
        (r"x =\B", "i = 0", "i =x"),
        # the lookbehinds would see the `\x00` before the content
        (r"(?<=\W)x = 0", "(i = 0", "i = 0"),
        (r"(?<!.)x = 0", "i = 0", " i = 0"),
        (r"(?P<lhs>x) = 0", "i = 0", "j = 0"),
        # `\1` would name the prefix's first group
        (r"(x) = \1", "i = i", "i = j"),
        (r"(x)?(?(1) =) 0", "i = 0", "i = 1"),
        # the backreference would ignore case too
        (r"(?i:x) = 0", "I = 0", "I = 1"),
        (r"(?i)x = 0", "I = 0", "J = 0"),
    ], ids=["caret", "A", "B", "lookbehind", "negative-lookbehind",
            "named-group", "numbered-backreference", "conditional",
            "scoped-flag", "global-flag"])
    def test_construct_falls_back_to_render_per_gamma(self, source, hit, miss):
        tpl = template(source, "x")
        gamma = {"x": "i"}
        assert tpl.renders_per_binding
        assert rendered_match(tpl, hit, gamma)
        assert not rendered_match(tpl, miss, gamma)
        assert matched_with_compiles(tpl, hit, gamma) == (True, 1)
        assert matched_with_compiles(tpl, miss, gamma) == (False, 1)

    def test_nul_in_content_falls_back(self):
        tpl = template(r"x = 0", "x")
        assert not tpl.renders_per_binding
        for content in ("i = 0\x00", "\x00i = 0", "j\x00 = 0"):
            assert matched_with_compiles(tpl, content, {"x": "i"}) == (
                rendered_match(tpl, content, {"x": "i"}), 1
            )

    def test_nul_in_gamma_falls_back(self):
        tpl = template(r"x = y", "x", "y")
        gamma = {"x": "i\x00", "y": "j"}
        assert matched_with_compiles(tpl, "i\x00 = j", gamma) == (True, 1)
        assert matched_with_compiles(tpl, "i = j", gamma) == (False, 1)

    def test_unbound_variable_falls_back_and_raises(self):
        tpl = template(r"x = y", "x", "y")
        with pytest.raises(PatternDefinitionError, match="unbound"):
            tpl.matches("i = j", {"x": "i"})

    def test_wrapper_does_not_make_an_invalid_template_valid(self):
        # `(?:a)|(b)` compiles; the template `a)|(b` must not
        tpl = template(r"x)|(b", "x")
        assert tpl.renders_per_binding
        with pytest.raises(PatternDefinitionError, match="invalid"):
            tpl.matches("i", {"x": "i"})

    def test_one_regex_survives_pickling(self):
        tpl = pickle.loads(pickle.dumps(template(r"x = 0", "x")))
        assert matched_with_compiles(tpl, "i = 0", {"x": "i"}) == (True, 0)


class TestRenderFeedback:
    def test_substitutes_bound_variables(self):
        text = render_feedback("{x} should be initialized to 0", {"x": "i"})
        assert text == "i should be initialized to 0"

    def test_multiple_variables(self):
        text = render_feedback(
            "{x} is out of bounds going beyond {s}.length - 1",
            {"x": "i", "s": "a"},
        )
        assert text == "i is out of bounds going beyond a.length - 1"

    def test_unbound_reference_left_verbatim(self):
        assert render_feedback("{x} and {y}", {"x": "i"}) == "i and {y}"

    def test_plain_text_untouched(self):
        assert render_feedback("no placeholders", {}) == "no placeholders"
