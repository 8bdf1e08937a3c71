"""Unit tests for incomplete-expression templates (r ⪯_γ c)."""

import pytest

from repro.errors import PatternDefinitionError
from repro.patterns.template import ExprTemplate, render_feedback


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
