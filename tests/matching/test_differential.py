"""Differential tests: the optimized matcher vs the naive reference paths.

The engine promises three equivalences, each verified here:

* **bipartite vs permutation** (same ordering): byte-identical outcomes —
  render, Λ score, method assignment, truncation flag — across every
  knowledge-base assignment, both header modes, and sampled synthetic
  submissions.
* **connectivity vs naive ordering**: identical verdicts (Λ score,
  comment statuses, method assignment) and identical pattern occurrence
  sets.  Variable bindings are inherently order-sensitive (an
  under-constrained template binds γ at whichever node is matched first,
  see ``bench_ablation_ordering.py``), so feedback *detail wording* may
  legitimately differ between orderings; everything the grade depends on
  must not.
* **γ-free patterns**: with no variables in play the embedding set is a
  pure function of the pattern and graph, so both orderings — including
  the compiled plan's degree and arity pruning — must return exactly the
  same embeddings and marks.  Verified on randomized synthetic EPDGs
  with patterns drawn from their own subgraphs (so at least one
  embedding always exists).
* **content pruning is exact**: with the same static order, the pruned
  search must return the same embedding list — ι, γ, marks, discovery
  order and truncation — as a search over the unpruned Φ, on reference
  solutions, synthetic samples, Unicode / ``$`` identifiers, and
  wrong-operator accumulations against the patterns that guard an
  accumulation with a negative lookahead (there the whole grade must
  also be byte-identical to one with Φ unpruned).  Two properties back
  it: every lexer identifier is an ``ANY_IDENTIFIER``, and
  ``matches(c, γ)`` implies ``may_match(c)``, on reference-solution
  contents and on synthetic ``x = <atom> <op> ...`` contents built from
  each KB template's own operators.
* **one regex per template**: ``ExprTemplate.matches`` (γ bound in the
  subject) answers exactly as a search with the compiled ``render(γ)``
  on every KB template, over the same synthetic sweep with ``$``,
  Unicode and prefix-sharing names and over renamed KB node contents;
  grading every reference solution and a renamed copy compiles no
  regex.
"""

from __future__ import annotations

import random
import re
from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.kblint import _expression_templates
from repro.cluster.specialize import rename_submission
from repro.core.pipeline import BatchGrader
from repro.core.engine import FeedbackEngine
from repro.errors import JavaSyntaxError
from repro.java import parse_submission
from repro.java.lexer import TokenType, tokenize
from repro.kb import get_assignment
from repro.kb.extensions import assignment1_with_variants
from repro.kb.registry import all_assignment_names
from repro.matching import pattern_matching
from repro.matching.pattern_matching import (
    MAX_EMBEDDINGS,
    EmbeddingList,
    _search_space,
    _SearchState,
    match_pattern,
)
from repro.matching.plan import compile_plan
from repro.matching.submission import match_graphs
from repro.patterns.groups import PatternGroup
from repro.patterns.model import Pattern, PatternNode
from repro.patterns.template import ANY_IDENTIFIER, ExprTemplate, _compile
from repro.pdg.builder import extract_all_epdgs
from repro.pdg.graph import EdgeType, Epdg, GraphEdge, GraphNode, NodeType
from repro.synth import sample_submissions


@lru_cache(maxsize=None)
def _reference_case(name: str):
    assignment = get_assignment(name)
    unit = parse_submission(assignment.reference_solutions[0])
    graphs = extract_all_epdgs(
        unit, assignment.synthesize_else_conditions
    )
    return assignment, graphs


def _outcome_key(outcome):
    """Everything a delivered grade consists of, byte-comparable."""
    return (
        outcome.render(),
        outcome.score,
        outcome.method_assignment,
        outcome.truncated,
    )


# -- strategy equivalence: bipartite vs permutation ----------------------

@pytest.mark.parametrize("enforce_headers", [True, False])
@pytest.mark.parametrize("name", all_assignment_names())
def test_bipartite_identical_to_permutation(name, enforce_headers):
    assignment, graphs = _reference_case(name)
    for order in ("connectivity", "naive"):
        sweep = match_graphs(
            graphs, assignment.expected_methods, enforce_headers,
            strategy="permutation", order=order,
        )
        fast = match_graphs(
            graphs, assignment.expected_methods, enforce_headers,
            strategy="bipartite", order=order,
        )
        assert _outcome_key(fast) == _outcome_key(sweep), (
            f"{name}: bipartite differs from sweep (order={order})"
        )


@pytest.mark.parametrize(
    "name",
    ["assignment1", "esc-LAB-3-P1-V1", "mitx-derivatives",
     "rit-all-g-medals"],
)
def test_bipartite_identical_on_sampled_submissions(name):
    assignment = get_assignment(name)
    for submission in sample_submissions(assignment.space(), 3, seed=7):
        unit = parse_submission(submission.source)
        graphs = extract_all_epdgs(
            unit, assignment.synthesize_else_conditions
        )
        sweep = match_graphs(
            graphs, assignment.expected_methods,
            assignment.enforce_headers, strategy="permutation",
        )
        fast = match_graphs(
            graphs, assignment.expected_methods,
            assignment.enforce_headers, strategy="bipartite",
        )
        assert _outcome_key(fast) == _outcome_key(sweep)


def test_scrambled_methods_recovered_without_headers():
    """The bipartite engine must find the sweep's method assignment."""
    assignment = get_assignment("esc-LAB-3-P1-V1")
    source = (
        assignment.reference_solutions[0]
        .replace("fact", "m_fact")
        .replace("lab3p1", "m_drv")
    )
    distractors = "\n".join(
        f"int helper{i}(int a{i}) {{\n"
        f"    int r{i} = a{i} + {i};\n"
        f"    System.out.println(r{i});\n"
        f"    return r{i};\n"
        f"}}\n"
        for i in range(2)
    )
    unit = parse_submission(source + "\n" + distractors)
    graphs = extract_all_epdgs(
        unit, assignment.synthesize_else_conditions
    )
    sweep = match_graphs(graphs, assignment.expected_methods, False,
                         strategy="permutation")
    fast = match_graphs(graphs, assignment.expected_methods, False)
    assert fast.method_assignment == {"fact": "m_fact", "lab3p1": "m_drv"}
    assert _outcome_key(fast) == _outcome_key(sweep)


# -- ordering equivalence: connectivity (plan + pruning) vs naive --------

@pytest.mark.parametrize("name", all_assignment_names())
def test_orderings_agree_on_verdicts(name):
    assignment, graphs = _reference_case(name)
    naive = match_graphs(
        graphs, assignment.expected_methods, assignment.enforce_headers,
        order="naive",
    )
    fast = match_graphs(
        graphs, assignment.expected_methods, assignment.enforce_headers,
        order="connectivity",
    )
    assert fast.score == naive.score
    assert fast.method_assignment == naive.method_assignment
    assert fast.truncated == naive.truncated
    assert (
        [c.status for c in fast.comments]
        == [c.status for c in naive.comments]
    )


@pytest.mark.parametrize("name", all_assignment_names())
def test_orderings_agree_on_occurrence_sets(name):
    assignment, graphs = _reference_case(name)
    for method in assignment.expected_methods:
        graph = graphs.get(method.name)
        if graph is None:
            continue
        for entry, _ in method.patterns:
            patterns = (
                [variant.pattern for variant in entry.variants]
                if isinstance(entry, PatternGroup) else [entry]
            )
            for pattern in patterns:
                fast = match_pattern(pattern, graph, order="connectivity")
                naive = match_pattern(pattern, graph, order="naive")
                occurrences_fast = {
                    frozenset(v for _, v in e.iota) for e in fast
                }
                occurrences_naive = {
                    frozenset(v for _, v in e.iota) for e in naive
                }
                assert occurrences_fast == occurrences_naive, (
                    f"{name}/{method.name}/{pattern.name}: "
                    "occurrence sets differ between orderings"
                )
                assert (
                    any(e.is_fully_correct for e in fast)
                    == any(e.is_fully_correct for e in naive)
                )


# -- randomized synthetic EPDGs: exact equality on γ-free patterns ------

_TYPES = (NodeType.ASSIGN, NodeType.COND, NodeType.CALL,
          NodeType.DECL, NodeType.RETURN)


def _random_graph(rng: random.Random) -> Epdg:
    """A random EPDG with a small content alphabet (so patterns repeat).

    Contents are fixed-width tokens: with the matcher's substring
    semantics, no token can accidentally match inside another.
    """
    graph = Epdg("synthetic")
    size = rng.randint(6, 12)
    for node_id in range(size):
        graph.add_node(GraphNode(
            node_id=node_id,
            type=rng.choice(_TYPES),
            content=f"expr_{rng.randint(0, 3):02d}",
        ))
    for source in range(size):
        for target in range(size):
            if source != target and rng.random() < 0.25:
                edge_type = (
                    EdgeType.CTRL if rng.random() < 0.5 else EdgeType.DATA
                )
                graph.add_edge(source, target, edge_type)
    return graph


def _pattern_from_subgraph(rng: random.Random, graph: Epdg) -> Pattern:
    """A γ-free pattern copied from a random subgraph (so it must match)."""
    chosen = rng.sample(range(len(graph.nodes)), rng.randint(2, 4))
    renumber = {v_id: u_id for u_id, v_id in enumerate(chosen)}
    nodes = []
    for v_id in chosen:
        v = graph.node(v_id)
        node_type = v.type if rng.random() < 0.7 else NodeType.UNTYPED
        nodes.append(PatternNode(
            node_id=renumber[v_id],
            type=node_type,
            expr=ExprTemplate(re.escape(v.content), frozenset()),
        ))
    edges = [
        GraphEdge(renumber[e.source], renumber[e.target], e.type)
        for e in graph.edges
        if e.source in renumber and e.target in renumber
    ]
    return Pattern(
        name="synthetic", description="randomized differential case",
        nodes=nodes, edges=edges,
    )


@pytest.mark.parametrize("seed", range(30))
def test_random_epdg_orderings_exactly_equal(seed):
    rng = random.Random(seed)
    graph = _random_graph(rng)
    pattern = _pattern_from_subgraph(rng, graph)
    fast = match_pattern(pattern, graph, order="connectivity")
    naive = match_pattern(pattern, graph, order="naive")
    key = lambda e: (e.iota, e.gamma, e.marks)  # noqa: E731
    assert fast, "subgraph-derived pattern must embed at least once"
    assert {key(e) for e in fast} == {key(e) for e in naive}
    assert fast.truncated == naive.truncated


# -- content pruning: pruned vs unpruned Φ under one static order -------

def _unpruned_match(pattern: Pattern, graph: Epdg) -> EmbeddingList:
    """``match_pattern``'s connectivity search with Φ left unpruned."""
    space = _search_space(pattern, graph)
    if any(not candidates for candidates in space.values()):
        return EmbeddingList()
    plan = compile_plan(pattern)
    order = plan.static_order(
        {u_id: len(candidates) for u_id, candidates in space.items()}
    )
    state = _SearchState(pattern, graph, plan, space, order)
    state.search(0, {}, {}, {})
    result = EmbeddingList(state.embeddings)
    result.truncated = len(result) >= MAX_EMBEDDINGS
    return result


def _patterns_of(assignment):
    for method in assignment.expected_methods:
        for entry, _ in method.patterns:
            if isinstance(entry, PatternGroup):
                yield from (variant.pattern for variant in entry.variants)
            else:
                yield entry


def _identifier_variants(source: str, synthesize_else: bool) -> list[str]:
    """``source`` with its variables renamed to Unicode and ``$`` names.

    One variant prefixes every variable with ``é`` and one appends ``$``;
    the third renames every other variable to ``é`` + the next one's
    name, so ``éodd`` sits next to ``odd`` — the case an ASCII-only
    boundary guard gets wrong.
    """
    graphs = extract_all_epdgs(parse_submission(source), synthesize_else)
    names = sorted(
        {name for graph in graphs.values() for node in graph.nodes
         for name in node.variables}
    )
    return [
        rename_submission(source, {n: "é" + n for n in names}),
        rename_submission(source, {n: n + "$" for n in names}),
        rename_submission(source, {
            names[k]: "é" + names[k + 1] for k in range(0, len(names) - 1, 2)
        }),
    ]


def _content_prune_corpus(name: str) -> list[str]:
    assignment = get_assignment(name)
    sources = list(assignment.reference_solutions)
    sources += [
        submission.source
        for submission in sample_submissions(assignment.space(), 10, seed=19)
    ]
    for reference in assignment.reference_solutions:
        sources += _identifier_variants(
            reference, assignment.synthesize_else_conditions
        )
    return sources


def _assert_pruning_keeps_embeddings(assignment, sources) -> int:
    """Compare pruned and unpruned search on every pattern and graph.

    Returns how many comparisons found at least one embedding.
    """
    patterns = list(_patterns_of(assignment))
    compared = 0
    for source in sources:
        try:
            unit = parse_submission(source)
        except JavaSyntaxError:
            continue
        graphs = extract_all_epdgs(
            unit, assignment.synthesize_else_conditions
        )
        for graph in graphs.values():
            for pattern in patterns:
                pruned = match_pattern(pattern, graph)
                reference = _unpruned_match(pattern, graph)
                assert list(pruned) == list(reference), (
                    f"{assignment.name}/{graph.method_name}/{pattern.name}: "
                    "content pruning changed the embeddings"
                )
                assert pruned.truncated == reference.truncated
                compared += bool(reference)
    return compared


@pytest.mark.parametrize("name", all_assignment_names())
def test_content_pruning_keeps_embeddings_and_their_order(name):
    compared = _assert_pruning_keeps_embeddings(
        get_assignment(name), _content_prune_corpus(name)
    )
    assert compared, "the corpus must embed some pattern"


#: Wrong-operator accumulations for the assignments whose patterns guard
#: an accumulation with a negative lookahead (``cond-cumulative-add``:
#: ``c =(?! c \*)``, ``-mul``: ``d =(?! d \+)``, and the loop-guarded
#: variants' ``c =(?! c )``): (reference statement, replacements).
_WRONG_ACCUMULATIONS = {
    "assignment1": [
        ("odd += a[i];", [
            "odd = 2 * odd + a[i];", "odd = a[i] + odd;", "odd -= a[i];",
            "odd = odd - a[i];", "odd *= a[i];", "odd = odd * a[i];",
            "odd = a[i] * odd;",
        ]),
        ("even *= a[i];", [
            "even = 1 + even;", "even = 2 * even;", "even += a[i];",
            "even = even + a[i];", "even = a[i] + even;",
            "even = a[i] * even;",
        ]),
    ],
    "rit-medals-by-ath": [
        ("medals += 1;", [
            "medals = 2 * medals + 1;", "medals = 1 + medals;",
            "medals *= 2;", "medals = medals * 1;", "medals -= 1;",
        ]),
    ],
    "rit-all-g-medals": [
        ("medals += 1;", [
            "medals = 2 * medals + 1;", "medals = 1 + medals;",
            "medals *= 2;", "medals = medals * 1;", "medals -= 1;",
        ]),
    ],
}


def _wrong_accumulation_sources(name: str) -> list[str]:
    reference = get_assignment(name).reference_solutions[0]
    sources = []
    for statement, replacements in _WRONG_ACCUMULATIONS[name]:
        assert statement in reference
        sources += [reference.replace(statement, r) for r in replacements]
    return sources


def _assignments_with_wrong_accumulations():
    for name in sorted(_WRONG_ACCUMULATIONS):
        yield name, get_assignment(name)
    # the variant groups add the loop-guarded ``c =(?! c )`` accumulators
    yield "assignment1", assignment1_with_variants()


@pytest.mark.parametrize(
    "name, assignment", list(_assignments_with_wrong_accumulations()),
    ids=lambda value: getattr(value, "name", value),
)
def test_content_pruning_keeps_wrong_operator_accumulations(
    name, assignment, monkeypatch
):
    sources = _wrong_accumulation_sources(name)
    assert _assert_pruning_keeps_embeddings(assignment, sources)
    pruned = [FeedbackEngine(assignment).grade(s).render() for s in sources]
    # the same grades with every Φ prune (degree, arity, content) off
    monkeypatch.setattr(pattern_matching, "_prune_space", lambda *_: 0)
    unpruned = [FeedbackEngine(assignment).grade(s).render() for s in sources]
    assert pruned == unpruned


#: Identifier-shaped words as the lexer's ``word`` rule defines them.
_WORDS = st.from_regex(r"(?:[^\W\d]|\$)(?:\w|\$)*", fullmatch=True)


@settings(max_examples=300, deadline=None)
@given(st.one_of(_WORDS, st.text(max_size=40)))
def test_every_lexer_identifier_is_an_any_identifier(text):
    try:
        tokens = tokenize(text)
    except JavaSyntaxError:
        return
    for token in tokens:
        if token.type is TokenType.IDENTIFIER:
            assert re.fullmatch(ANY_IDENTIFIER, token.value), token.value


@lru_cache(maxsize=None)
def _kb_templates_and_contents():
    templates: dict[tuple[str, frozenset[str]], ExprTemplate] = {}
    contents: set[tuple[str, frozenset[str]]] = set()
    assignments = [get_assignment(name) for name in all_assignment_names()]
    for assignment in assignments + [assignment1_with_variants()]:
        for pattern in _patterns_of(assignment):
            for node in pattern.nodes:
                for template in (node.expr, node.approx):
                    if template is not None and template.variables:
                        key = (template.source, template.variables)
                        templates[key] = template
    for name in all_assignment_names():
        _, graphs = _reference_case(name)
        for graph in graphs.values():
            for node in graph.nodes:
                contents.add((node.content, node.variables))
    return (
        [templates[key] for key in sorted(templates, key=repr)],
        sorted(contents, key=repr),
    )


#: Identifiers a synthetic content and γ draw from; small, so that γ
#: often binds a variable to a name the content mentions.
_NAMES = ("i", "odd", "éi", "s$")
_OPERATORS = (
    "=", "+=", "-=", "*=", "/=", "%=", "+", "-", "*", "/", "%",
    "<", "<=", ">", ">=", "==", "!=", "&&", "||",
)


@lru_cache(maxsize=None)
def _kb_literal_words() -> tuple[str, ...]:
    """The literal identifiers of the KB templates (``length``, ``next``)."""
    templates, _ = _kb_templates_and_contents()
    return tuple(sorted(
        {word for template in templates
         for word in re.findall(r"(?<![\\\w])[A-Za-z_]\w*", template.source)}
        - {name for template in templates for name in template.variables}
    ))


def _template_operators(template: ExprTemplate) -> tuple[str, ...]:
    """The Java operators written in ``template``'s literal text."""
    text = re.sub(r"\(\?<?[!=:]", "(", template.source).replace("\\", "")
    found = set(re.findall(r"[-+*/%<>=!&|]+", text)) & set(_OPERATORS)
    return tuple(sorted(found)) or _OPERATORS


def _synthetic_content(
    rng: random.Random, operators: tuple[str, ...],
    names: tuple[str, ...] = _NAMES,
) -> str:
    """``x <op> <atom> <op> <atom> ...``: atoms around every operator.

    Three in four operators come from ``operators`` (a template's own),
    so the contents take the shapes the KB templates are written against.
    """
    words = _kb_literal_words()

    def atom() -> str:
        name, other = rng.choice(names), rng.choice(names)
        return rng.choice((
            name, str(rng.randint(0, 12)), f"{name}[{other}]",
            f"{name}.{rng.choice(words)}",
            f"{name}.{rng.choice(words)}({other})", f"({name})",
        ))

    parts = [rng.choice(names) if rng.random() < 0.5 else atom()]
    for _ in range(rng.randint(1, 4)):
        pool = operators if rng.random() < 0.75 else _OPERATORS
        parts += [rng.choice(pool), atom()]
    if rng.random() < 0.25:
        parts.append(rng.choice(("++", "--")))
    return " ".join(parts)


@pytest.mark.parametrize("seed", range(3))
def test_gamma_specific_match_implies_gamma_free_match_on_synthetic_contents(
    seed,
):
    rng = random.Random(seed)
    templates, _ = _kb_templates_and_contents()
    guarded = 0  # matches of templates with a variable in a lookahead
    for template in templates:
        operators = _template_operators(template)
        variables = sorted(template.variables)
        for _ in range(200):
            content = _synthetic_content(rng, operators)
            for _ in range(4):
                gamma = {v: rng.choice(_NAMES) for v in variables}
                if template.matches(content, gamma):
                    assert template.may_match(content), (
                        template.source, content, gamma
                    )
                    guarded += "(?!" in template.source
    assert guarded, "the sweep must exercise the negative lookaheads"


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_gamma_specific_match_implies_gamma_free_match(data):
    templates, contents = _kb_templates_and_contents()
    template = data.draw(st.sampled_from(templates))
    content, variables = data.draw(st.sampled_from(contents))
    # rename the node's variables, Unicode and ``$`` names included
    renamed = {
        old: data.draw(st.one_of(
            st.just(old), st.just("é" + old), st.just(old + "$"), _WORDS,
        ))
        for old in sorted(variables)
    }
    for old, new in renamed.items():
        content = re.sub(
            rf"(?<![\w$]){re.escape(old)}(?![\w$])",
            lambda _: new, content,
        )
    names = sorted(set(renamed.values())) or ["x"]
    gamma = {
        variable: data.draw(st.sampled_from(names))
        for variable in sorted(template.variables)
    }
    if template.matches(content, gamma):
        assert template.may_match(content)


# -- one regex per template vs render-per-γ -----------------------------

#: :data:`_NAMES` widened with ``$`` names, Unicode identifiers beyond
#: ``é``, and names sharing a prefix (``i``, ``id``, ``i$``), which a
#: backreference must tell apart exactly as an escaped name does.
_WIDE_NAMES = _NAMES + ("id", "i$", "$", "$i", "ñ", "变量", "éid")


@lru_cache(maxsize=None)
def _every_kb_template() -> tuple[ExprTemplate, ...]:
    """Every node and containment template of the KB, variants included."""
    assignments = [get_assignment(name) for name in all_assignment_names()]
    found = {
        (template.source, template.variables): template
        for assignment in assignments + [assignment1_with_variants()]
        for _, template in _expression_templates(assignment)
    }
    return tuple(found[key] for key in sorted(found, key=repr))


def _rendered_match(template: ExprTemplate, content: str, gamma) -> bool:
    """The reference: compile ``render(γ)`` and search ``content``."""
    if not template.source:
        return True
    return _compile(template.render(gamma)).search(content) is not None


def test_no_kb_template_renders_per_binding():
    templates = _every_kb_template()
    assert len(templates) > 100
    assert not [t.source for t in templates if t.renders_per_binding]


@pytest.mark.parametrize("seed", range(3))
def test_one_regex_agrees_with_render_per_gamma_on_synthetic_contents(seed):
    rng = random.Random(seed)
    matched = 0
    for template in _every_kb_template():
        operators = _template_operators(template)
        variables = sorted(template.variables)
        for _ in range(60):
            content = _synthetic_content(rng, operators, _WIDE_NAMES)
            for _ in range(4):
                gamma = {v: rng.choice(_WIDE_NAMES) for v in variables}
                expected = _rendered_match(template, content, gamma)
                assert template.matches(content, gamma) == expected, (
                    template.source, content, gamma
                )
                matched += expected
    assert matched, "the sweep must exercise matches"


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_one_regex_agrees_with_render_per_gamma(data):
    templates = _every_kb_template()
    _, contents = _kb_templates_and_contents()
    template = data.draw(st.sampled_from(templates))
    content, variables = data.draw(st.sampled_from(contents))
    renamed = {
        old: data.draw(st.one_of(st.sampled_from(_WIDE_NAMES), _WORDS))
        for old in sorted(variables)
    }
    for old, new in renamed.items():
        content = re.sub(
            rf"(?<![\w$]){re.escape(old)}(?![\w$])",
            lambda _: new, content,
        )
    names = sorted(set(renamed.values())) + ["i", "id"]
    gamma = {
        variable: data.draw(st.sampled_from(names))
        for variable in sorted(template.variables)
    }
    assert template.matches(content, gamma) == _rendered_match(
        template, content, gamma
    )


def _alpha_renamed(source: str, synthesize_else: bool) -> str:
    graphs = extract_all_epdgs(parse_submission(source), synthesize_else)
    names = {
        name for graph in graphs.values() for node in graph.nodes
        for name in node.variables
    }
    return rename_submission(source, {n: f"r_{n}_1" for n in names})


@pytest.mark.parametrize("name", all_assignment_names())
def test_reference_and_renamed_copy_compile_no_regex(name, monkeypatch):
    assignment = get_assignment(name)
    reference = assignment.reference_solutions[0]
    renamed = _alpha_renamed(reference, assignment.synthesize_else_conditions)
    assert renamed != reference
    cohort = [("reference", reference), ("renamed", renamed)]

    def grade():
        _compile.cache_clear()
        result = BatchGrader(assignment, cache=False).grade_batch(cohort)
        return (
            [item.report.render() for item in result.items],
            result.stats.counters.get("match.regex_compiles", 0),
        )

    reports, compiles = grade()
    assert compiles == 0
    # control: with every template on render-per-γ the same reports
    # cost compiles, and the counter reaches the batch statistics
    for _, template in _expression_templates(assignment):
        monkeypatch.setattr(template, "_one_regex", None)
    fallback_reports, fallback_compiles = grade()
    assert fallback_reports == reports
    assert fallback_compiles > 0
