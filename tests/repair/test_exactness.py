"""Differential tests: the alignment's fast paths against reference forms.

The references below are the earlier implementations, kept verbatim as
the specification: the recursive subset-memo DP of ``_solve_exact``
and the one-``re.sub``-per-variable ``node_shape``.  The loop DP must
return the same matching on every weight matrix, and the one-pass shape
the same string on every node, except where the reference misread an
identifier (``$`` and non-ASCII names, listed below).
"""

from __future__ import annotations

import random
import re

import pytest

from repro.java import parse_submission
from repro.kb.registry import all_assignment_names, get_assignment
from repro.pdg.builder import extract_all_epdgs
from repro.pdg.graph import GraphNode, NodeType
from repro.repair.align import (
    EXACT_LIMIT,
    MIN_PAIR_WEIGHT,
    _solve_exact,
    graph_shapes,
    node_shape,
)
from repro.repair.corpus import DEFAULT_SYNTH_SAMPLES


def reference_solve_exact(weights: list[list[float]]) -> list[int | None]:
    """The recursive subset-memo DP, as the loop DP's specification."""
    n_left = len(weights)
    n_right = len(weights[0])
    memo: dict[tuple[int, int], float] = {}

    def best(index: int, used: int) -> float:
        if index == n_left:
            return 0.0
        key = (index, used)
        found = memo.get(key)
        if found is None:
            row = weights[index]
            found = best(index + 1, used)  # leave this node unmatched
            for j in range(n_right):
                if used & (1 << j) or row[j] < MIN_PAIR_WEIGHT:
                    continue
                value = row[j] + best(index + 1, used | (1 << j))
                if value > found:
                    found = value
            memo[key] = found
        return found

    matching: list[int | None] = []
    used = 0
    for index in range(n_left):
        target = best(index, used)
        row = weights[index]
        chosen: int | None = None
        for j in range(n_right):
            if used & (1 << j) or row[j] < MIN_PAIR_WEIGHT:
                continue
            if row[j] + best(index + 1, used | (1 << j)) == target:
                chosen = j
                used |= 1 << j
                break
        matching.append(chosen)
    return matching


def reference_node_shape(node: GraphNode) -> str:
    """One ``\\b``-anchored ``re.sub`` per variable, longest first."""
    text = node.content
    for variable in sorted(node.variables, key=len, reverse=True):
        text = re.sub(rf"\b{re.escape(variable)}\b", "_", text)
    return text


def random_weight(rng: random.Random) -> float:
    """One entry from the real weight alphabet of ``pair_weight``."""
    content = rng.choice((4.0, 2.0, 0.0, 0.0))
    gap = rng.choice((0, 0, 1, 2, 3, 5, 8))
    arity = rng.choice((0.5, 0.0))
    return content + 1.0 / (1.0 + gap) + arity


class TestSolveExactMatchesReference:
    def test_alphabet_has_ties_and_sub_floor_entries(self):
        rng = random.Random(0)
        values = [random_weight(rng) for _ in range(2000)]
        assert any(v < MIN_PAIR_WEIGHT for v in values)
        assert len(set(values)) < len(values)

    @pytest.mark.parametrize("seed", range(8))
    def test_seeded_matrices(self, seed):
        rng = random.Random(seed)
        for _ in range(60):
            n_left = rng.randint(1, EXACT_LIMIT)
            # keep the reference's recursion affordable: wide matrices
            # get sparser rows
            n_right = rng.randint(1, EXACT_LIMIT if n_left <= 6 else 8)
            weights = [
                [random_weight(rng) for _ in range(n_right)]
                for _ in range(n_left)
            ]
            assert _solve_exact(weights) == reference_solve_exact(weights)

    def test_full_size_sparse_matrix(self):
        rng = random.Random(99)
        for _ in range(3):
            weights = [
                [
                    random_weight(rng) if rng.random() < 0.35 else 0.5
                    for _ in range(EXACT_LIMIT)
                ]
                for _ in range(EXACT_LIMIT)
            ]
            assert _solve_exact(weights) == reference_solve_exact(weights)

    def test_all_ties_prefer_smallest_index_pairing(self):
        weights = [[2.5] * 4 for _ in range(4)]
        assert _solve_exact(weights) == [0, 1, 2, 3]
        assert _solve_exact(weights) == reference_solve_exact(weights)


def candidate_sources(name: str) -> list[str]:
    """Every source a default corpus build of ``name`` considers."""
    assignment = get_assignment(name)
    sources = list(assignment.reference_solutions)
    if assignment.space_factory is not None:
        space = assignment.space()
        sources.extend(
            space.submission(index).source
            for index in space.correct_indices(limit=DEFAULT_SYNTH_SAMPLES)
        )
    return sources


class TestNodeShapeMatchesReference:
    @pytest.mark.parametrize("name", all_assignment_names())
    def test_every_reference_and_corpus_node(self, name):
        assignment = get_assignment(name)
        nodes = 0
        for source in candidate_sources(name):
            graphs = extract_all_epdgs(
                parse_submission(source),
                assignment.synthesize_else_conditions,
            )
            shapes = graph_shapes(graphs)
            for method, graph in graphs.items():
                for node in graph.nodes:
                    expected = reference_node_shape(node)
                    assert node_shape(node) == expected, node.content
                    assert shapes[method][node.node_id] == expected
                    nodes += 1
        assert nodes > 0

    @pytest.mark.parametrize("seed", range(4))
    def test_seeded_contents_with_literals(self, seed):
        rng = random.Random(seed)
        names = ["i", "n", "e", "x", "e5", "x1F", "sum", "s", "total"]
        atoms = names + [
            "1e5", "0x1F", "1.5e3", "2", "10L", '"sum"', '"e5 and i"',
            '"i-th"', "'x'", "Math.max", "a.length", "(", ")", "+", "*",
            " == ", "[", "]", "_",
        ]
        for _ in range(200):
            content = " ".join(rng.choice(atoms) for _ in range(8))
            variables = frozenset(rng.sample(names, rng.randint(0, 4)))
            node = GraphNode(0, NodeType.ASSIGN, content, uses=variables)
            assert node_shape(node) == reference_node_shape(node), content


# Where the reference misread an identifier, on purpose: ``\b`` never
# fires before ``$``, and it splits a run at a non-word non-ASCII
# character the lexer keeps inside an identifier.
DELIBERATE_DIFFERENCES = [
    ("$a = $a + 1", {"$a"}, "_ = _ + 1", "$a = $a + 1"),
    ("odd$ += a[i]", {"odd$", "a", "i"}, "_ += _[_]", "odd$ += _[_]"),
    ("a$b + a", {"a"}, "a$b + _", "_$b + _"),
    ("x€ = x", {"x"}, "x€ = _", "_€ = _"),
]


class TestNodeShapeDeliberateDifferences:
    @pytest.mark.parametrize(
        "content, variables, shape, reference", DELIBERATE_DIFFERENCES
    )
    def test_listed_case(self, content, variables, shape, reference):
        node = GraphNode(
            0, NodeType.ASSIGN, content, uses=frozenset(variables)
        )
        assert reference_node_shape(node) == reference
        assert node_shape(node) == shape

    def test_unicode_letters_agree_with_reference(self):
        node = GraphNode(
            0, NodeType.ASSIGN, "oddñ += añ[iñ]",
            uses=frozenset({"oddñ", "añ", "iñ"}),
        )
        assert node_shape(node) == reference_node_shape(node) == "_ += _[_]"
