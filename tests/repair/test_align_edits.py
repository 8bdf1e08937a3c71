"""Alignment and edit-script extraction on hand-built submissions."""

from __future__ import annotations

import pytest

from repro.java import parse_submission
from repro.pdg.builder import extract_all_epdgs
from repro.repair.align import (
    EXACT_LIMIT,
    MIN_PAIR_WEIGHT,
    align_graphs,
    graph_shapes,
    node_shape,
    _solve_exact,
    _solve_greedy,
)
from repro.repair.edits import (
    edit_script,
    repaired_source,
    variable_mapping,
)

CANDIDATE = """
void f(int[] a) {
    int sum = 0;
    int i = 0;
    while (i < a.length) {
        sum += a[i];
        i++;
    }
    System.out.println(sum);
}
"""

# Same program with the accumulator renamed and the loop guard broken.
STUDENT_BUGGY = """
void f(int[] a) {
    int total = 0;
    int i = 0;
    while (i <= a.length) {
        total += a[i];
        i++;
    }
    System.out.println(total);
}
"""

STUDENT_MISSING_PRINT = """
void f(int[] a) {
    int total = 0;
    int i = 0;
    while (i < a.length) {
        total += a[i];
        i++;
    }
}
"""


def graphs_of(source):
    return extract_all_epdgs(parse_submission(source), False)


def align(student, candidate):
    return align_graphs(
        student, candidate, graph_shapes(student), graph_shapes(candidate)
    )


class TestNodeShape:
    def test_wildcards_own_variables_only(self):
        (graph,) = graphs_of(CANDIDATE).values()
        by_content = {node.content: node for node in graph.nodes}
        node = by_content["sum += a[i]"]
        shape = node_shape(node)
        assert "sum" not in shape
        assert shape.count("_") >= 2

    def test_shape_equal_across_renaming(self):
        (left,) = graphs_of(CANDIDATE).values()
        (right,) = graphs_of(STUDENT_MISSING_PRINT).values()
        left_shapes = {node_shape(n) for n in left.nodes}
        right_shapes = {node_shape(n) for n in right.nodes}
        # Everything but the print the student dropped lines up.
        assert right_shapes <= left_shapes


class TestAlignGraphs:
    def test_self_alignment_is_total(self):
        graphs = graphs_of(CANDIDATE)
        (alignment,) = align(graphs, graphs)
        assert not alignment.unmatched_left
        assert not alignment.unmatched_right
        for left, right in alignment.pairs:
            assert left.content == right.content

    def test_renamed_buggy_student_aligns_fully(self):
        (alignment,) = align(
            graphs_of(STUDENT_BUGGY), graphs_of(CANDIDATE)
        )
        assert not alignment.unmatched_left
        assert not alignment.unmatched_right

    def test_missing_statement_surfaces_as_unmatched_right(self):
        (alignment,) = align(
            graphs_of(STUDENT_MISSING_PRINT), graphs_of(CANDIDATE)
        )
        assert [n.content for n in alignment.unmatched_right] == [
            "System.out.println(sum)"
        ]

    def test_method_present_on_one_side_only(self):
        alignments = align(graphs_of(CANDIDATE), {})
        (alignment,) = alignments
        assert not alignment.pairs
        assert alignment.unmatched_left
        assert not alignment.unmatched_right


class TestSolvers:
    def test_exact_prefers_total_weight_over_greedy_choice(self):
        # Greedy grabs (0,0) at 3.0 and strands row 1; exact pairs
        # (0,1)+(1,0) for 4.0 total.
        weights = [[3.0, 2.0], [2.0, MIN_PAIR_WEIGHT - 0.1]]
        exact = _solve_exact(weights)
        assert exact == [1, 0]
        greedy = _solve_greedy(weights)
        assert greedy == [0, None]

    def test_floor_leaves_nodes_unmatched(self):
        weights = [[MIN_PAIR_WEIGHT - 0.01]]
        assert _solve_exact(weights) == [None]
        assert _solve_greedy(weights) == [None]

    def test_exact_limit_is_sane(self):
        assert 1 <= EXACT_LIMIT <= 20


class TestVariableMapping:
    def test_maps_candidate_names_to_student_names(self):
        student = graphs_of(STUDENT_BUGGY)
        candidate = graphs_of(CANDIDATE)
        alignments = align(student, candidate)
        mapping = variable_mapping(alignments, candidate, CANDIDATE)
        assert mapping == {"sum": "total"}

    def test_identity_renames_are_stripped(self):
        graphs = graphs_of(CANDIDATE)
        alignments = align(graphs, graphs)
        assert variable_mapping(alignments, graphs, CANDIDATE) == {}


class TestEditScript:
    def test_rewrite_for_seeded_guard_bug(self):
        student = graphs_of(STUDENT_BUGGY)
        candidate = graphs_of(CANDIDATE)
        alignments = align(student, candidate)
        mapping = variable_mapping(alignments, candidate, CANDIDATE)
        edits = edit_script(alignments, mapping)
        assert [edit.op for edit in edits] == ["rewrite"]
        (edit,) = edits
        assert edit.before == "i <= a.length"
        assert edit.after == "i < a.length"

    def test_insert_speaks_the_students_names(self):
        student = graphs_of(STUDENT_MISSING_PRINT)
        candidate = graphs_of(CANDIDATE)
        alignments = align(student, candidate)
        mapping = variable_mapping(alignments, candidate, CANDIDATE)
        inserts = [e for e in edit_script(alignments, mapping) if e.op == "insert"]
        assert [e.after for e in inserts] == ["System.out.println(total)"]

    def test_identical_programs_need_no_edits(self):
        graphs = graphs_of(CANDIDATE)
        alignments = align(graphs, graphs)
        assert edit_script(alignments, {}) == ()

    def test_ordering_rewrites_then_inserts_then_deletes(self):
        student = graphs_of(STUDENT_MISSING_PRINT)
        # Give the student an extra statement the candidate lacks by
        # aligning against the buggy variant (guard differs -> rewrite,
        # print missing -> insert).
        candidate = graphs_of(CANDIDATE)
        alignments = align(student, candidate)
        mapping = variable_mapping(alignments, candidate, CANDIDATE)
        ops = [e.op for e in edit_script(alignments, mapping)]
        assert ops == sorted(
            ops, key=["rewrite", "insert", "delete"].index
        )


class TestRepairedSource:
    def test_rename_applies_everywhere_outside_strings(self):
        repaired = repaired_source(CANDIDATE, {"sum": "total"})
        assert "sum" not in repaired
        assert repaired.count("total") == CANDIDATE.count("sum")

    def test_empty_mapping_is_identity(self):
        assert repaired_source(CANDIDATE, {}) == CANDIDATE
