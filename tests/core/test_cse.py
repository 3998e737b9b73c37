"""Tests for common-subexpression elimination (experiments E2 and E5)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.cse import CSEResult, eliminate_common_subexpressions
from repro.core.expr import LinearExpression, Term
from repro.core.folding import fold_weight_slice, unrolled_op_count
from repro.errors import CompilationError
from repro.nn.ternary import synthetic_ternary_weights


def expand_expression(expression, definitions):
    """Expand an expression back to input-term coefficients (for validation)."""
    coefficients = {}

    def add(term, sign):
        if term.kind == "input":
            coefficients[term.index] = coefficients.get(term.index, 0) + sign
        else:
            definition = definitions[term.index]
            for inner_term, inner_sign in definition.expression:
                add(inner_term, sign * inner_sign)

    for term, sign in expression:
        add(term, sign)
    return coefficients


class TestPaperEquation1:
    def test_reduces_to_seven_operations(self, paper_eq1_matrix):
        """The paper's Eq. 1: the 6x6 ternary MVM costs 7 ops after CSE."""
        rows = fold_weight_slice(paper_eq1_matrix)
        result = eliminate_common_subexpressions(rows)
        assert result.total_operations == 7

    def test_extracts_the_papers_shared_pairs(self, paper_eq1_matrix):
        """x3 - x5 and x0 - x1 are the most frequent patterns and get extracted."""
        rows = fold_weight_slice(paper_eq1_matrix)
        result = eliminate_common_subexpressions(rows)
        extracted = {
            frozenset(
                (term.symbol, sign) for term, sign in definition.expression
            )
            for definition in result.definitions
        }
        assert frozenset({("x3", 1), ("x5", -1)}) in extracted
        assert frozenset({("x0", 1), ("x1", -1)}) in extracted

    def test_rewritten_rows_still_compute_the_matrix(self, paper_eq1_matrix):
        rows = fold_weight_slice(paper_eq1_matrix)
        result = eliminate_common_subexpressions(rows)
        definitions = {d.temp.index: d for d in result.definitions}
        for row_index, row in enumerate(result.rows):
            coefficients = expand_expression(row, definitions)
            for column in range(paper_eq1_matrix.shape[1]):
                assert coefficients.get(column, 0) == paper_eq1_matrix[row_index, column]

    def test_reduction_ratio(self, paper_eq1_matrix):
        rows = fold_weight_slice(paper_eq1_matrix)
        result = eliminate_common_subexpressions(rows)
        assert result.original_operations == 14
        assert result.reduction_ratio == pytest.approx(0.5)


class TestCSEMechanics:
    def test_no_shared_pattern_no_temporaries(self):
        rows = fold_weight_slice(np.array([[1, 0, 0], [0, 1, 0], [0, 0, -1]]))
        result = eliminate_common_subexpressions(rows)
        assert result.num_definitions == 0
        assert result.total_operations == 0

    def test_negated_pattern_counts_as_same(self):
        """x0+x1 in one row and -(x0+x1) in another share one temporary."""
        rows = fold_weight_slice(np.array([[1, 1, 1], [-1, -1, 0]]))
        result = eliminate_common_subexpressions(rows)
        assert result.num_definitions == 1
        assert result.total_operations == 1 + 1 + 0  # t0, row0 uses t0+x2, row1 is -t0

    def test_min_occurrences_threshold(self):
        rows = fold_weight_slice(np.array([[1, 1, 0], [1, 1, 0], [1, 1, 0]]))
        strict = eliminate_common_subexpressions(rows, min_occurrences=4)
        assert strict.num_definitions == 0
        relaxed = eliminate_common_subexpressions(rows, min_occurrences=2)
        assert relaxed.num_definitions == 1

    def test_invalid_min_occurrences(self):
        with pytest.raises(CompilationError):
            eliminate_common_subexpressions([], min_occurrences=1)

    def test_max_temporaries_cap(self, paper_eq1_matrix):
        rows = fold_weight_slice(paper_eq1_matrix)
        result = eliminate_common_subexpressions(rows, max_temporaries=1)
        assert result.num_definitions == 1

    def test_first_temp_index_offset(self):
        rows = fold_weight_slice(np.array([[1, 1], [1, 1]]))
        result = eliminate_common_subexpressions(rows, first_temp_index=10)
        assert result.definitions[0].temp.index == 10

    def test_rejects_rows_with_temps(self):
        rows = [LinearExpression([(Term.temp(0), 1)])]
        with pytest.raises(CompilationError):
            eliminate_common_subexpressions(rows)

    def test_temp_use_counts(self, paper_eq1_matrix):
        rows = fold_weight_slice(paper_eq1_matrix)
        result = eliminate_common_subexpressions(rows)
        counts = result.temp_use_counts()
        assert all(count >= 1 for count in counts.values())

    def test_fused_counts_are_larger(self, paper_eq1_matrix):
        rows = fold_weight_slice(paper_eq1_matrix)
        result = eliminate_common_subexpressions(rows)
        assert result.fused_total_operations >= result.total_operations


def result_shape(result):
    """A CSEResult as plain tuples: definitions, rows (term order kept), op count."""
    definitions = [
        (d.temp.index, d.first[0].kind, d.first[0].index, d.first[1],
         d.second[0].kind, d.second[0].index, d.second[1])
        for d in result.definitions
    ]
    rows = [
        [(term.kind, term.index, sign) for term, sign in row] for row in result.rows
    ]
    return definitions, rows, result.original_operations


def reference_cse(weight_slice, min_occurrences=2, max_temporaries=None):
    """Greedy pair CSE that recounts every pattern on every extraction.

    Each step extracts the most frequent canonical pattern ``(a, b, sign_a *
    sign_b)`` (``a < b``; inputs are ``0..K-1``, temporaries count up from
    ``K``), the smallest such key among equally frequent ones.
    """
    num_inputs = weight_slice.shape[1]
    rows = [{k: int(v) for k, v in enumerate(row) if v} for row in weight_slice]
    definitions = []
    while max_temporaries is None or len(definitions) < max_temporaries:
        counts = {}
        for row in rows:
            codes = sorted(row)
            for i, a in enumerate(codes):
                for b in codes[i + 1 :]:
                    key = (a, b, row[a] * row[b])
                    counts[key] = counts.get(key, 0) + 1
        if not counts:
            break
        best = min(counts, key=lambda key: (-counts[key], key))
        if counts[best] < min_occurrences:
            break
        a, b, relative_sign = best
        temp = num_inputs + len(definitions)
        for row in rows:
            if a in row and b in row and row[a] * row[b] == relative_sign:
                polarity = row.pop(a)
                del row[b]
                row[temp] = polarity
        definitions.append((a, b, relative_sign))

    def term(code):
        return ("input", code) if code < num_inputs else ("temp", code - num_inputs)

    return (
        [
            (index, *term(a), 1, *term(b), relative_sign)
            for index, (a, b, relative_sign) in enumerate(definitions)
        ],
        [[(*term(code), sign) for code, sign in row.items()] for row in rows],
        sum(max(0, int(np.count_nonzero(row)) - 1) for row in weight_slice),
    )


class TestCSEFromWeightSlice:
    def test_equivalent_to_expression_path(self, paper_eq1_matrix):
        via_expressions = eliminate_common_subexpressions(
            fold_weight_slice(paper_eq1_matrix)
        )
        via_slice = eliminate_common_subexpressions(paper_eq1_matrix)
        assert via_slice.total_operations == via_expressions.total_operations
        assert via_slice.num_definitions == via_expressions.num_definitions
        assert result_shape(via_slice) == result_shape(via_expressions)

    @settings(max_examples=60, deadline=None)
    @given(
        rows=st.integers(min_value=1, max_value=40),
        columns=st.integers(min_value=1, max_value=12),
        sparsity=st.floats(min_value=0.0, max_value=0.95),
        seed=st.integers(min_value=0, max_value=10_000),
        max_temporaries=st.one_of(st.none(), st.integers(min_value=0, max_value=6)),
        min_occurrences=st.integers(min_value=2, max_value=4),
    )
    def test_property_matches_recounting_reference(
        self, rows, columns, sparsity, seed, max_temporaries, min_occurrences
    ):
        """The bucket-queue engine extracts exactly what a full recount would.

        Same definitions in the same order (the tie-break is the smallest key
        among the most frequent patterns), same rewritten rows with the same
        term order, from the weight slice and from its folded expressions.
        """
        weight_slice = synthetic_ternary_weights((rows, columns), sparsity, rng=seed)
        expected = reference_cse(weight_slice, min_occurrences, max_temporaries)
        for source in (weight_slice, fold_weight_slice(weight_slice)):
            result = eliminate_common_subexpressions(
                source,
                min_occurrences=min_occurrences,
                max_temporaries=max_temporaries,
            )
            assert result_shape(result) == expected

    def test_rejects_wrong_rank(self):
        with pytest.raises(CompilationError):
            eliminate_common_subexpressions(np.zeros(4, dtype=np.int8))

    def test_reduces_ops_on_random_slices(self):
        weight_slice = synthetic_ternary_weights((64, 9), 0.6, rng=0)
        result = eliminate_common_subexpressions(weight_slice)
        assert result.total_operations <= result.original_operations

    @settings(max_examples=20, deadline=None)
    @given(
        sparsity=st.floats(min_value=0.3, max_value=0.95),
        seed=st.integers(min_value=0, max_value=1000),
    )
    def test_property_rewritten_rows_equal_original_matrix(self, sparsity, seed):
        """CSE must never change the computed linear function."""
        weight_slice = synthetic_ternary_weights((12, 9), sparsity, rng=seed)
        result = eliminate_common_subexpressions(weight_slice)
        definitions = {d.temp.index: d for d in result.definitions}
        for row_index, row in enumerate(result.rows):
            coefficients = expand_expression(row, definitions)
            for column in range(weight_slice.shape[1]):
                assert coefficients.get(column, 0) == weight_slice[row_index, column]

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=100))
    def test_property_cse_never_increases_ops(self, seed):
        weight_slice = synthetic_ternary_weights((32, 9), 0.7, rng=seed)
        result = eliminate_common_subexpressions(weight_slice)
        assert result.total_operations <= result.original_operations
        assert result.fused_total_operations <= unrolled_op_count(weight_slice)
