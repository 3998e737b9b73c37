"""Tests for DFG scheduling (placement + column allocation)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.cse import eliminate_common_subexpressions
from repro.core.dfg import build_channel_dfg
from repro.core.folding import fold_weight_slice
from repro.core.scheduling import END_OF_PROGRAM, color_intervals, schedule_dfg
from repro.errors import CapacityError
from repro.nn.ternary import synthetic_ternary_weights


def build_dfg(matrix, cse=True, activation_bits=4):
    rows = fold_weight_slice(np.asarray(matrix))
    definitions = None
    working = rows
    if cse:
        definitions = eliminate_common_subexpressions(rows)
        working = definitions.rows
    return build_channel_dfg(working, definitions=definitions, activation_bits=activation_bits)


class TestPlacement:
    def test_every_op_scheduled_once(self, paper_eq1_matrix):
        dfg = build_dfg(paper_eq1_matrix)
        schedule = schedule_dfg(dfg)
        assert len(schedule.ops) == dfg.num_operations
        assert schedule.num_inplace + schedule.num_outofplace == dfg.num_operations

    def test_inplace_used_when_operand_dies(self):
        # x0 + x1 + x2: the chain can overwrite its intermediate value.
        dfg = build_dfg([[1, 1, 1]], cse=False)
        schedule = schedule_dfg(dfg)
        assert schedule.num_inplace >= 1

    def test_prefer_inplace_false_forces_out_of_place(self, paper_eq1_matrix):
        dfg = build_dfg(paper_eq1_matrix)
        schedule = schedule_dfg(dfg, prefer_inplace=False)
        assert schedule.num_inplace == 0

    def test_shared_value_not_overwritten(self):
        # The temporary t0 = x0+x1 is used by both outputs: the first consumer
        # must not destroy it.
        dfg = build_dfg([[1, 1, 1], [1, 1, -1]])
        schedule = schedule_dfg(dfg)
        for op in schedule.ops:
            if op.inplace:
                overwritten = op.overwrites
                assert overwritten is not None
                # the overwritten node must not be used by any later op
                position = schedule.ops.index(op)
                for later in schedule.ops[position + 1 :]:
                    assert overwritten not in (later.lhs, later.rhs)

    def test_outputs_never_overwritten(self, paper_eq1_matrix):
        dfg = build_dfg(paper_eq1_matrix)
        schedule = schedule_dfg(dfg)
        output_nodes = {ref[0] for ref in dfg.outputs.values() if ref is not None}
        for op in schedule.ops:
            if op.inplace and op.overwrites in output_nodes:
                pytest.fail("an output value was overwritten in place")


class TestColumnAllocation:
    def test_columns_start_after_carry(self, paper_eq1_matrix):
        dfg = build_dfg(paper_eq1_matrix)
        schedule = schedule_dfg(dfg, first_column=1)
        assert min(schedule.slot_column.values()) >= 1

    def test_no_live_range_conflicts(self, paper_eq1_matrix):
        """Two values sharing a column must never be live at the same time."""
        dfg = build_dfg(paper_eq1_matrix)
        schedule = schedule_dfg(dfg)
        # Reconstruct per-node live ranges.
        last_use = {}
        for position, op in enumerate(schedule.ops):
            for operand in (op.lhs, op.rhs):
                last_use[operand] = position
        for ref in dfg.outputs.values():
            if ref is not None:
                last_use[ref[0]] = len(schedule.ops) + 1
        definition = {}
        for node_id in dfg.input_nodes.values():
            definition[node_id] = -1
        for position, node_id in enumerate(dfg.op_order):
            definition[node_id] = position
        by_column = {}
        for node_id, slot in schedule.slot_of_node.items():
            column = schedule.slot_column[slot]
            by_column.setdefault(column, []).append(
                (slot, definition[node_id], last_use.get(node_id, definition[node_id]))
            )
        for column, intervals in by_column.items():
            slots = {}
            for slot, start, end in intervals:
                slots.setdefault(slot, [start, end])
                slots[slot][0] = min(slots[slot][0], start)
                slots[slot][1] = max(slots[slot][1], end)
            items = list(slots.values())
            for i in range(len(items)):
                for j in range(i + 1, len(items)):
                    a, b = items[i], items[j]
                    overlap = a[0] <= b[1] and b[0] <= a[1]
                    assert not overlap, f"column {column} double-booked"

    def test_capacity_error_when_columns_exhausted(self):
        matrix = np.ones((24, 9), dtype=np.int8)
        dfg = build_dfg(matrix.tolist(), cse=False)
        with pytest.raises(CapacityError):
            schedule_dfg(dfg, usable_columns=4)

    def test_slot_width_covers_all_values(self, paper_eq1_matrix):
        dfg = build_dfg(paper_eq1_matrix)
        schedule = schedule_dfg(dfg)
        for node_id, slot in schedule.slot_of_node.items():
            assert schedule.slot_width[slot] >= dfg.nodes[node_id].width

    def test_num_columns_reasonable(self, paper_eq1_matrix):
        dfg = build_dfg(paper_eq1_matrix)
        schedule = schedule_dfg(dfg)
        # 6 inputs plus a handful of temporaries/outputs at most.
        assert schedule.num_columns <= 16


def reference_coloring(intervals):
    """Pairwise interference graph plus stable largest-first greedy coloring.

    ``intervals`` maps a key to a closed ``(start, end)`` range; the result
    maps each key to its color in coloring order.
    """
    keys = list(intervals)
    neighbours = {key: set() for key in keys}
    for i, a in enumerate(keys):
        for b in keys[i + 1 :]:
            (start_a, end_a), (start_b, end_b) = intervals[a], intervals[b]
            if start_a <= end_b and start_b <= end_a:
                neighbours[a].add(b)
                neighbours[b].add(a)
    order = sorted(keys, key=lambda key: len(neighbours[key]), reverse=True)
    colors = {}
    for key in order:
        taken = {colors[other] for other in neighbours[key] if other in colors}
        color = 0
        while color in taken:
            color += 1
        colors[key] = color
    return colors


def slot_live_ranges(dfg, schedule):
    """Each slot's live range, from its first definition to its last use."""
    last_use = {}
    for position, op in enumerate(schedule.ops):
        last_use[op.lhs] = position
        last_use[op.rhs] = position
    for ref in dfg.outputs.values():
        if ref is not None:
            last_use[ref[0]] = END_OF_PROGRAM
    definition = {node_id: -1 for node_id in dfg.input_nodes.values()}
    for position, node_id in enumerate(dfg.op_order):
        definition[node_id] = position
    ranges = {}
    for node_id, slot in schedule.slot_of_node.items():
        start = definition[node_id]
        end = max(last_use.get(node_id, -1), start)
        if slot in ranges:
            start = min(start, ranges[slot][0])
            end = max(end, ranges[slot][1])
        ranges[slot] = (start, end)
    return ranges


def assert_no_shared_live_columns(ranges, columns):
    for a in ranges:
        for b in ranges:
            if a < b and columns[a] == columns[b]:
                (start_a, end_a), (start_b, end_b) = ranges[a], ranges[b]
                assert not (start_a <= end_b and start_b <= end_a), (a, b)


class TestIntervalColoring:
    """The interval sweep reproduces pairwise largest-first greedy exactly."""

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=-1, max_value=40),
                st.one_of(
                    st.integers(min_value=0, max_value=30), st.just(END_OF_PROGRAM)
                ),
            ),
            max_size=60,
        )
    )
    def test_matches_reference_on_random_intervals(self, spans):
        starts = [start for start, _ in spans]
        ends = [
            length if length == END_OF_PROGRAM else start + length
            for start, length in spans
        ]
        coloring = color_intervals(starts, ends)
        expected = reference_coloring(dict(enumerate(zip(starts, ends))))
        assert list(coloring.items()) == list(expected.items())
        assert_no_shared_live_columns(dict(enumerate(zip(starts, ends))), coloring)

    def test_empty(self):
        assert color_intervals([], []) == {}

    @settings(max_examples=80, deadline=None)
    @given(
        rows=st.integers(min_value=1, max_value=32),
        columns=st.integers(min_value=1, max_value=12),
        sparsity=st.floats(min_value=0.0, max_value=0.95),
        seed=st.integers(min_value=0, max_value=10_000),
        cse=st.booleans(),
        prefer_inplace=st.booleans(),
        first_column=st.integers(min_value=0, max_value=3),
    )
    def test_schedule_matches_reference_on_random_slices(
        self, rows, columns, sparsity, seed, cse, prefer_inplace, first_column
    ):
        weight_slice = synthetic_ternary_weights((rows, columns), sparsity, rng=seed)
        dfg = build_dfg(weight_slice, cse=cse)
        schedule = schedule_dfg(
            dfg, first_column=first_column, prefer_inplace=prefer_inplace
        )
        ranges = slot_live_ranges(dfg, schedule)
        expected = [
            (slot, first_column + color)
            for slot, color in reference_coloring(ranges).items()
        ]
        # Values and item order: the dict order is part of the pickled model.
        assert list(schedule.slot_column.items()) == expected
        assert_no_shared_live_columns(ranges, schedule.slot_column)
