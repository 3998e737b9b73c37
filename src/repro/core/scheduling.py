"""DFG scheduling: placement selection and CAM-column allocation (paper Sec. IV-B/C).

Two decisions are made per channel DFG:

* **in-place vs out-of-place** for every add/sub node.  An operation can be
  in-place (8 cycles/bit instead of 10) when one of its operands dies at this
  use - the result then overwrites that operand's column.  For subtractions
  only the minuend can be overwritten (the Table-I LUT computes ``B <- B-A``).
* **column allocation**: values are grouped into *slots* (an in-place result
  reuses its operand's slot); slots that are live simultaneously must occupy
  different CAM columns.  This is the classic register-allocation graph
  coloring the paper refers to, colored greedily in *largest-first* order:
  slots are visited by descending interference degree (ties keep slot
  order) and each takes the smallest column no overlapping, already-colored
  slot holds.

A slot's live range is one closed interval of op positions, so the
interference graph is an *interval graph* and is never built.  A slot's
degree is ``#(start_j <= end_i) - #(end_j < start_i) - 1``, two binary
searches over the sorted endpoints, and each column keeps the positions its
slots occupy as one integer bit mask, so "does this column hold an
overlapping slot" is a single AND.  The result is exactly the coloring of
the greedy largest-first heuristic on the explicit graph, in the same
coloring order.

The storage width of a slot is the widest value ever stored in it, and every
operation executes over its destination slot's storage width: this keeps the
stored bits physically sign-extended so later, wider consumers read correct
upper bits (see DESIGN.md, "Key modelling decisions").
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.core.dfg import ChannelDFG
from repro.errors import CapacityError, CompilationError

#: Position assigned to values that must survive the whole program (outputs).
END_OF_PROGRAM = 1 << 30


@dataclass
class ScheduledOp:
    """One scheduled operation."""

    node_id: int
    op: str  # "add" | "sub"
    inplace: bool
    #: Node id whose slot is overwritten (only for in-place ops).
    overwrites: Optional[int]
    #: Operand node ids: (lhs, rhs) - for "sub", lhs is the minuend.
    lhs: int
    rhs: int


@dataclass
class Schedule:
    """Placement and column allocation for one channel DFG."""

    dfg: ChannelDFG
    ops: List[ScheduledOp] = field(default_factory=list)
    #: Node id -> slot id.
    slot_of_node: Dict[int, int] = field(default_factory=dict)
    #: Slot id -> storage width (bits).
    slot_width: Dict[int, int] = field(default_factory=dict)
    #: Slot id -> CAM column index.
    slot_column: Dict[int, int] = field(default_factory=dict)

    @property
    def num_inplace(self) -> int:
        """Number of in-place operations."""
        return sum(1 for op in self.ops if op.inplace)

    @property
    def num_outofplace(self) -> int:
        """Number of out-of-place operations."""
        return sum(1 for op in self.ops if not op.inplace)

    @property
    def num_columns(self) -> int:
        """Number of distinct CAM columns used by operands."""
        return len(set(self.slot_column.values()))

    def column_of_node(self, node_id: int) -> int:
        """CAM column assigned to a node's value."""
        return self.slot_column[self.slot_of_node[node_id]]

    def width_of_node(self, node_id: int) -> int:
        """Storage width of the slot holding a node's value."""
        return self.slot_width[self.slot_of_node[node_id]]


def _last_uses(dfg: ChannelDFG) -> Dict[int, int]:
    """Position (op index) of the last consumer of every node."""
    last_use: Dict[int, int] = {node_id: -1 for node_id in dfg.nodes}
    for position, node_id in enumerate(dfg.op_order):
        node = dfg.nodes[node_id]
        for operand in (node.lhs, node.rhs):
            if operand is not None:
                last_use[operand[0]] = position
    for output in dfg.outputs.values():
        if output is not None:
            last_use[output[0]] = END_OF_PROGRAM
    return last_use


def color_intervals(starts: Sequence[int], ends: Sequence[int]) -> Dict[int, int]:
    """Greedy largest-first coloring of the closed intervals ``[starts[i], ends[i]]``.

    Returns ``{interval index: color}`` in coloring order: intervals by
    descending number of overlapping intervals, ties in index order; each
    takes the smallest color no overlapping, already-colored interval holds.
    Endpoints are integers.
    """
    # The intervals overlapping interval i are those starting at or before
    # its end, less those ending before its start (and i itself).
    sorted_starts = sorted(starts)
    sorted_ends = sorted(ends)
    degree = [
        bisect_right(sorted_starts, end) - bisect_left(sorted_ends, start) - 1
        for start, end in zip(starts, ends)
    ]
    # A stable sort: reverse=True keeps equal degrees in index order.
    order = sorted(range(len(degree)), key=degree.__getitem__, reverse=True)
    # Integer intervals overlap iff they share a point, so each color keeps
    # the points its intervals cover as the bits of one int (point p is bit
    # p - origin).  Clipping every end at the last start keeps every overlap.
    origin = min(starts, default=0)
    last = max(starts, default=0)
    held: List[int] = []
    coloring: Dict[int, int] = {}
    for index in order:
        start = starts[index] - origin
        end = min(ends[index], last) - origin
        span = ((2 << (end - start)) - 1) << start
        for color, points in enumerate(held):
            if not points & span:
                held[color] = points | span
                break
        else:
            color = len(held)
            held.append(span)
        coloring[index] = color
    return coloring


def schedule_dfg(
    dfg: ChannelDFG,
    usable_columns: Optional[int] = None,
    first_column: int = 1,
    prefer_inplace: bool = True,
) -> Schedule:
    """Select placements and allocate CAM columns for one channel DFG.

    Args:
        dfg: the channel DFG to schedule.
        usable_columns: number of CAM columns available to operands; ``None``
            skips the capacity check.
        first_column: first column index handed out (column 0 is reserved for
            the carry/borrow bit by default).
        prefer_inplace: disable to force every operation out-of-place (used by
            the placement-policy ablation).
    """
    last_use = _last_uses(dfg)
    schedule = Schedule(dfg=dfg)
    nodes = dfg.nodes
    ops = schedule.ops

    # ------------------------------------------------------------------
    # Slot assignment: every value starts in its own slot; an in-place result
    # reuses the slot of the operand it overwrites.  Each slot's live range
    # runs from its first definition to the last use of any value it holds.
    # ------------------------------------------------------------------
    slot_of: Dict[int, int] = {}
    slot_start: List[int] = []
    slot_end: List[int] = []

    for node_id in dfg.input_nodes.values():
        slot_of[node_id] = len(slot_start)
        slot_start.append(-1)
        slot_end.append(last_use[node_id])

    for position, node_id in enumerate(dfg.op_order):
        node = nodes[node_id]
        if node.lhs is None or node.rhs is None:
            raise CompilationError(f"op node {node_id} is missing operands")
        lhs_id, rhs_id = node.lhs[0], node.rhs[0]
        overwrite: Optional[int] = None
        if prefer_inplace:
            # Prefer overwriting the left operand: accumulation chains keep
            # their running value on the left, so this reuses the accumulator
            # column instead of clobbering narrow temporaries.  A subtraction
            # may only overwrite its minuend (lhs).
            if last_use[lhs_id] == position:
                overwrite = lhs_id
            elif node.op == "add" and last_use[rhs_id] == position:
                overwrite = rhs_id
        end = max(last_use[node_id], position)
        if overwrite is not None:
            slot = slot_of[overwrite]
            slot_of[node_id] = slot
            slot_end[slot] = max(slot_end[slot], end)
        else:
            slot_of[node_id] = len(slot_start)
            slot_start.append(position)
            slot_end.append(end)
        ops.append(
            ScheduledOp(
                node_id=node_id,
                op=node.op,
                inplace=overwrite is not None,
                overwrites=overwrite,
                lhs=lhs_id,
                rhs=rhs_id,
            )
        )
    schedule.slot_of_node = slot_of

    # ------------------------------------------------------------------
    # Slot storage widths: widest value ever stored in the slot.
    # ------------------------------------------------------------------
    slot_width: Dict[int, int] = {}
    for node_id, slot in slot_of.items():
        width = nodes[node_id].width
        slot_width[slot] = max(slot_width.get(slot, 1), width)
    schedule.slot_width = slot_width

    # ------------------------------------------------------------------
    # Column allocation: greedy largest-first coloring of the live ranges.
    # ------------------------------------------------------------------
    coloring = color_intervals(slot_start, slot_end)
    num_colors = (max(coloring.values()) + 1) if coloring else 0
    if usable_columns is not None and num_colors > usable_columns:
        raise CapacityError(
            f"channel DFG needs {num_colors} operand columns but only "
            f"{usable_columns} are usable; split the output channels across "
            "more APs or column groups"
        )
    schedule.slot_column = {
        slot: first_column + color for slot, color in coloring.items()
    }
    return schedule
