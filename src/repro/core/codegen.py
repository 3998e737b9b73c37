"""Code generation: scheduled channel DFGs become AP instruction streams.

The generated :class:`~repro.ap.isa.APProgram` computes, for every CAM row
(output position), the partial output-feature-map contribution of one input
channel for every output channel of the layer.  Inputs are the im2col patch
elements ``x0 .. x{K-1}``; outputs are named ``y0 .. y{Cout-1}`` and carry a
``negated`` flag when the stored value is the negation of the logical partial
sum (the accumulation phase consumes the flag by subtracting instead of
adding).
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.ap.isa import APInstruction, APOpcode, APProgram, ColumnRegion
from repro.core.dfg import ChannelDFG
from repro.core.scheduling import Schedule
from repro.errors import CompilationError


def generate_program(
    schedule: Schedule,
    activation_bits: int,
    name: str = "channel-dfg",
    carry_column: int = 0,
    domain_offset: int = 0,
) -> APProgram:
    """Lower a scheduled channel DFG into an AP program.

    Args:
        schedule: output of :func:`~repro.core.scheduling.schedule_dfg`.
        activation_bits: precision of the input patch elements (their column
            regions are declared with this width).
        name: program name used in listings and reports.
        carry_column: CAM column reserved for the carry/borrow bit.
        domain_offset: first domain used by the operands (lets several channel
            programs share an AP by stacking along the domain axis).
    """
    dfg: ChannelDFG = schedule.dfg
    program = APProgram(name=name, carry_column=carry_column)
    slot_of_node = schedule.slot_of_node
    slot_column = schedule.slot_column
    slot_width = schedule.slot_width

    # Inputs: the im2col patch elements.  Input operands keep this declared
    # (activation-width) region so the executed instruction sign-extends them
    # correctly.
    input_region: Dict[int, ColumnRegion] = {}
    for patch_index, node_id in sorted(dfg.input_nodes.items()):
        slot = slot_of_node[node_id]
        declared = ColumnRegion(
            column=slot_column[slot],
            width=max(activation_bits, slot_width[slot]),
            domain_offset=domain_offset,
        )
        program.input_columns[f"x{patch_index}"] = declared
        input_region[node_id] = declared

    def region(node_id: int) -> ColumnRegion:
        """Column region of a node's slot; inputs keep their declared region."""
        declared = input_region.get(node_id)
        if declared is not None:
            return declared
        slot = slot_of_node[node_id]
        return ColumnRegion(
            column=slot_column[slot],
            width=slot_width[slot],
            domain_offset=domain_offset,
        )

    # Operations in schedule order.
    for scheduled in schedule.ops:
        node = dfg.nodes[scheduled.node_id]
        slot = slot_of_node[scheduled.node_id]
        dest = ColumnRegion(
            column=slot_column[slot],
            width=slot_width[slot],
            domain_offset=domain_offset,
        )
        lhs = region(scheduled.lhs)
        rhs = region(scheduled.rhs)

        if node.op == "add":
            if scheduled.inplace:
                overwritten = scheduled.overwrites
                if overwritten is None:
                    raise CompilationError("in-place op without an overwritten operand")
                # The in-place adder overwrites operand B: put the overwritten
                # value in the src_b position.
                if overwritten == scheduled.lhs:
                    src_a, src_b = rhs, dest
                else:
                    src_a, src_b = lhs, dest
                instruction = APInstruction(
                    opcode=APOpcode.ADD_INPLACE,
                    dest=dest,
                    src_a=src_a,
                    src_b=src_b,
                    comment=node.label,
                )
            else:
                instruction = APInstruction(
                    opcode=APOpcode.ADD_OUTOFPLACE,
                    dest=dest,
                    src_a=lhs,
                    src_b=rhs,
                    comment=node.label,
                )
        elif node.op == "sub":
            # Table-I subtraction computes B - A with B the minuend (our lhs).
            if scheduled.inplace:
                instruction = APInstruction(
                    opcode=APOpcode.SUB_INPLACE,
                    dest=dest,
                    src_a=rhs,
                    src_b=dest,
                    comment=node.label,
                )
            else:
                instruction = APInstruction(
                    opcode=APOpcode.SUB_OUTOFPLACE,
                    dest=dest,
                    src_a=rhs,
                    src_b=lhs,
                    comment=node.label,
                )
        else:  # pragma: no cover - the DFG only emits add/sub nodes.
            raise CompilationError(f"unsupported DFG op {node.op!r}")
        program.append(instruction)

    # Outputs: per-output-channel partial sums (possibly negated, possibly a
    # direct reference to an input for single-term rows, or absent for all-zero
    # rows).
    zero_region: Optional[ColumnRegion] = None
    for channel in sorted(dfg.outputs):
        reference = dfg.outputs[channel]
        name_out = f"y{channel}"
        if reference is None:
            if zero_region is None:
                zero_column = schedule.num_columns + 1 + carry_column
                zero_region = ColumnRegion(
                    column=zero_column, width=1, domain_offset=domain_offset
                )
                program.append(
                    APInstruction(
                        opcode=APOpcode.CLEAR,
                        dest=zero_region,
                        comment="zero output",
                    )
                )
            program.output_columns[name_out] = zero_region
            program.output_negated[name_out] = False
            continue
        node_id, sign = reference
        program.output_columns[name_out] = region(node_id)
        program.output_negated[name_out] = sign < 0
    return program
