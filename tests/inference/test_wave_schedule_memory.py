"""Memory regression: the lockstep wave schedule stays compact.

Each tile's programs are lowered once at deploy and scheduled for lockstep
execution as a few contiguous integer arrays.  Small arrays per group, or
objects per instruction, would cost several hundred bytes per instruction
and show up in the serving process's peak RSS; this gate holds the schedule
of every tile of ResNet-18 (base width 8) to 64 B per lowered instruction,
measured with ``tracemalloc``.  The per-program lowering is built first and
not counted.

A wave runs in chunks of instances priced against ``_WAVE_CHUNK_BYTES`` at
the schedule's word size.  The second gate runs one chunk of a wave on
every tile of VGG-9 (width 1/16, all ``uint8`` words) and holds its
``tracemalloc`` peak to the budget plus a stated slack.  The third does the
same for one wide adder tree, whose level groups hold many more records
than its block has programs: the group temporaries must be priced at the
largest group.
"""

import gc
import tracemalloc

import numpy as np

from repro.ap.backends import batched
from repro.ap.isa import APInstruction, APOpcode, APProgram, ColumnRegion
from repro.nn.models.resnet import build_resnet18
from repro.nn.models.vgg import build_vgg9
from repro.rtm.timing import DEFAULT_RTM_TECHNOLOGY
from repro.session import Session
from repro.utils.bitops import max_signed_value, min_signed_value

#: Retained schedule bytes allowed per lowered instruction.
MAX_BYTES_PER_INSTRUCTION = 64

#: Peak bytes a chunk may take beyond ``_WAVE_CHUNK_BYTES``: the per-instance
#: result tuples and ``CAMStats`` objects, and allocator rounding.
CHUNK_SLACK_BYTES = 1024 * 1024


def test_resnet18_schedule_bytes_per_instruction():
    model = build_resnet18(num_classes=10, base_width=8, sparsity=0.8, rng=0)
    # A backend without waves deploys without scheduling, so the schedules
    # are first built inside the measurement.
    session = Session(
        model=model,
        input_shape=(3, 32, 32),
        bits=4,
        signed=False,
        backend="reference",
        executor="serial",
    )
    try:
        session.compile().deploy()
        plan = session.plan
    finally:
        session.close()
    columns = plan.lease_columns
    domains = DEFAULT_RTM_TECHNOLOGY.domains_per_nanowire
    tiles = {}
    for layer in plan.layers:
        for tile in layer.tiles:
            tiles.setdefault((tuple(map(id, tile.programs)), tile.rows), tile)
    sequences = []
    for tile in tiles.values():
        compiled = [
            batched.compile_program_wave(program, columns, domains)
            for program in tile.programs
        ]
        assert all(lowered is not None for lowered in compiled)
        sequences.append((compiled, tile.rows))
    instructions = sum(
        len(program) for tile in tiles.values() for program in tile.programs
    )

    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        schedules = [
            batched._schedule(compiled, rows, columns) for compiled, rows in sequences
        ]
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(schedules) == len(sequences)
    assert instructions > 10_000
    per_instruction = retained / instructions
    assert per_instruction <= MAX_BYTES_PER_INSTRUCTION, (
        f"lockstep schedules retain {per_instruction:.1f} B per lowered "
        f"instruction ({retained} B for {instructions})"
    )


def test_vgg9_narrow_word_chunks_peak_within_budget():
    model = build_vgg9(width_multiplier=1 / 16, input_size=16, sparsity=0.85, rng=0)
    session = Session(
        model=model,
        input_shape=(3, 16, 16),
        bits=4,
        signed=False,
        backend="batched",
        executor="serial",
    )
    try:
        session.compile().deploy()
        plan = session.plan
    finally:
        session.close()
    columns = plan.lease_columns
    domains = DEFAULT_RTM_TECHNOLOGY.domains_per_nanowire
    rng = np.random.default_rng(0)
    budget = batched._WAVE_CHUNK_BYTES
    peaks = []
    for layer in plan.layers:
        for tile in layer.tiles:
            compiled = [
                batched.compile_program_wave(program, columns, domains)
                for program in tile.programs
            ]
            schedule = batched._schedule(compiled, tile.rows, columns)
            assert schedule.word == np.dtype(np.uint8)
            peak, chunk = _chunk_peak(compiled, tile.rows, columns, rng)
            assert peak <= budget + CHUNK_SLACK_BYTES, (
                f"{layer.name}: a {chunk}-instance chunk peaked at {peak} B "
                f"against a {budget} B budget"
            )
            peaks.append(peak)
    # Priced at the word size, the largest chunks fill most of the budget
    # (priced as uint64 words, they would fill about an eighth of it).
    assert max(peaks) >= budget // 2


def _chunk_peak(compiled, rows, columns, rng):
    """The ``tracemalloc`` peak of a wave's first chunk, one instance more
    than a chunk holds, and the chunk's instance count."""
    schedule = batched._schedule(compiled, rows, columns)
    replay = batched._ReplayPlan(compiled)
    chunk = schedule.chunk(rows, 1 << 30, replay)
    total = chunk + 1
    staged = batched.StagedWaveInputs(
        total,
        rows,
        [
            {
                name: rng.integers(
                    min_signed_value(width), max_signed_value(width) + 1,
                    size=(total, rows),
                )
                for name, width in lowered.load_widths().items()
            }
            for lowered in compiled
        ],
    )
    operands = batched._word_loads(schedule, compiled, staged, rows)
    assert operands is not None
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        outputs = np.empty((schedule.outputs, total, rows), dtype=schedule.signed)
        counters = batched._execute_wave_chunk(
            schedule, replay, operands, 0, chunk, total, rows, outputs
        )
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert counters is not None
    assert all(len(counter) == chunk for counter in counters)
    return peak, chunk


def wide_adder_tree(inputs):
    """One program whose first level is wide: the differences of every
    ordered pair of ``inputs`` 2-bit operands, then their pairwise sum,
    level by level, each result into a fresh column one bit wider."""
    program = APProgram(name="tree", carry_column=0)
    loaded = [ColumnRegion(column=1 + index, width=2) for index in range(inputs)]
    program.input_columns = {f"x{index}": region for index, region in enumerate(loaded)}
    column = 1 + inputs

    def emit(opcode, src_a, src_b):
        nonlocal column
        dest = ColumnRegion(column=column, width=max(src_a.width, src_b.width) + 1)
        column += 1
        program.append(
            APInstruction(opcode=opcode, dest=dest, src_a=src_a, src_b=src_b)
        )
        return dest

    level = [
        emit(APOpcode.SUB_OUTOFPLACE, src_a, src_b)
        for src_a in loaded
        for src_b in loaded
        if src_a is not src_b
    ]
    while len(level) > 1:
        level = [
            emit(APOpcode.ADD_OUTOFPLACE, src_a, src_b)
            for src_a, src_b in zip(level[::2], level[1::2])
        ] + level[len(level) // 2 * 2 :]
    program.output_columns = {"y": level[0]}
    return program, column


def test_wide_group_chunks_peak_within_budget():
    program, columns = wide_adder_tree(8)
    rows = 256
    compiled = [
        batched.compile_program_wave(
            program, columns, DEFAULT_RTM_TECHNOLOGY.domains_per_nanowire
        )
    ]
    schedule = batched._schedule(compiled, rows, columns)
    sizes = schedule.groups[:, 2] - schedule.groups[:, 1]
    # Its first level takes 56 differences in one group: 56 records for one
    # program.
    assert int(sizes.max()) >= 8 * len(compiled)
    peak, chunk = _chunk_peak(compiled, rows, columns, np.random.default_rng(1))
    budget = batched._WAVE_CHUNK_BYTES
    assert chunk > 1
    assert peak <= budget + CHUNK_SLACK_BYTES, (
        f"a {chunk}-instance chunk peaked at {peak} B against a {budget} B budget"
    )
