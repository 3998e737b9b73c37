"""Memory regression: the lockstep wave schedule stays compact.

Each tile's programs are lowered once at deploy and scheduled for lockstep
execution as a few contiguous integer arrays.  Small arrays per group, or
objects per instruction, would cost several hundred bytes per instruction
and show up in the serving process's peak RSS; this gate holds the schedule
of every tile of ResNet-18 (base width 8) to 64 B per lowered instruction,
measured with ``tracemalloc``.  The per-program lowering is built first and
not counted.
"""

import gc
import tracemalloc

from repro.ap.backends import batched
from repro.nn.models.resnet import build_resnet18
from repro.rtm.timing import DEFAULT_RTM_TECHNOLOGY
from repro.session import Session

#: Retained schedule bytes allowed per lowered instruction.
MAX_BYTES_PER_INSTRUCTION = 64


def test_resnet18_schedule_bytes_per_instruction():
    model = build_resnet18(num_classes=10, base_width=8, sparsity=0.8, rng=0)
    # A backend without waves deploys without scheduling, so the schedules
    # are first built inside the measurement.
    session = Session(
        model=model,
        input_shape=(3, 32, 32),
        bits=4,
        signed=False,
        backend="vectorized",
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
