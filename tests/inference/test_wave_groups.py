"""Group-count gate: a request runs few lockstep groups.

Each lockstep group costs a fixed set of NumPy calls, so on 1-image
requests the group count, not the element work, sets the wave time.  The
schedule groups each block's records by dataflow level and kind.  This
gate recounts the groups of every wave of one request from the programs'
instructions - levels from each column's last write and last read, with no
use of the lowering - checks the schedule runs exactly that many, and holds
the totals of both benchmark models under a ceiling.  A schedule that took
one record per program per group would run 708 groups on ResNet-18 w8 and
148 on VGG-9 1/16; levels run 177 and 66.
"""

import numpy as np
import pytest

from repro.ap.backends import batched
from repro.ap.isa import APOpcode
from repro.inference import engine
from repro.nn.models.resnet import build_resnet18
from repro.nn.models.vgg import build_vgg9
from repro.rtm.timing import DEFAULT_RTM_TECHNOLOGY
from repro.session import Session


def record_levels(program):
    """``(level, kind)`` of each destination write of ``program``.

    A write runs one level after the last write of any column it reads or
    writes, and after the last read of the column it writes.
    """
    written, read = {}, {}
    levels = []
    for instruction in program.instructions:
        opcode = instruction.opcode
        if opcode.is_arithmetic:
            kind = batched._ARITH
            sources = (instruction.src_a.column, instruction.src_b.column)
            targets = instruction.all_dests
            if opcode.is_inplace:
                targets = (instruction.dest,)
        elif opcode is APOpcode.COPY:
            kind = batched._COPY
            sources = (instruction.src_a.column,)
            targets = instruction.all_dests
        else:
            kind = batched._CLEAR
            sources = ()
            targets = instruction.all_dests
        for region in targets:
            column = region.column
            level = 1 + max(
                [written.get(column, -1), read.get(column, -1)]
                + [written.get(source, -1) for source in sources]
            )
            written[column] = level
            for source in sources:
                read[source] = max(read.get(source, -1), level)
            levels.append((level, kind))
    return levels


def groups_per_request(monkeypatch, model, input_shape):
    """Groups run by one 1-image request: recounted, and as scheduled."""
    calls = []
    execute = engine.execute_program_wave

    def recorded(programs, inputs, rows, columns, *args, **kwargs):
        calls.append((programs, len(inputs), rows, columns))
        return execute(programs, inputs, rows, columns, *args, **kwargs)

    monkeypatch.setattr(engine, "execute_program_wave", recorded)
    session = Session(
        model=model,
        input_shape=input_shape,
        bits=4,
        signed=False,
        backend="batched",
        executor="serial",
    )
    image = np.random.default_rng(3).uniform(0.0, 1.0, size=(1,) + input_shape)
    try:
        session.compile().deploy()
        session.infer(image)
    finally:
        session.close()
    assert calls
    domains = DEFAULT_RTM_TECHNOLOGY.domains_per_nanowire
    recounted = scheduled = 0
    for programs, instances, rows, columns in calls:
        compiled = [
            batched.compile_program_wave(program, columns, domains)
            for program in programs
        ]
        schedule = batched._schedule(compiled, rows, columns)
        chunk = schedule.chunk(rows, instances, batched._ReplayPlan(compiled))
        chunks = -(-instances // chunk)
        levels = [record_levels(program) for program in programs]
        recounted += chunks * sum(
            len({key for j in range(block.start, block.stop) for key in levels[j]})
            for block in schedule.blocks
        )
        scheduled += chunks * len(schedule.groups)
    return recounted, scheduled


@pytest.mark.parametrize(
    "build, input_shape, ceiling",
    [
        (
            lambda: build_resnet18(num_classes=10, base_width=8, sparsity=0.8, rng=0),
            (3, 32, 32),
            200,
        ),
        (
            lambda: build_vgg9(
                width_multiplier=1 / 16, input_size=16, sparsity=0.85, rng=0
            ),
            (3, 16, 16),
            80,
        ),
    ],
    ids=["resnet18w8", "vgg9"],
)
def test_request_group_count(monkeypatch, build, input_shape, ceiling):
    recounted, scheduled = groups_per_request(monkeypatch, build(), input_shape)
    assert scheduled == recounted
    assert recounted <= ceiling, f"a 1-image request ran {recounted} groups"
