"""No silent fallback: benchmark-shaped models run every layer as a wave.

A declined wave falls back to per-instance dispatch, which is byte-identical
but about an order of magnitude slower - so a decline on a compiler-emitted
program is a performance bug that no equivalence test would notice.  These
tests serve each benchmark model once through ``Session(backend="batched")``
and fail if :func:`repro.ap.backends.batched._decline` fires at all.

The same holds for the word width: a tile whose schedule fell back to
``uint64`` words would stay byte-identical but move up to 8x the bytes, so
every tile of both models must run on the narrow word its deepest domain
calls for.
"""

import numpy as np
import pytest

from repro.ap.backends import batched
from repro.ap.isa import APOpcode
from repro.inference import engine, quantized_reference_forward
from repro.nn.models.resnet import build_resnet18
from repro.nn.models.vgg import build_vgg9
from repro.rtm.timing import DEFAULT_RTM_TECHNOLOGY
from repro.session import Session


@pytest.fixture
def wave_watch(monkeypatch):
    """Record every wave call and every decline while a test runs."""
    record = {"waves": 0, "declines": []}
    execute = engine.execute_program_wave

    def counted(*args, **kwargs):
        record["waves"] += 1
        return execute(*args, **kwargs)

    def declined(reason, **detail):
        record["declines"].append((reason, detail))

    monkeypatch.setattr(engine, "execute_program_wave", counted)
    monkeypatch.setattr(batched, "_decline", declined)
    return record


def _serve(model, input_shape, images, submit=False):
    session = Session(
        model=model,
        input_shape=input_shape,
        bits=4,
        signed=False,
        backend="batched",
        executor="serial",
    )
    try:
        session.compile().deploy()
        if submit:
            return session.submit(images).result().logits
        return session.infer(images).logits
    finally:
        session.close()


@pytest.mark.parametrize("submit", [False, True], ids=["infer", "submit"])
def test_vgg9_waves_never_decline(wave_watch, submit):
    model = build_vgg9(width_multiplier=1 / 16, input_size=16, sparsity=0.85, rng=0)
    images = np.random.default_rng(1).uniform(0.0, 1.0, size=(2, 3, 16, 16))
    logits = _serve(model, (3, 16, 16), images, submit=submit)
    assert np.array_equal(
        logits, quantized_reference_forward(model, images, bits=4, signed=False)
    )
    assert wave_watch["waves"] > 0
    assert wave_watch["declines"] == []


def test_resnet18_waves_never_decline(wave_watch):
    model = build_resnet18(num_classes=10, base_width=8, sparsity=0.8, rng=0)
    images = np.random.default_rng(2).uniform(0.0, 1.0, size=(1, 3, 32, 32))
    logits = _serve(model, (3, 32, 32), images)
    assert np.array_equal(
        logits,
        quantized_reference_forward(
            model, images, input_shape=(3, 32, 32), bits=4, signed=False
        ),
    )
    assert wave_watch["waves"] > 0
    assert wave_watch["declines"] == []


def _deepest(program):
    """The deepest domain any region of ``program`` touches.  Arithmetic
    destinations are written over the instruction width (a narrow extra
    destination is blended over it), copies over their width."""
    ends = [
        region.end_domain
        for bindings in (program.input_columns, program.output_columns)
        for region in bindings.values()
    ]
    for instruction in program.instructions:
        ends += [
            source.end_domain
            for source in (instruction.src_a, instruction.src_b)
            if source is not None
        ]
        for dest in instruction.all_dests:
            if instruction.opcode.is_arithmetic:
                ends.append(dest.domain_offset + max(dest.width, instruction.width))
            elif instruction.opcode is APOpcode.COPY:
                ends.append(dest.domain_offset + instruction.width)
            else:
                ends.append(dest.end_domain)
    return max(ends)


@pytest.mark.parametrize(
    "build, input_shape",
    [
        (
            lambda: build_vgg9(
                width_multiplier=1 / 16, input_size=16, sparsity=0.85, rng=0
            ),
            (3, 16, 16),
        ),
        (
            lambda: build_resnet18(num_classes=10, base_width=8, sparsity=0.8, rng=0),
            (3, 32, 32),
        ),
    ],
    ids=["vgg9", "resnet18w8"],
)
def test_benchmark_tiles_run_on_narrow_words(build, input_shape):
    """4-bit ternary tiles reach at most domain 15: every schedule's word is
    ``uint8``, or ``uint16`` where a region reaches domain 8 or deeper."""
    session = Session(
        model=build(),
        input_shape=input_shape,
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
    words = set()
    for layer in plan.layers:
        for tile in layer.tiles:
            compiled = [
                batched.compile_program_wave(program, columns, domains)
                for program in tile.programs
            ]
            schedule = batched._schedule(compiled, tile.rows, columns)
            deepest = max(map(_deepest, tile.programs))
            assert deepest < 16
            expected = np.uint8 if deepest < 8 else np.uint16
            assert schedule.word == np.dtype(expected), (layer.name, deepest)
            words.add(schedule.word)
    assert np.dtype(np.uint8) in words
