"""Whole-group reductions of wave results.

A wave returns one :class:`~repro.ap.backends.batched.WaveBatch` per tile
group, and the engine folds it into the layer accumulator, the counter
matrix and the layer checksum in a few array operations.  These tests pin
that epilogue to the per-instance paths: on layers whose groups span
several row tiles, and on a tile whose programs emit different output
channels, every observable must equal the ``reference`` backend's and a
run where every wave declines.  They also gate what a request no longer
does: lower programs, build per-instance result objects, and account
residency once per (image, tile).  The fold's narrow accumulator is held
exact at its boundary.
"""

import numpy as np
import pytest

from repro import telemetry
from repro.ap.backends import batched
from repro.ap.isa import APInstruction, APOpcode, APProgram, ColumnRegion
from repro.arch.accelerator import Accelerator, tile_weight_bits
from repro.arch.config import APConfig, ArchitectureConfig
from repro.cam.stats import CAMStats
from repro.core.compiler import CompilerConfig, compile_model
from repro.inference import BatchedInference, engine, quantized_reference_forward
from repro.nn.layers import Flatten, MaxPool2d, ReLU, TernaryConv2d, TernaryLinear
from repro.nn.model import Sequential
from repro.nn.models.vgg import build_vgg9
from repro.nn.stats import model_layer_specs
from repro.session import Session

INPUT_SHAPE = (3, 8, 8)

#: 16-row APs: the 64 output positions of each conv split into 4 row tiles
#: that share their programs, so each conv layer stages one 4-tile group.
ARCHITECTURE = ArchitectureConfig(ap=APConfig(rows=16, columns=64), num_banks=4)


def small_cnn():
    conv = dict(kernel_size=3, stride=1, padding=1, sparsity=0.5)
    return Sequential(
        [
            TernaryConv2d(3, 6, rng=1, **conv),
            ReLU(),
            TernaryConv2d(6, 5, rng=2, **conv),
            ReLU(),
            MaxPool2d(2),
            Flatten(),
            TernaryLinear(5 * 4 * 4, 10, sparsity=0.5, rng=3),
        ],
        name="foldcnn",
    )


def compiled_cnn(model, drop_output=False):
    """``model`` compiled for 16-row APs; with ``drop_output``, the last
    slice program of the second conv stops emitting one output channel, so
    its tiles' programs emit different channels (a non-uniform fold)."""
    compiled = compile_model(
        model_layer_specs(model, INPUT_SHAPE),
        CompilerConfig(activation_bits=4, architecture=ARCHITECTURE),
        name="foldcnn",
        emit_programs=True,
    )
    if drop_output:
        program = compiled.layers[1].slices[-1].program
        name = sorted(program.output_columns)[0]
        del program.output_columns[name]
        program.output_negated.pop(name, None)
    return compiled


def run(model, compiled, images, backend):
    """One request on a fresh accelerator: the result and its ledgers."""
    accelerator = Accelerator(config=ARCHITECTURE, backend=backend)
    driver = BatchedInference(
        model,
        INPUT_SHAPE,
        bits=4,
        accelerator=accelerator,
        backend=backend,
        compiled=compiled,
    )
    try:
        result = driver.run(images)
    finally:
        driver.close()
    return result, accelerator, driver


def observables(result, accelerator):
    layers = [
        (
            layer.name,
            layer.stats,
            layer.energy,
            layer.latency.dfg_ns.hex(),
            layer.latency,
            layer.checksum,
            layer.tiles_executed,
            layer.total_ops,
        )
        for layer in result.execution.layers
    ]
    return (
        result.logits.dtype,
        result.logits.tobytes(),
        result.checksum,
        result.execution.total_stats,
        layers,
        accelerator.tile_stats(),
        accelerator.movement_ledger(),
        accelerator.residency,
    )


@pytest.mark.parametrize("drop_output", [False, True], ids=["uniform", "non-uniform"])
def test_group_fold_matches_reference_and_declines(drop_output, monkeypatch):
    model = small_cnn()
    compiled = compiled_cnn(model, drop_output)
    images = np.random.default_rng(7).uniform(0.0, 1.0, size=(3,) + INPUT_SHAPE)

    wave, wave_accelerator, driver = run(model, compiled, images, "batched")
    plans = driver._node_plans.values()
    groups = [group for plan in plans for group in plan.groups]
    assert all(group.wave for group in groups)
    assert max(len(group.tile_indices) for group in groups) == 4
    assert any(group.fold.order is not None for group in groups) == drop_output
    if not drop_output:
        reference_logits = quantized_reference_forward(model, images, bits=4)
        assert np.array_equal(wave.logits, reference_logits)

    reference, reference_accelerator, _ = run(model, compiled, images, "reference")
    monkeypatch.setattr(engine, "execute_program_wave", lambda *args, **kw: None)
    declined, declined_accelerator, _ = run(model, compiled, images, "batched")

    expected = observables(wave, wave_accelerator)
    assert observables(reference, reference_accelerator) == expected
    assert observables(declined, declined_accelerator) == expected


def uint64_sum_tile():
    """``y = a + b`` on 59-bit operands (60-bit sums need ``uint64`` words),
    also reading ``a`` back as ``z``."""
    a = ColumnRegion(column=1, width=59)
    b = ColumnRegion(column=2, width=59)
    dest = ColumnRegion(column=3, width=60)
    program = APProgram(
        instructions=[
            APInstruction(opcode=APOpcode.ADD_OUTOFPLACE, dest=dest, src_a=a, src_b=b)
        ],
        input_columns={"a": a, "b": b},
        output_columns={"y": dest, "z": a},
    )
    return [program], 4


def test_checksum_exact_when_int64_totals_wrap():
    """Outputs near +/-2**59 on 64 rows: per-output row sums wrap int64, and
    the wave checksum still folds them exactly as a per-instance run does."""
    rows = 64
    programs, columns = uint64_sum_tile()
    top = (1 << 58) - 1
    rng = np.random.default_rng(3)
    inputs = [
        [
            {
                "a": sign * (top - rng.integers(0, 8, size=rows)),
                "b": sign * (top - rng.integers(0, 8, size=rows)),
            }
        ]
        for sign in (1, 1, -1)
    ]
    wave = batched.execute_program_wave(programs, inputs, rows, columns)
    assert wave is not None and wave.outputs.dtype == np.int64
    assert not wave.total_is_checksum
    expected = 0
    for instance, instance_inputs in enumerate(inputs):
        values = instance_inputs[0]
        outputs = {"y": values["a"] + values["b"], "z": values["a"]}
        checksum = sum(
            int(np.asarray(outputs[name], dtype=np.int64).sum())
            for name in sorted(outputs)
        )
        _, got, stacked = wave[instance]
        assert got == checksum
        assert np.array_equal(stacked[0], outputs["y"])
        expected += checksum
    assert wave.checksum() == expected
    # The per-output row sums really wrap: their exact total differs.
    exact = sum(
        2 * value[0]["a"].astype(object).sum() + value[0]["b"].astype(object).sum()
        for value in inputs
    )
    assert exact != expected


@pytest.fixture(scope="module")
def vgg9_session():
    model = build_vgg9(width_multiplier=1 / 16, input_size=16, sparsity=0.85, rng=0)
    session = Session(
        model=model,
        input_shape=(3, 16, 16),
        bits=4,
        signed=False,
        backend="batched",
        executor="serial",
    )
    session.compile().deploy()
    yield session
    session.close()


def test_deployed_request_lowers_nothing(vgg9_session, monkeypatch):
    """Deploy built every tile's lowering, schedule and replay plan; a
    request finds them with one lookup per wave and lowers nothing."""
    calls = []
    compile_program_wave = batched.compile_program_wave
    monkeypatch.setattr(
        batched,
        "compile_program_wave",
        lambda *args: calls.append(args) or compile_program_wave(*args),
    )
    waves = []
    execute = engine.execute_program_wave
    monkeypatch.setattr(
        engine,
        "execute_program_wave",
        lambda *args, **kw: waves.append(execute(*args, **kw)) or waves[-1],
    )
    images = np.random.default_rng(5).uniform(0.0, 1.0, size=(2, 3, 16, 16))
    vgg9_session.infer(images)
    assert waves and all(isinstance(wave, batched.WaveBatch) for wave in waves)
    assert calls == []


def test_wave_request_builds_no_per_instance_objects(vgg9_session, monkeypatch):
    """A 96-image request builds no ``InferenceTileResult`` and as many
    ``CAMStats`` objects as a 2-image one: O(tiles), not O(images x tiles)."""
    tile_results = []
    monkeypatch.setattr(
        engine,
        "InferenceTileResult",
        lambda **kw: tile_results.append(kw),
    )
    created = []
    init = CAMStats.__init__

    def counted(self, *args, **kwargs):
        created.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(CAMStats, "__init__", counted)
    rng = np.random.default_rng(6)
    # The session's first request starts its report aggregates.
    vgg9_session.infer(rng.uniform(0.0, 1.0, size=(1, 3, 16, 16)))
    counts = []
    for images in (2, 96):
        created.clear()
        vgg9_session.infer(rng.uniform(0.0, 1.0, size=(images, 3, 16, 16)))
        counts.append(len(created))
    tiles = sum(len(layer.tiles) for layer in vgg9_session.plan.layers)
    assert tile_results == []
    assert counts[0] == counts[1]
    assert counts[1] <= 4 * tiles


def test_residency_accounted_once_per_tile(vgg9_session, monkeypatch):
    """One ``account_tile_dispatch`` call per tile and layer, carrying the
    image count; warm hits on the deployed plan, and on a cold plan the same
    lease and reprogram events, bits and ``accelerator.cold_dispatch``
    instants as one dispatch per (image, tile)."""
    calls = []
    account = Accelerator.account_tile_dispatch

    def counted(self, tile, dispatches=1):
        calls.append(dispatches)
        return account(self, tile, dispatches)

    monkeypatch.setattr(Accelerator, "account_tile_dispatch", counted)
    images = np.random.default_rng(8).uniform(0.0, 1.0, size=(3, 3, 16, 16))
    tiles = [tile for layer in vgg9_session.plan.layers for tile in layer.tiles]

    before = vgg9_session.residency
    vgg9_session.infer(images)
    after = vgg9_session.residency
    assert calls == [3] * len(tiles)
    assert after.warm_hits - before.warm_hits == 3 * len(tiles)
    assert after.lease_events == before.lease_events
    assert after.reprogram_bits == before.reprogram_bits

    calls.clear()
    model = small_cnn()
    accelerator = Accelerator(config=ARCHITECTURE, backend="batched")
    driver = BatchedInference(
        model,
        INPUT_SHAPE,
        bits=4,
        accelerator=accelerator,
        backend="batched",
        compiled=compiled_cnn(model),
    )
    try:
        with telemetry.capture() as tracer:
            driver.run(images[:, :, :8, :8])
    finally:
        driver.close()
    cold = [tile for layer in driver.plan.layers for tile in layer.tiles]
    ledger = accelerator.residency
    assert calls == [3] * len(cold)
    assert ledger.warm_hits == 0
    assert ledger.lease_events == ledger.reprogram_events == 3 * len(cold)
    assert ledger.reprogram_bits == 3 * sum(tile_weight_bits(tile) for tile in cold)
    instants = [
        event for event in tracer.events() if event.name == "accelerator.cold_dispatch"
    ]
    assert len(instants) == 3 * len(cold)


@pytest.mark.parametrize("uniform", [True, False], ids=["uniform", "non-uniform"])
@pytest.mark.parametrize(
    "word, narrow", [(np.int8, np.int16), (np.int16, np.int32)], ids=["int8", "int16"]
)
def test_narrow_fold_exact_at_word_minimum(uniform, word, narrow):
    """The fold sums in the narrowest accumulator that holds ``programs x
    2**(bits - 1)``.  At the most programs it takes, outputs all at the word
    minimum sum to exactly the accumulator's minimum and equal the int64
    fold; one program more takes a wider accumulator."""
    bits = 8 * np.dtype(word).itemsize
    limit = (1 << (8 * np.dtype(narrow).itemsize - 1)) >> (bits - 1)
    for programs, accumulator in ((limit, narrow), (limit + 1, None)):
        # Non-uniform: every other program emits only channel 0, so channel
        # 0 still sums one output of every program.
        names_seq = [
            ("y0", "y1") if uniform or program % 2 == 0 else ("y0",)
            for program in range(programs)
        ]
        channels = np.array(
            [int(name[1:]) for names in names_seq for name in names], dtype=np.intp
        )
        fold = engine._Fold(names_seq, channels)
        chosen = fold.accumulator(np.dtype(word))
        if accumulator is None:
            assert chosen.itemsize > np.dtype(narrow).itemsize
        else:
            assert chosen == np.dtype(accumulator)
        outputs = np.full((len(channels), 3, 2), np.iinfo(word).min, dtype=word)
        expected = np.zeros((2, 3, 2), dtype=np.int64)
        np.add.at(expected, channels, outputs.astype(np.int64))
        if accumulator is not None:
            assert int(expected.min()) == np.iinfo(accumulator).min
        folded = fold(outputs)
        assert folded.dtype == np.int64
        assert np.array_equal(folded, expected)
