"""Deploy-planned operand gather: one ``take`` per lockstep block.

At deploy the engine lowers an image of feature ids through the lazy path
(``lower_batch_rows`` and ``_stage_group``) and keeps each block's loads
of it as gather indices; a request gathers its loads straight from the
layer's codes.  These tests hold the gather to the lazy path it replaces:
on generated conv and fc geometries every block's loads are the same
arrays, and logits, ``CAMStats`` and checksums equal a backend that stages
every instance lazily.  They also gate that warm benchmark requests never
lower or stage, and that the per-request code range check runs only where
deploy could not prove it.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.ap.backends import batched
from repro.arch.accelerator import Accelerator
from repro.arch.config import APConfig, ArchitectureConfig
from repro.core.compiler import CompilerConfig, compile_model
from repro.errors import ReproError
from repro.inference import BatchedInference, engine, quantized_reference_forward
from repro.inference.activations import lower_batch_rows
from repro.nn.layers import Flatten, ReLU, TernaryConv2d, TernaryLinear
from repro.nn.model import Sequential
from repro.nn.models.resnet import build_resnet18
from repro.nn.models.vgg import build_vgg9
from repro.nn.stats import model_layer_specs
from repro.rtm.timing import DEFAULT_RTM_TECHNOLOGY
from repro.session import Session

#: 16-row APs: a layer of more than 16 output positions splits into row
#: tiles that share their programs, so its group spans several tiles.
ARCHITECTURE = ArchitectureConfig(ap=APConfig(rows=16, columns=64), num_banks=4)


def conv_fc(in_channels, out_channels, kernel, stride, padding, size, seed):
    """One conv layer and one fc layer on ``(in_channels, size, size)``."""
    conv = TernaryConv2d(
        in_channels,
        out_channels,
        kernel_size=kernel,
        stride=stride,
        padding=padding,
        sparsity=0.5,
        rng=seed,
    )
    side = (size + 2 * padding - kernel) // stride + 1
    fc = TernaryLinear(out_channels * side * side, 4, sparsity=0.5, rng=seed + 1)
    return Sequential([conv, ReLU(), Flatten(), fc], name="gathernet")


def run(model, input_shape, images, backend, bits=4, compiled_bits=4):
    """One request on a fresh accelerator, with activations kept."""
    compiled = compile_model(
        model_layer_specs(model, input_shape),
        CompilerConfig(activation_bits=compiled_bits, architecture=ARCHITECTURE),
        name="gathernet",
        emit_programs=True,
    )
    driver = BatchedInference(
        model,
        input_shape,
        bits=bits,
        accelerator=Accelerator(config=ARCHITECTURE, backend=backend),
        backend=backend,
        compiled=compiled,
        keep_activations=True,
    )
    try:
        return driver.run(images), driver
    finally:
        driver.close()


def observables(result):
    return (
        result.logits.tobytes(),
        result.checksum,
        result.execution.total_stats,
        [(layer.name, layer.stats, layer.checksum) for layer in result.execution.layers],
    )


def lazy_loads(driver, node, group, codes):
    """A group's block loads staged the lazy way, in the kernel's form."""
    columns = driver.plan.lease_columns
    sequence = batched._sequence(
        group.tile.programs,
        group.rows,
        columns,
        DEFAULT_RTM_TECHNOLOGY.domains_per_nanowire,
        0,
        False,
    )
    lowered = lower_batch_rows(codes, node.kernel_size, node.stride, node.padding)
    staged = engine._stage_group(group, lowered, codes.shape[0])
    loads = batched._word_loads(sequence.schedule, sequence.compiled, staged, group.rows)
    return sequence.schedule, loads


@settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    kernel=st.sampled_from([1, 3]),
    stride=st.sampled_from([1, 2]),
    padding=st.sampled_from([0, 1]),
    size=st.integers(4, 8),
    in_channels=st.integers(1, 3),
    out_channels=st.integers(2, 4),
    images=st.integers(1, 5),
    budget=st.sampled_from([1, 12_000, 40_000, 1 << 23]),
    seed=st.integers(0, 1000),
)
def test_gather_matches_lazy_staging(
    monkeypatch,
    kernel,
    stride,
    padding,
    size,
    in_channels,
    out_channels,
    images,
    budget,
    seed,
):
    """Every block's gathered loads equal the lazily staged ones, and the
    gathered waves reproduce the logits, counters and checksums of a run
    whose waves all decline, which stages every instance lazily."""
    monkeypatch.setattr(batched, "_WAVE_CHUNK_BYTES", budget)
    model = conv_fc(in_channels, out_channels, kernel, stride, padding, size, seed)
    input_shape = (in_channels, size, size)
    x = np.random.default_rng(seed).uniform(0.0, 1.0, size=(images,) + input_shape)

    result, driver = run(model, input_shape, x, "batched")
    with monkeypatch.context() as patch:
        patch.setattr(engine, "execute_program_wave", lambda *a, **k: None)
        lazy, _ = run(model, input_shape, x, "batched")
    assert observables(result) == observables(lazy)
    assert np.array_equal(
        result.logits, quantized_reference_forward(model, x, bits=4, signed=False)
    )

    for node in driver.graph.nodes:
        plan = driver._node_plans[node.name]
        assert plan.proven
        codes = result.store[node.name].input_codes
        for group in plan.groups:
            assert group.wave
            tiles = len(group.tile_indices)
            gather = batched.WaveGather(
                engine._word_codes(codes, group.word), group.index, tiles, group.rows
            )
            schedule, expected = lazy_loads(driver, node, group, codes)
            got = batched._gathered_loads(schedule, gather)
            assert schedule.word == group.word
            assert len(got) == len(expected) == len(schedule.blocks)
            for gathered, staged in zip(got, expected):
                assert gathered.dtype == staged.dtype
                assert np.array_equal(gathered, staged)


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
def test_warm_request_neither_lowers_nor_stages(monkeypatch, build, input_shape):
    """A warm request gathers every wave's loads from the deploy-planned
    indices: ``lower_batch_rows``, ``_stage_group`` and the per-request
    code range check are never called, and the logits still equal those of
    a session whose waves all decline, which lowers and stages every
    instance."""
    model = build()
    image = np.random.default_rng(4).uniform(0.0, 1.0, size=(1,) + input_shape)
    logits = {}
    for mode in ("wave", "declined"):
        if mode == "declined":
            monkeypatch.setattr(engine, "execute_program_wave", lambda *a, **k: None)
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
            session.infer(image)
            calls = []
            for name in ("lower_batch_rows", "_stage_group", "_codes_fit"):
                original = getattr(engine, name)
                monkeypatch.setattr(
                    engine,
                    name,
                    lambda *args, _name=name, _original=original, **kw: (
                        calls.append(_name) or _original(*args, **kw)
                    ),
                )
            logits[mode] = session.infer(image).logits
            monkeypatch.undo()
        finally:
            session.close()
        if mode == "wave":
            assert calls == []
        else:
            assert "lower_batch_rows" in calls and "_stage_group" in calls
    assert np.array_equal(logits["wave"], logits["declined"])


def test_unproven_range_checks_codes_and_declines(monkeypatch):
    """Programs compiled for 4-bit unsigned codes load 5-bit signed
    operands.  Served with a 5-bit quantizer, whose codes reach 31, the
    deploy proof fails: every request checks its codes, runs a wave where
    they fit, and otherwise sends the layer to the per-instance path, which
    rejects the too-wide codes."""
    model = conv_fc(2, 3, 3, 1, 1, 4, seed=11)
    input_shape = (2, 4, 4)
    small = np.random.default_rng(12).uniform(0.0, 1.0, size=(2,) + input_shape)

    proven, driver = run(model, input_shape, small, "batched")
    assert all(plan.proven for plan in driver._node_plans.values())

    checks = []
    codes_fit = engine._codes_fit
    monkeypatch.setattr(
        engine,
        "_codes_fit",
        lambda codes, width: checks.append(width) or codes_fit(codes, width),
    )
    waves = []
    execute = engine.execute_program_wave
    monkeypatch.setattr(
        engine,
        "execute_program_wave",
        lambda *args, **kw: waves.append(args[0]) or execute(*args, **kw),
    )
    fitting, driver = run(model, input_shape, small, "batched", bits=5)
    plans = list(driver._node_plans.values())
    assert not any(plan.proven for plan in plans)
    assert len(checks) == len(plans)
    assert len(waves) == sum(len(plan.groups) for plan in plans)
    assert max(int(entry.input_codes.max()) for entry in fitting.store.layers()) <= 15
    assert np.array_equal(
        fitting.logits, quantized_reference_forward(model, small, bits=5, signed=False)
    )

    # One bright pixel against a dark image: the quantizer clips it to 31.
    wide = np.full((1,) + input_shape, 0.01)
    wide[0, 0, 0, 0] = 1.0
    checks.clear()
    waves.clear()
    with pytest.raises(ReproError):
        run(model, input_shape, wide, "batched", bits=5)
    assert checks and waves == []
