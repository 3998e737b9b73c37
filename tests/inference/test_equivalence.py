"""AP dataflow logits vs. the pure-NumPy quantized reference.

The paper's "retaining software accuracy" claim, executed end to end: the
RTM-AP computes exact integers, so the functional dataflow's logits must be
**byte-identical** to the NumPy reference on whole networks - including the
residual shortcuts, strides and pooling stages of the benchmark topologies.
"""

import itertools

import numpy as np
import pytest

from repro.ap.backends.batched import execute_program_wave
from repro.errors import CompilationError
from repro.inference import engine
from repro.inference import BatchedInference, quantized_reference_forward
from repro.perf.model import crosscheck_execution


class TestLogitsMatchReference:
    def test_vgg9_topology_byte_identical(self, serve, vgg9_narrow, images_rng):
        model, input_shape = vgg9_narrow
        images = images_rng.uniform(0.0, 1.0, size=(2,) + input_shape)
        reference = quantized_reference_forward(model, images, bits=4)
        result = serve(model, images, bits=4)
        assert result.logits.shape == (2, 10)
        assert np.array_equal(result.logits, reference)

    def test_resnet18_topology_byte_identical(
        self, serve, resnet18_narrow, images_rng
    ):
        model, input_shape = resnet18_narrow
        images = images_rng.uniform(0.0, 1.0, size=(2,) + input_shape)
        reference = quantized_reference_forward(
            model, images, bits=4, input_shape=input_shape
        )
        result = serve(model, images, bits=4, input_shape=input_shape)
        assert result.logits.shape == (2, 10)
        assert np.array_equal(result.logits, reference)

    def test_8bit_activations(self, serve, tiny_cnn, images_rng):
        model, input_shape = tiny_cnn
        images = images_rng.uniform(0.0, 1.0, size=(1,) + input_shape)
        reference = quantized_reference_forward(model, images, bits=8)
        result = serve(model, images, bits=8)
        assert np.array_equal(result.logits, reference)

    def test_registry_name_entry_point(self, serve, images_rng):
        """A session accepts a registry model name (width-scaled)."""
        images = images_rng.uniform(0.0, 1.0, size=(1, 3, 32, 32))
        result = serve(
            "vgg9", images, bits=4, width=1 / 32, sparsity=0.85, rng=0
        )
        assert result.model == "vgg9"
        assert result.logits.shape == (1, 10)

    def test_single_unbatched_image(self, serve, tiny_cnn, images_rng):
        model, input_shape = tiny_cnn
        image = images_rng.uniform(0.0, 1.0, size=input_shape)
        result = serve(model, image, bits=4)
        assert result.images == 1
        assert result.logits.shape == (1, 10)


class TestBatchedExecution:
    def test_batch_equals_per_image(self, serve, tiny_cnn, images_rng):
        """Per-image quantization makes the batch a set of independent streams."""
        model, input_shape = tiny_cnn
        images = images_rng.uniform(0.0, 1.0, size=(3,) + input_shape)
        batched = serve(model, images, bits=4)
        one_by_one = np.concatenate(
            [serve(model, images[i], bits=4).logits for i in range(3)]
        )
        assert np.array_equal(batched.logits, one_by_one)

    def test_micro_batching_byte_identical(self, serve, tiny_cnn, images_rng):
        model, input_shape = tiny_cnn
        images = images_rng.uniform(0.0, 1.0, size=(4,) + input_shape)
        whole = serve(model, images, bits=4)
        chunked = serve(model, images, bits=4, batch=2)
        assert np.array_equal(whole.logits, chunked.logits)
        assert whole.execution.total_stats == chunked.execution.total_stats
        assert whole.checksum == chunked.checksum

    def test_counters_scale_with_batch(self, serve, tiny_cnn, images_rng):
        """Search phases are data-independent: N images charge exactly N x."""
        model, input_shape = tiny_cnn
        one = serve(
            model, images_rng.uniform(0.0, 1.0, size=(1,) + input_shape), bits=4
        )
        three = serve(
            model, images_rng.uniform(0.0, 1.0, size=(3,) + input_shape), bits=4
        )
        assert (
            three.execution.total_stats.search_phases
            == 3 * one.execution.total_stats.search_phases
        )


class TestBatchedWaveOnTopologies:
    """The mega-kernel (``batched``) backend on whole benchmark topologies.

    ``tests/inference/test_determinism.py`` pins the three-way backend matrix
    on the tiny CNN; these runs add the benchmark topologies - strides,
    residual shortcuts and pooling stages - where the layer waves span many
    heterogeneous tiles per layer, and sweep the batched backend across
    executors against one vectorized serial baseline.
    """

    @staticmethod
    def _run(model, input_shape, images, **kwargs):
        driver = BatchedInference(model, input_shape, bits=4, **kwargs)
        try:
            return driver.run(images)
        finally:
            driver.close()

    @pytest.mark.parametrize(
        "fixture_name", ["vgg9_narrow", "resnet18_narrow"]
    )
    def test_batched_matches_vectorized_across_modes(
        self, request, fixture_name, images_rng
    ):
        model, input_shape = request.getfixturevalue(fixture_name)
        images = images_rng.uniform(0.0, 1.0, size=(2,) + input_shape)
        baseline = self._run(model, input_shape, images, backend="vectorized")
        modes = [
            {"executor": "serial"},
            {"executor": "thread", "workers": 2},
        ]
        for mode in modes:
            batched = self._run(
                model, input_shape, images, backend="batched", **mode
            )
            label = f"batched {mode}"
            assert np.array_equal(batched.logits, baseline.logits), label
            assert batched.checksum == baseline.checksum, label
            assert (
                batched.execution.total_stats == baseline.execution.total_stats
            ), label
            for left, right in zip(
                batched.execution.layers, baseline.execution.layers
            ):
                assert left.stats == right.stats, (
                    f"{label}: layer {left.name} diverged"
                )


class TestHostDataflowModes:
    """Staged waves vs per-(image, tile) dispatch: one dataflow, two routes.

    Every layer stages its operands once; the ``batched`` backend executes
    each tile group as one wave, and every instance no wave takes - all of
    them on ``vectorized``, those of a declined wave on ``batched`` - goes
    to the executor indexed out of the same staged views.  Every mix of the
    two routes must produce byte-identical logits, checksums and per-layer
    CAMStats on every benchmark topology and executor.
    """

    @staticmethod
    def _run(model, input_shape, images, backend, **kwargs):
        driver = BatchedInference(
            model, input_shape, bits=4, backend=backend, **kwargs
        )
        try:
            return driver.run(images)
        finally:
            driver.close()

    @pytest.mark.parametrize(
        "fixture_name", ["tiny_cnn", "vgg9_narrow", "resnet18_narrow"]
    )
    def test_wave_matches_per_image(
        self, request, fixture_name, images_rng, monkeypatch
    ):
        model, input_shape = request.getfixturevalue(fixture_name)
        images = images_rng.uniform(0.0, 1.0, size=(3,) + input_shape)
        per_instance = self._run(model, input_shape, images, "vectorized")
        runs = {
            f"wave {mode}": self._run(
                model, input_shape, images, "batched", **mode
            )
            for mode in ({"executor": "serial"}, {"executor": "thread", "workers": 2})
        }
        calls = itertools.count()

        def every_other_declines(*args, **kwargs):
            if next(calls) % 2:
                return None
            return execute_program_wave(*args, **kwargs)

        monkeypatch.setattr(engine, "execute_program_wave", every_other_declines)
        runs["half declined"] = self._run(model, input_shape, images, "batched")
        assert next(calls) > 2
        for label, wave in runs.items():
            assert np.array_equal(wave.logits, per_instance.logits), label
            assert wave.checksum == per_instance.checksum, label
            assert (
                wave.execution.total_stats == per_instance.execution.total_stats
            ), label
            for left, right in zip(
                wave.execution.layers, per_instance.execution.layers
            ):
                assert left.stats == right.stats, (
                    f"{label}: layer {left.name} diverged"
                )


class TestRuntimeIntegration:
    def test_cost_model_crosscheck(self, tiny_cnn, images_rng):
        model, input_shape = tiny_cnn
        images = images_rng.uniform(0.0, 1.0, size=(2,) + input_shape)
        driver = BatchedInference(model, input_shape, bits=4, name="tinycnn")
        try:
            result = driver.run(images)
            check = crosscheck_execution(
                driver.plan, result.execution, images=result.images
            )
        finally:
            driver.close()
        assert check.consistent, check.describe()

    def test_accelerator_ledgers_populated(self, tiny_cnn, images_rng):
        model, input_shape = tiny_cnn
        images = images_rng.uniform(0.0, 1.0, size=(1,) + input_shape)
        driver = BatchedInference(model, input_shape, bits=4)
        try:
            result = driver.run(images)
            tile_stats = driver.accelerator.tile_stats()
            movement = driver.accelerator.movement_ledger()
        finally:
            driver.close()
        total = driver.accelerator.total_stats
        assert tile_stats
        assert total == result.execution.total_stats
        # Activation hand-off traffic is metered on the interconnect ledger.
        assert sum(cost.bits for cost in movement.values()) > 0
        assert result.store.total_activation_bits > 0

    def test_activation_store_buffers(self, serve, tiny_cnn, images_rng):
        model, input_shape = tiny_cnn
        images = images_rng.uniform(0.0, 1.0, size=(2,) + input_shape)
        result = serve(model, images, bits=4, keep_activations=True)
        layers = result.store.layers()
        assert len(layers) == 3  # two convs + fc
        for entry in layers:
            assert entry.steps.shape == (2,)
            assert entry.input_codes is not None
            assert entry.output_int is not None
            assert entry.input_codes.max() <= 15
            assert entry.input_codes.min() >= 0

    def test_each_run_keeps_its_own_store(self, tiny_cnn, images_rng):
        """A second run must not mutate the first result's activation store."""
        model, input_shape = tiny_cnn
        driver = BatchedInference(model, input_shape, bits=4)
        try:
            first = driver.run(images_rng.uniform(0.0, 1.0, size=(2,) + input_shape))
            first_bits = first.store.total_activation_bits
            first_steps = {e.name: e.steps.copy() for e in first.store.layers()}
            second = driver.run(images_rng.uniform(0.0, 1.0, size=(1,) + input_shape))
        finally:
            driver.close()
        assert first.store is not second.store
        assert first.store.total_activation_bits == first_bits
        for entry in first.store.layers():
            assert np.array_equal(entry.steps, first_steps[entry.name])
            assert entry.steps.shape == (2,)

    def test_rejects_slice_sampled_compilation(self, tiny_cnn):
        """Functional inference needs every input-channel slice."""
        from repro.core.compiler import CompilerConfig, compile_model
        from repro.inference.dataflow import DataflowGraph
        from repro.nn.stats import model_layer_specs
        from repro.runtime.plan import build_execution_plan

        model, input_shape = tiny_cnn
        specs = model_layer_specs(model, input_shape)
        compiled = compile_model(
            specs,
            CompilerConfig(activation_bits=4, max_slices_per_layer=1),
            emit_programs=True,
        )
        plan = build_execution_plan(compiled)
        with pytest.raises(CompilationError, match="slice sampling"):
            DataflowGraph.build(model, input_shape, compiled, plan)

    def test_rejects_mismatched_input_shape(self, tiny_cnn, images_rng):
        from repro.errors import ModelDefinitionError

        model, input_shape = tiny_cnn
        driver = BatchedInference(model, input_shape, bits=4)
        try:
            with pytest.raises(ModelDefinitionError):
                driver.run(images_rng.uniform(0.0, 1.0, size=(1, 3, 9, 9)))
        finally:
            driver.close()
