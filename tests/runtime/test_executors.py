"""Executor equivalence: serial / parallel, reference / batched."""

import numpy as np
import pytest

from repro.arch.accelerator import Accelerator
from repro.core.compiler import CompilerConfig, compile_model
from repro.errors import ConfigurationError
from repro.runtime import build_execution_plan
from repro.runtime.executors import (
    ParallelExecutor,
    SerialExecutor,
    available_executors,
    generate_tile_inputs,
    resolve_executor,
)


@pytest.fixture(scope="module")
def small_plan(tiny_architecture_module):
    """A compiled + planned two-layer model shared by the equivalence tests."""
    from repro.nn.stats import ConvLayerSpec
    from repro.nn.ternary import synthetic_ternary_weights

    specs = [
        ConvLayerSpec(
            name="conv_a",
            weights=synthetic_ternary_weights((6, 3, 3, 3), 0.5, rng=11),
            input_height=8,
            input_width=8,
            padding=1,
        ),
        ConvLayerSpec(
            name="conv_b",
            weights=synthetic_ternary_weights((4, 6, 3, 3), 0.5, rng=12),
            input_height=8,
            input_width=8,
            padding=1,
        ),
    ]
    config = CompilerConfig(activation_bits=4, architecture=tiny_architecture_module)
    compiled = compile_model(specs, config, name="pair", emit_programs=True)
    accelerator = Accelerator(tiny_architecture_module)
    return build_execution_plan(compiled, accelerator=accelerator, base_seed=42)


@pytest.fixture(scope="module")
def tiny_architecture_module():
    from repro.arch.config import APConfig, ArchitectureConfig
    from repro.rtm.timing import RTMTechnology

    return ArchitectureConfig(
        ap=APConfig(rows=64, columns=64, reserved_columns=2),
        aps_per_tile=2,
        tiles_per_bank=2,
        num_banks=1,
        technology=RTMTechnology(domains_per_nanowire=64),
        activation_bits=4,
    )


def _execute(plan, architecture, executor, workers=None, backend="batched"):
    accelerator = Accelerator(architecture, backend=backend)
    return accelerator.execute_plan(plan, executor=executor, workers=workers)


class TestRegistry:
    def test_available_executors(self):
        assert available_executors() == ["parallel", "serial"]

    def test_resolve_by_name_class_and_instance(self):
        assert isinstance(resolve_executor("serial"), SerialExecutor)
        assert isinstance(resolve_executor(ParallelExecutor, workers=2), ParallelExecutor)
        instance = SerialExecutor()
        assert resolve_executor(instance) is instance

    def test_unknown_executor_rejected(self):
        with pytest.raises(ConfigurationError):
            resolve_executor("vectorized")
        with pytest.raises(ConfigurationError):
            resolve_executor(3.14)

    def test_removed_thread_executor_rejected(self):
        """The ``thread`` pool is gone; its name lists the survivors."""
        with pytest.raises(ConfigurationError, match="available: parallel, serial"):
            resolve_executor("thread", workers=2)

    def test_instance_with_conflicting_workers_rejected(self):
        instance = ParallelExecutor(workers=2)
        with pytest.raises(ConfigurationError):
            resolve_executor(instance, workers=8)
        assert resolve_executor(instance, workers=2) is instance
        assert resolve_executor(instance) is instance

    def test_worker_defaults(self):
        assert SerialExecutor(workers=8).workers == 1
        assert ParallelExecutor(workers=3).workers == 3
        assert ParallelExecutor(workers=None).workers >= 1


class TestDeterministicInputs:
    def test_same_seed_same_inputs(self, small_plan):
        tile = small_plan.layers[0].tiles[0]
        program = tile.programs[0]
        first = generate_tile_inputs(program, tile.rows, tile.input_seed, 4, False)
        second = generate_tile_inputs(program, tile.rows, tile.input_seed, 4, False)
        assert set(first) == set(program.input_columns)
        for name in first:
            assert np.array_equal(first[name], second[name])
            assert first[name].min() >= 0
            assert first[name].max() < 16

    def test_signed_range(self, small_plan):
        tile = small_plan.layers[0].tiles[0]
        program = tile.programs[0]
        inputs = generate_tile_inputs(program, tile.rows, 7, 4, True)
        for values in inputs.values():
            assert values.min() >= -8
            assert values.max() < 8


class TestExecutorEquivalence:
    """The acceptance contract: byte-identical aggregated CAMStats."""

    def test_serial_vs_parallel(self, small_plan, tiny_architecture_module):
        serial = _execute(small_plan, tiny_architecture_module, "serial")
        parallel = _execute(small_plan, tiny_architecture_module, "parallel", workers=2)
        assert serial.total_stats == parallel.total_stats
        assert serial.checksum == parallel.checksum
        for left, right in zip(serial.layers, parallel.layers):
            assert left.stats == right.stats
            assert left.checksum == right.checksum

    def test_reference_vs_batched(self, small_plan, tiny_architecture_module):
        batched = _execute(small_plan, tiny_architecture_module, "serial",
                           backend="batched")
        reference = _execute(small_plan, tiny_architecture_module, "serial",
                             backend="reference")
        assert batched.total_stats == reference.total_stats
        assert batched.checksum == reference.checksum

    def test_repeated_runs_identical(self, small_plan, tiny_architecture_module):
        first = _execute(small_plan, tiny_architecture_module, "serial")
        second = _execute(small_plan, tiny_architecture_module, "serial")
        assert first.total_stats == second.total_stats
        assert first.checksum == second.checksum

    def test_results_preserve_tile_order(self, small_plan, tiny_architecture_module):
        executor = resolve_executor("parallel", workers=2)
        try:
            tiles = small_plan.layers[0].tiles
            results = executor.run(
                tiles,
                small_plan.required_columns,
                backend="batched",
                technology=tiny_architecture_module.technology,
            )
            assert [result.tile_index for result in results] == list(range(len(tiles)))
            assert [result.address for result in results] == [
                tuple(tile.address) for tile in tiles
            ]
        finally:
            executor.close()


class TestSubmitTasks:
    """``submit_tasks`` runs in the calling thread and returns settled futures."""

    def test_serial_submit_returns_settled_futures(self):
        executor = SerialExecutor()
        futures = executor.submit_tasks(lambda p: p * 2, [1, 2, 3])
        assert all(future.done() for future in futures)
        assert [future.result() for future in futures] == [2, 4, 6]

    def test_serial_submit_captures_exceptions(self):
        executor = SerialExecutor()

        def work(payload):
            raise RuntimeError("bad payload")

        (future,) = executor.submit_tasks(work, [1])
        assert future.done()
        with pytest.raises(RuntimeError, match="bad payload"):
            future.result()

    @pytest.mark.parametrize("executor_type", [ParallelExecutor])
    def test_pool_executors_submit_without_a_pool(self, executor_type):
        executor = executor_type(workers=2)
        futures = executor.submit_tasks(lambda p: p + 1, [1, 2])
        assert [future.result() for future in futures] == [2, 3]
        assert executor._pool is None
        executor.close()
