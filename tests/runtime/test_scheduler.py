"""Scheduler aggregation, accelerator ledgers and the layer crosscheck."""

import pytest

from repro.arch.accelerator import Accelerator
from repro.arch.interconnect import TransferScope
from repro.cam.stats import CAMStats
from repro.core.compiler import CompilerConfig, compile_model
from repro.errors import ConfigurationError
from repro.perf.model import crosscheck_execution
from repro.runtime import Scheduler, build_execution_plan
from repro.runtime.plan import PlannedLayer, TileProgram, derive_tile_seed


@pytest.fixture
def accelerator(tiny_architecture) -> Accelerator:
    return Accelerator(tiny_architecture)


@pytest.fixture
def plan(small_conv_spec, tiny_architecture, accelerator):
    config = CompilerConfig(activation_bits=4, architecture=tiny_architecture)
    compiled = compile_model([small_conv_spec], config, name="small",
                             emit_programs=True)
    return build_execution_plan(compiled, accelerator=accelerator, base_seed=5)


class TestPlanExecutionShape:
    """PlanExecution mirrors the ModelPerformance surface."""

    def test_model_performance_surface(self, plan, accelerator):
        execution = accelerator.execute_plan(plan)
        assert execution.name == plan.name
        assert execution.energy_uj > 0
        assert execution.latency_ms > 0
        assert execution.energy.total_uj == execution.energy_uj
        assert execution.latency.total_ms == execution.latency_ms
        assert execution.arrays_used == plan.aps_used
        assert 0.0 <= execution.movement_fraction < 1.0
        assert execution.total_ops == sum(
            tile.num_arithmetic_ops for layer in plan.layers for tile in layer.tiles
        )
        layer = execution.layer_by_name(plan.layers[0].name)
        assert layer.stats.search_phases > 0
        with pytest.raises(ConfigurationError):
            execution.layer_by_name("nope")

    def test_layer_aggregation(self, plan, accelerator):
        execution = accelerator.execute_plan(plan)
        layer = execution.layers[0]
        assert layer.tiles_executed == len(plan.layers[0].tiles)
        assert layer.aps_used == plan.layers[0].aps_used
        assert layer.rounds == plan.layers[0].num_rounds
        assert layer.energy_uj > 0
        total = CAMStats()
        for result_layer in execution.layers:
            total = total.merge(result_layer.stats)
        assert execution.total_stats == total


class TestAcceleratorLedgers:
    def test_tile_stats_charged(self, plan, accelerator):
        execution = accelerator.execute_plan(plan)
        ledger = accelerator.tile_stats()
        assert ledger
        assert accelerator.total_stats == execution.total_stats
        accelerator.reset_ledgers()
        assert not accelerator.tile_stats()
        assert accelerator.total_stats == CAMStats()

    def test_adder_tree_movement_charged_for_multi_group_layers(
        self, plan, accelerator
    ):
        # Hand-build a layer with two channel groups on the same row tile so
        # the scheduler must charge one partial-sum merge.
        source = plan.layers[0]
        tile_a = source.tiles[0]
        tile_b = TileProgram(
            address=(0, 1, 0),  # different tile of the same bank
            layer_index=0,
            layer_name=source.name,
            row_tile=tile_a.row_tile,
            channel_group=1,
            round_index=0,
            channel_indices=tile_a.channel_indices,
            programs=tile_a.programs,
            rows=tile_a.rows,
            input_seed=derive_tile_seed(5, 0, tile_a.row_tile, 1),
            activation_bits=tile_a.activation_bits,
        )
        synthetic = plan.__class__(
            name="synthetic",
            architecture=plan.architecture,
            allocation=plan.allocation,
            layers=[
                PlannedLayer(
                    name=source.name,
                    layer_index=0,
                    allocation=source.allocation,
                    tiles=[tile_a, tile_b],
                    out_channels=source.out_channels,
                    accumulator_width=source.accumulator_width,
                    output_positions=source.output_positions,
                )
            ],
            base_seed=5,
        )
        execution = accelerator.execute_plan(synthetic)
        ledger = accelerator.movement_ledger()
        assert TransferScope.INTRA_BANK in ledger
        expected_bits = float(
            source.out_channels * tile_a.rows * source.accumulator_width
        )
        assert ledger[TransferScope.INTRA_BANK].bits == expected_bits
        assert execution.energy.movement_fj > 0
        assert execution.movement_fraction > 0

    def test_no_movement_for_groups_serialized_on_one_ap(self, plan, accelerator):
        # Sequential rounds put later channel groups on the SAME AP; their
        # partial sums accumulate in place, so no interconnect traffic.
        source = plan.layers[0]
        tile_a = source.tiles[0]
        tile_b = TileProgram(
            address=tile_a.address,  # same AP: a later sequential round
            layer_index=0,
            layer_name=source.name,
            row_tile=tile_a.row_tile,
            channel_group=1,
            round_index=1,
            channel_indices=tile_a.channel_indices,
            programs=tile_a.programs,
            rows=tile_a.rows,
            input_seed=derive_tile_seed(5, 0, tile_a.row_tile, 1),
            activation_bits=tile_a.activation_bits,
        )
        synthetic = plan.__class__(
            name="serialized",
            architecture=plan.architecture,
            allocation=plan.allocation,
            layers=[
                PlannedLayer(
                    name=source.name,
                    layer_index=0,
                    allocation=source.allocation,
                    tiles=[tile_a, tile_b],
                    out_channels=source.out_channels,
                    accumulator_width=source.accumulator_width,
                    output_positions=source.output_positions,
                )
            ],
            base_seed=5,
        )
        execution = accelerator.execute_plan(synthetic)
        assert not accelerator.movement_ledger()
        assert execution.energy.movement_fj == 0
        assert execution.movement_fraction == 0


class TestSchedulerBackendSelection:
    def test_backend_defaults_to_accelerator_backend(self, tiny_architecture):
        accelerator = Accelerator(tiny_architecture, backend="reference")
        scheduler = Scheduler(accelerator)
        assert scheduler.backend == "reference"

    def test_backend_override(self, accelerator):
        scheduler = Scheduler(accelerator, backend="reference")
        assert scheduler.backend == "reference"


class TestCrosscheckExecution:
    def test_layer_granularity_crosscheck(self, plan, accelerator):
        execution = accelerator.execute_plan(plan)
        check = crosscheck_execution(plan, execution)
        assert check.consistent, check.describe()
        for layer in check.layers:
            assert layer.search_phases_exact
            assert layer.write_phases_bounded
            assert layer.measured_energy_fj > 0
        assert "consistent" in check.describe()

    def test_crosscheck_detects_divergence(self, plan, accelerator):
        execution = accelerator.execute_plan(plan)
        check = crosscheck_execution(plan, execution)
        broken = check.layers[0].__class__(
            **{**check.layers[0].__dict__, "measured_search_phases": 1}
        )
        assert not broken.search_phases_exact
        check.layers[0] = broken
        assert not check.consistent
        assert "diverges" in check.describe()


class TestSchedulerLifecycle:
    def test_scheduler_close_idempotent(self):
        scheduler = Scheduler(Accelerator(), executor="parallel", workers=2)
        scheduler.close()
        scheduler.close()
        with Scheduler(Accelerator(), executor="serial") as inner:
            assert inner is not None
