"""Tests for execution-plan construction (compile + allocate -> tiles)."""

import pytest

from repro.arch.accelerator import Accelerator
from repro.arch.config import APConfig, ArchitectureConfig
from repro.core.compiler import CompilerConfig, compile_model
from repro.errors import CapacityError, CompilationError
from repro.rtm.timing import RTMTechnology
from repro.runtime import build_execution_plan, derive_tile_seed


@pytest.fixture
def tiny_accelerator(tiny_architecture) -> Accelerator:
    return Accelerator(tiny_architecture)


@pytest.fixture
def compiled_small(small_conv_spec, tiny_architecture):
    config = CompilerConfig(activation_bits=4, architecture=tiny_architecture)
    return compile_model([small_conv_spec], config, name="small", emit_programs=True)


class TestBuildExecutionPlan:
    def test_requires_emitted_programs(self, small_conv_spec, tiny_accelerator,
                                       tiny_architecture):
        config = CompilerConfig(activation_bits=4, architecture=tiny_architecture)
        compiled = compile_model([small_conv_spec], config, name="small")
        with pytest.raises(CompilationError):
            build_execution_plan(compiled, accelerator=tiny_accelerator)

    def test_plan_shape(self, compiled_small, tiny_accelerator):
        plan = build_execution_plan(compiled_small, accelerator=tiny_accelerator)
        assert len(plan.layers) == 1
        layer = plan.layers[0]
        mapping = compiled_small.layers[0].mapping
        groups_present = min(len(compiled_small.layers[0].slices),
                             mapping.channel_groups)
        assert len(layer.tiles) == mapping.row_tiles * groups_present
        assert plan.num_tiles == len(layer.tiles)
        assert plan.num_instructions > 0
        assert plan.required_columns > 1
        assert "tile programs" in plan.describe()

    def test_addresses_are_valid_and_distinct_within_round(
        self, compiled_small, tiny_accelerator
    ):
        plan = build_execution_plan(compiled_small, accelerator=tiny_accelerator)
        for layer in plan.layers:
            for round_index, tiles in layer.tiles_by_round().items():
                addresses = [tile.address for tile in tiles]
                assert len(set(addresses)) == len(addresses)
                for address in addresses:
                    tiny_accelerator.validate_address(address)

    def test_every_tile_has_programs_and_rows(self, compiled_small, tiny_accelerator):
        plan = build_execution_plan(compiled_small, accelerator=tiny_accelerator)
        mapping = compiled_small.layers[0].mapping
        for tile in plan.layers[0].tiles:
            assert tile.programs
            assert 0 < tile.rows <= mapping.rows_per_ap
            assert tile.num_instructions >= tile.num_arithmetic_ops > 0

    def test_partial_last_row_tile(self, small_conv_spec):
        # 24-row APs over 64 output positions: 3 tiles, the last with 16 rows.
        architecture = ArchitectureConfig(
            ap=APConfig(rows=24, columns=64, reserved_columns=2),
            aps_per_tile=4,
            tiles_per_bank=2,
            num_banks=1,
            technology=RTMTechnology(domains_per_nanowire=64),
            activation_bits=4,
        )
        config = CompilerConfig(activation_bits=4, architecture=architecture)
        compiled = compile_model([small_conv_spec], config, name="small",
                                 emit_programs=True)
        plan = build_execution_plan(compiled, accelerator=Accelerator(architecture))
        mapping = compiled.layers[0].mapping
        assert mapping.row_tiles == 3
        rows_by_tile = {tile.row_tile: tile.rows for tile in plan.layers[0].tiles}
        assert rows_by_tile[0] == 24
        assert rows_by_tile[2] == mapping.rows_used_in_last_tile == 16

    def test_capacity_error_when_accelerator_too_small(self, small_conv_spec):
        architecture = ArchitectureConfig(
            ap=APConfig(rows=16, columns=64, reserved_columns=2),
            aps_per_tile=1,
            tiles_per_bank=1,
            num_banks=1,
            technology=RTMTechnology(domains_per_nanowire=64),
            activation_bits=4,
        )
        config = CompilerConfig(activation_bits=4, architecture=architecture)
        compiled = compile_model([small_conv_spec], config, name="small",
                                 emit_programs=True)
        # 64 output positions on 16-row APs need 4 row tiles but 1 AP exists.
        with pytest.raises(CapacityError):
            build_execution_plan(compiled, accelerator=Accelerator(architecture))

    def test_capacity_error_when_programs_exceed_columns(self, compiled_small):
        # Compiled against 64-column APs, executed on 8-column hardware: the
        # plan must refuse instead of silently simulating wider CAMs.
        narrow = ArchitectureConfig(
            ap=APConfig(rows=64, columns=8, reserved_columns=2),
            aps_per_tile=2,
            tiles_per_bank=2,
            num_banks=1,
            technology=RTMTechnology(domains_per_nanowire=64),
            activation_bits=4,
        )
        with pytest.raises(CapacityError):
            build_execution_plan(compiled_small, accelerator=Accelerator(narrow))

    def test_sampled_compilation_records_scale(self, small_conv_spec,
                                               tiny_architecture, tiny_accelerator):
        config = CompilerConfig(
            activation_bits=4,
            architecture=tiny_architecture,
            max_slices_per_layer=2,
        )
        compiled = compile_model([small_conv_spec], config, name="small",
                                 emit_programs=True)
        assert len(compiled.layers[0].slices) == 2
        plan = build_execution_plan(compiled, accelerator=tiny_accelerator)
        assert plan.layers[0].scale_factor == pytest.approx(
            small_conv_spec.in_channels / 2
        )


class TestTileSeeds:
    def test_seeds_are_deterministic(self):
        assert derive_tile_seed(0, 1, 2, 3) == derive_tile_seed(0, 1, 2, 3)

    def test_seeds_differ_across_coordinates(self):
        seeds = {
            derive_tile_seed(base, layer, row, group)
            for base in (0, 1)
            for layer in range(3)
            for row in range(3)
            for group in range(3)
        }
        assert len(seeds) == 2 * 3 * 3 * 3

    def test_plan_base_seed_changes_inputs(self, compiled_small, tiny_accelerator):
        plan_a = build_execution_plan(compiled_small, accelerator=tiny_accelerator,
                                      base_seed=0)
        plan_b = build_execution_plan(compiled_small, accelerator=tiny_accelerator,
                                      base_seed=1)
        seeds_a = [tile.input_seed for tile in plan_a.layers[0].tiles]
        seeds_b = [tile.input_seed for tile in plan_b.layers[0].tiles]
        assert seeds_a != seeds_b


class TestResidentCapacityReporting:
    """CapacityError messages must let users auto-size resident deploys."""

    def _minimal_pipeline_model(self):
        from repro.nn.layers import ReLU, TernaryLinear
        from repro.nn.model import Sequential

        model = Sequential(
            [
                TernaryLinear(6, 5, sparsity=0.5, rng=1),
                ReLU(),
                TernaryLinear(5, 4, sparsity=0.5, rng=2),
                ReLU(),
                TernaryLinear(4, 3, sparsity=0.5, rng=3),
            ],
            name="minimal-pipeline",
        )
        return model, (6,)

    def _compile(self, model, shape):
        from repro.nn.stats import model_layer_specs

        specs = model_layer_specs(model, shape)
        return compile_model(
            specs,
            CompilerConfig(activation_bits=4),
            name="minimal-pipeline",
            emit_programs=True,
        )

    def test_error_reports_resident_aps_required(self):
        from repro.runtime import resident_aps_required

        model, shape = self._minimal_pipeline_model()
        compiled = self._compile(model, shape)
        required = resident_aps_required(compiled)
        assert required == len(compiled.layers)  # 1 AP per layer
        arch = ArchitectureConfig(
            aps_per_tile=required - 1, tiles_per_bank=1, num_banks=1
        )
        with pytest.raises(CapacityError) as excinfo:
            build_execution_plan(
                compiled, accelerator=Accelerator(arch), placement="resident"
            )
        message = str(excinfo.value)
        assert f"resident_aps_required={required}" in message
        assert f"with_total_aps({required})" in message
        # Machine-readable: auto-sizing needs no message parsing.
        assert excinfo.value.resident_aps_required == required

    def test_one_ap_per_layer_minimal_pipeline(self):
        """The smallest possible pipeline: every stage is exactly one AP."""
        import numpy as np

        from repro.inference.engine import BatchedInference
        from repro.inference.reference import quantized_reference_forward
        from repro.runtime import resident_aps_required

        model, shape = self._minimal_pipeline_model()
        compiled = self._compile(model, shape)
        required = resident_aps_required(compiled)
        arch = ArchitectureConfig(
            aps_per_tile=required, tiles_per_bank=1, num_banks=1
        )
        accelerator = Accelerator(arch)
        plan = build_execution_plan(
            compiled, accelerator=accelerator, placement="resident"
        )
        addresses = set()
        for layer in plan.layers:
            layer_addresses = {tuple(tile.address) for tile in layer.tiles}
            assert len(layer_addresses) == 1  # one AP per stage
            addresses |= layer_addresses
        assert len(addresses) == required  # stages are disjoint
        accelerator.deploy_plan(plan)

        images = np.random.default_rng(11).normal(size=(3,) + shape)
        engine = BatchedInference(
            model,
            shape,
            bits=4,
            accelerator=accelerator,
            compiled=compiled,
            plan=plan,
        )
        try:
            warm_before = accelerator.residency
            result = engine.run(images)
            warm_after = accelerator.residency
        finally:
            engine.close()
        reference = quantized_reference_forward(
            model, images, input_shape=shape, bits=4
        )
        assert np.array_equal(result.logits, reference)
        assert warm_after.lease_events == warm_before.lease_events
        assert warm_after.reprogram_events == warm_before.reprogram_events
