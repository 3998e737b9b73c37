"""Tests for layer- and model-level compilation."""

import numpy as np
import pytest

from repro.core.compiler import (
    CompiledModel,
    CompilerConfig,
    compile_layer,
    compile_model,
)
from repro.core.frontend import specs_for_network
from repro.errors import CompilationError, ConfigurationError
from repro.nn.stats import ConvLayerSpec
from repro.nn.ternary import synthetic_ternary_weights


def make_spec(cout=16, cin=8, k=3, size=8, sparsity=0.6, name="layer", seed=0):
    weights = synthetic_ternary_weights((cout, cin, k, k), sparsity, rng=seed)
    return ConvLayerSpec(name, weights, size, size, 1, 1)


class TestCompilerConfig:
    def test_configuration_names(self):
        assert CompilerConfig(enable_cse=True).configuration_name == "unroll+CSE"
        assert CompilerConfig(enable_cse=False).configuration_name == "unroll"

    def test_effective_architecture_propagates_bits(self):
        config = CompilerConfig(activation_bits=8)
        assert config.effective_architecture.activation_bits == 8

    def test_invalid_values(self):
        with pytest.raises(Exception):
            CompilerConfig(activation_bits=0)
        with pytest.raises(Exception):
            CompilerConfig(max_slices_per_layer=0)


class TestCompileLayer:
    def test_unroll_ops_equal_nonzeros(self):
        spec = make_spec()
        layer = compile_layer(spec, CompilerConfig(enable_cse=False))
        assert layer.total_ops == spec.nonzero_weights
        assert layer.unrolled_ops == spec.nonzero_weights

    def test_cse_reduces_ops(self):
        spec = make_spec(cout=64, cin=16, sparsity=0.5)
        cse = compile_layer(spec, CompilerConfig(enable_cse=True))
        unroll = compile_layer(spec, CompilerConfig(enable_cse=False))
        assert cse.total_ops < unroll.total_ops
        assert cse.cse_definitions > 0

    def test_histogram_counts_dfg_ops(self):
        spec = make_spec()
        layer = compile_layer(spec, CompilerConfig(enable_cse=True))
        assert sum(layer.dfg_width_histogram.values()) == layer.dfg_ops

    def test_inplace_outofplace_partition(self):
        spec = make_spec()
        layer = compile_layer(spec, CompilerConfig(enable_cse=True))
        assert layer.inplace_ops + layer.outofplace_ops == layer.dfg_ops

    def test_emit_programs_keeps_slices(self):
        spec = make_spec(cout=8, cin=4)
        layer = compile_layer(spec, CompilerConfig(enable_cse=True), emit_programs=True)
        assert len(layer.slices) == spec.in_channels
        assert all(len(s.program.instructions) > 0 for s in layer.slices)

    def test_stats_path_matches_emitted_programs(self):
        """The fast statistics path must agree with full code generation."""
        spec = make_spec(cout=12, cin=6, sparsity=0.5)
        config = CompilerConfig(enable_cse=True)
        stats_only = compile_layer(spec, config, emit_programs=False)
        emitted = compile_layer(spec, config, emit_programs=True)
        assert stats_only.dfg_ops == emitted.dfg_ops
        assert stats_only.accumulation_ops == emitted.accumulation_ops
        assert stats_only.total_ops == emitted.total_ops

    def test_slice_sampling_scales_counts(self):
        spec = make_spec(cout=16, cin=32, sparsity=0.5)
        exact = compile_layer(spec, CompilerConfig(enable_cse=False))
        sampled = compile_layer(
            spec, CompilerConfig(enable_cse=False, max_slices_per_layer=8)
        )
        assert sampled.compiled_slices == 8
        assert sampled.scale_factor == pytest.approx(4.0)
        # The scaled estimate should be within ~25 % of the exact count.
        assert sampled.total_ops == pytest.approx(exact.total_ops, rel=0.25)

    def test_accumulator_width_exposed(self):
        layer = compile_layer(make_spec(), CompilerConfig(activation_bits=4))
        assert layer.accumulator_width == layer.mapping.accumulator_width
        assert layer.accumulator_width > 4


class TestCompileModel:
    @pytest.fixture(scope="class")
    def small_model_specs(self):
        return [
            make_spec(cout=8, cin=3, size=16, name="conv1", seed=1),
            make_spec(cout=16, cin=8, size=8, name="conv2", seed=2),
        ]

    def test_layers_in_order(self, small_model_specs):
        compiled = compile_model(small_model_specs, CompilerConfig(), name="tiny")
        assert [layer.name for layer in compiled.layers] == ["conv1", "conv2"]

    def test_totals_are_sums(self, small_model_specs):
        compiled = compile_model(small_model_specs, CompilerConfig(), name="tiny")
        assert compiled.total_ops == sum(l.total_ops for l in compiled.layers)
        assert compiled.total_unrolled_ops == sum(l.unrolled_ops for l in compiled.layers)

    def test_arrays_required_is_worst_layer(self, small_model_specs):
        compiled = compile_model(small_model_specs, CompilerConfig(), name="tiny")
        assert compiled.arrays_required == 1

    def test_layer_lookup(self, small_model_specs):
        compiled = compile_model(small_model_specs, CompilerConfig(), name="tiny")
        assert compiled.layer_by_name("conv2").name == "conv2"
        with pytest.raises(CompilationError):
            compiled.layer_by_name("missing")

    def test_vgg9_op_counts_against_paper(self):
        """Experiment E3/E5: VGG-9 at 0.85 sparsity lands near the paper's 696K/542K."""
        specs = specs_for_network("vgg9", sparsity=0.85, rng=0)
        unroll = compile_model(specs, CompilerConfig(enable_cse=False), name="vgg9")
        cse = compile_model(
            specs, CompilerConfig(enable_cse=True, max_slices_per_layer=16), name="vgg9"
        )
        assert 0.55e6 < unroll.total_ops < 0.85e6
        assert cse.total_ops < unroll.total_ops
        reduction = 1.0 - cse.total_ops / unroll.total_ops
        assert 0.05 < reduction < 0.45


class TestCollectorPause:
    """``compile_model`` pauses the cyclic collector and restores its state."""

    @pytest.fixture
    def spec(self):
        return [make_spec(cout=8, cin=2, size=4, name="conv", seed=3)]

    def test_collector_is_off_while_compiling(self, spec, monkeypatch):
        import gc

        import repro.core.compiler as compiler

        seen = []
        original = compiler.compile_layer

        def spy(*args, **kwargs):
            seen.append(gc.isenabled())
            return original(*args, **kwargs)

        monkeypatch.setattr(compiler, "compile_layer", spy)
        assert gc.isenabled()
        compile_model(spec, CompilerConfig(), emit_programs=True)
        assert seen == [False]
        assert gc.isenabled()

    def test_disabled_collector_stays_disabled(self, spec):
        import gc

        gc.disable()
        try:
            compile_model(spec, CompilerConfig(), emit_programs=True)
            assert not gc.isenabled()
        finally:
            gc.enable()

    def test_state_restored_after_an_error(self):
        import gc

        bad = ConvLayerSpec("bad", np.zeros((4, 2, 3, 3), dtype=np.int8), 4, 4, 1, 1)
        with pytest.raises(CompilationError):
            compile_model(
                [bad], CompilerConfig(min_cse_occurrences=1), emit_programs=True
            )
        assert gc.isenabled()

    def test_frozen_objects_stay_frozen(self, spec):
        import gc

        gc.freeze()
        try:
            frozen = gc.get_freeze_count()
            compile_model(spec, CompilerConfig(), emit_programs=True)
            assert gc.get_freeze_count() == frozen
            assert gc.isenabled()
        finally:
            gc.unfreeze()

    def test_nested_and_concurrent_pauses_restore_once(self):
        import gc
        import threading

        from repro.core.compiler import _cyclic_gc_paused

        inside = threading.Barrier(2, timeout=60)
        states = []

        def worker():
            with _cyclic_gc_paused():
                inside.wait()
                inside.wait()
                states.append(gc.isenabled())

        thread = threading.Thread(target=worker)
        thread.start()
        with _cyclic_gc_paused():
            with _cyclic_gc_paused():
                inside.wait()
            # The inner exit must not re-enable while the worker still compiles.
            states.append(gc.isenabled())
            inside.wait()
        thread.join()
        assert states == [False, False]
        assert gc.isenabled()
