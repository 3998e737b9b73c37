"""The weight-resident Session API: lifecycle, residency, equivalence, report.

The acceptance surface of the session redesign:

* a warm session serves repeated ``infer()`` batches with **zero** additional
  AP lease/reprogram events (asserted via the accelerator's residency
  ledger),
* logits stay byte-identical across executors and backends and vs. the
  pure-NumPy quantized reference,
* ``report()`` splits ``deploy_cost`` from ``per_request_cost`` and
  amortizes the former,
* error paths are explicit: ``infer()`` before ``deploy()`` raises
  :class:`~repro.errors.SessionStateError`, slice-sampled compilations are
  rejected for functional inference, an oversubscribed resident deploy
  raises :class:`~repro.errors.CapacityError`, and malformed images (empty
  batches, NaN/inf values) raise
  :class:`~repro.errors.ModelDefinitionError` from ``infer()`` and
  ``submit()`` alike.
"""

import numpy as np
import pytest

from repro.arch.accelerator import Accelerator
from repro.arch.config import ArchitectureConfig
from repro.errors import (
    CapacityError,
    ConfigurationError,
    ModelDefinitionError,
    SessionStateError,
)
from repro.inference.reference import quantized_reference_forward
from repro.session import Session, SessionConfig, SessionState


def make_session(tiny_cnn, **overrides):
    model, input_shape = tiny_cnn
    return Session(model=model, input_shape=input_shape, bits=4, **overrides)


class TestLifecycle:
    def test_infer_before_compile(self, tiny_cnn, images_rng):
        model, input_shape = tiny_cnn
        with make_session(tiny_cnn) as session:
            with pytest.raises(SessionStateError, match="deploy"):
                session.infer(images_rng.uniform(0, 1, (1,) + input_shape))

    def test_infer_before_deploy(self, tiny_cnn, images_rng):
        model, input_shape = tiny_cnn
        with make_session(tiny_cnn) as session:
            session.compile()
            with pytest.raises(SessionStateError, match="compile\\(\\) -> deploy\\(\\)"):
                session.infer(images_rng.uniform(0, 1, (1,) + input_shape))

    def test_run_before_deploy(self, tiny_cnn):
        with make_session(tiny_cnn) as session:
            with pytest.raises(SessionStateError):
                session.run()

    def test_deploy_before_compile(self, tiny_cnn):
        with make_session(tiny_cnn) as session:
            with pytest.raises(SessionStateError):
                session.deploy()

    def test_compile_twice_rejected(self, tiny_cnn):
        with make_session(tiny_cnn) as session:
            session.compile()
            with pytest.raises(SessionStateError):
                session.compile()

    def test_closed_session_rejects_requests(self, tiny_cnn, images_rng):
        model, input_shape = tiny_cnn
        session = make_session(tiny_cnn)
        session.compile().deploy()
        session.close()
        assert session.state == SessionState.CLOSED
        with pytest.raises(SessionStateError):
            session.infer(images_rng.uniform(0, 1, (1,) + input_shape))
        session.close()  # idempotent

    def test_module_model_requires_input_shape(self, tiny_cnn):
        model, _ = tiny_cnn
        with Session(model=model) as session:
            with pytest.raises(SessionStateError, match="input_shape"):
                session.compile()

    def test_crosscheck_requires_a_request(self, tiny_cnn):
        with make_session(tiny_cnn) as session:
            session.compile().deploy()
            with pytest.raises(SessionStateError, match="no requests"):
                session.crosscheck()

    def test_report_requires_deploy(self, tiny_cnn):
        with make_session(tiny_cnn) as session:
            with pytest.raises(SessionStateError):
                session.report()


class TestWarmResidency:
    """The tentpole claim: weights stay in CAM across requests."""

    def test_repeated_infer_has_zero_lease_events(self, tiny_cnn, images_rng):
        model, input_shape = tiny_cnn
        images = images_rng.uniform(0, 1, (2,) + input_shape)
        with make_session(tiny_cnn) as session:
            session.compile().deploy()
            deployed = session.residency
            for _ in range(3):
                session.infer(images)
            after = session.residency
        assert after.lease_events == deployed.lease_events
        assert after.reprogram_events == deployed.reprogram_events
        assert after.reprogram_bits == deployed.reprogram_bits
        # 3 requests x 2 images x num_tiles warm dispatches.
        assert after.warm_hits == 3 * 2 * session.plan.num_tiles

    def test_synthetic_run_is_warm_too(self, tiny_cnn):
        with make_session(tiny_cnn) as session:
            session.compile().deploy()
            deployed = session.residency
            session.run()
            session.run()
            after = session.residency
        assert after.lease_events == deployed.lease_events
        assert after.reprogram_events == deployed.reprogram_events
        assert after.warm_hits == 2 * session.plan.num_tiles

    def test_deploy_charges_programming_once(self, tiny_cnn):
        with make_session(tiny_cnn) as session:
            session.compile().deploy()
            deployment = session.deployment
        assert deployment.tile_programs == session.plan.num_tiles
        assert deployment.reprogram_events == session.plan.num_tiles
        assert deployment.aps_pinned == len(
            {tuple(t.address) for layer in session.plan.layers for t in layer.tiles}
        )
        assert deployment.weight_bits > 0
        assert deployment.energy_uj > 0

    def test_cold_path_still_counts_events(self, tiny_cnn, images_rng):
        """Without a deploy, every dispatch charges a lease + reprogram."""
        from repro.inference.engine import BatchedInference

        model, input_shape = tiny_cnn
        images = images_rng.uniform(0, 1, (2,) + input_shape)
        driver = BatchedInference(model, input_shape, bits=4)
        try:
            driver.run(images)
            residency = driver.accelerator.residency
        finally:
            driver.close()
        assert residency.warm_hits == 0
        assert residency.lease_events == 2 * driver.plan.num_tiles
        assert residency.reprogram_events == residency.lease_events
        assert residency.reprogram_bits > 0

    def test_resident_placement_gives_layers_disjoint_aps(self, tiny_cnn):
        with make_session(tiny_cnn) as session:
            session.compile().deploy()
            plan = session.plan
        assert plan.placement == "resident"
        per_layer = [
            {tuple(tile.address) for tile in layer.tiles} for layer in plan.layers
        ]
        for i in range(len(per_layer)):
            for j in range(i + 1, len(per_layer)):
                assert not (per_layer[i] & per_layer[j]), (
                    f"layers {i} and {j} share APs in a resident plan"
                )

    def test_shared_plan_cannot_be_deployed(self, tiny_cnn):
        from repro.core.compiler import CompilerConfig, compile_model
        from repro.nn.stats import model_layer_specs
        from repro.runtime.plan import build_execution_plan

        model, input_shape = tiny_cnn
        specs = model_layer_specs(model, input_shape)
        compiled = compile_model(
            specs, CompilerConfig(activation_bits=4), emit_programs=True
        )
        accelerator = Accelerator()
        plan = build_execution_plan(compiled, accelerator=accelerator)
        assert plan.placement == "shared"
        with pytest.raises(ConfigurationError, match="resident"):
            accelerator.deploy_plan(plan)


class TestEquivalence:
    """Logits byte-identical across executors x backends and vs. the reference."""

    @pytest.fixture(scope="class")
    def reference_logits(self, tiny_cnn, images_rng):
        model, input_shape = tiny_cnn
        images = images_rng.uniform(0, 1, (2,) + input_shape)
        return images, quantized_reference_forward(
            model, images, input_shape=input_shape, bits=4
        )

    @pytest.mark.parametrize("executor", ["serial", "parallel", "thread"])
    @pytest.mark.parametrize("backend", ["reference", "vectorized"])
    def test_matrix_byte_identical(
        self, tiny_cnn, reference_logits, executor, backend
    ):
        images, reference = reference_logits
        with make_session(
            tiny_cnn, executor=executor, workers=2, backend=backend
        ) as session:
            session.compile().deploy()
            result = session.infer(images)
        assert np.array_equal(result.logits, reference)

    def test_repeated_requests_byte_identical(self, tiny_cnn, reference_logits):
        images, reference = reference_logits
        with make_session(tiny_cnn) as session:
            session.compile().deploy()
            first = session.infer(images)
            second = session.infer(images)
        assert np.array_equal(first.logits, second.logits)
        assert np.array_equal(first.logits, reference)
        assert first.execution.total_stats == second.execution.total_stats

    def test_micro_batching_byte_identical(self, tiny_cnn, reference_logits):
        images, reference = reference_logits
        with make_session(tiny_cnn) as session:
            session.compile().deploy()
            whole = session.infer(images)
            chunked = session.infer(images, batch=1)
        assert np.array_equal(whole.logits, chunked.logits)
        assert np.array_equal(whole.logits, reference)

    def test_crosscheck_consistent(self, tiny_cnn, reference_logits):
        images, _ = reference_logits
        with make_session(tiny_cnn) as session:
            session.compile().deploy()
            session.infer(images)
            check = session.crosscheck()
        assert check.consistent, check.describe()

    def test_crosscheck_explicit_execution_scales_images(
        self, tiny_cnn, reference_logits
    ):
        """Passing a multi-image execution explicitly must not assume 1 image."""
        images, _ = reference_logits
        with make_session(tiny_cnn) as session:
            session.compile().deploy()
            result = session.infer(images)
            check = session.crosscheck(result.execution)
        assert check.consistent, check.describe()

    def test_synthetic_run_matches_legacy_scheduler(self, tiny_cnn):
        """Warm resident execution == cold shared execution, byte for byte."""
        from repro.core.compiler import CompilerConfig, compile_model
        from repro.nn.stats import model_layer_specs
        from repro.runtime.plan import build_execution_plan

        model, input_shape = tiny_cnn
        with make_session(tiny_cnn, seed=3) as session:
            session.compile().deploy()
            warm = session.run()
        specs = model_layer_specs(model, input_shape)
        compiled = compile_model(
            specs, CompilerConfig(activation_bits=4), emit_programs=True
        )
        accelerator = Accelerator()
        plan = build_execution_plan(compiled, accelerator=accelerator, base_seed=3)
        cold = accelerator.execute_plan(plan)
        assert warm.total_stats == cold.total_stats
        assert warm.checksum == cold.checksum


class TestReport:
    def test_report_splits_deploy_from_per_request(self, tiny_cnn, images_rng):
        model, input_shape = tiny_cnn
        images = images_rng.uniform(0, 1, (2,) + input_shape)
        with make_session(tiny_cnn) as session:
            session.compile().deploy()
            session.infer(images)
            session.infer(images)
            report = session.report()
        assert report.requests == 2
        assert report.images == 4
        assert report.cost.deploy_energy_uj > 0
        assert report.cost.per_request_energy_uj > 0
        # Identical inputs: the mean per-request energy equals one request's.
        one = report.records[0].execution.energy_uj
        assert report.cost.per_request_energy_uj == pytest.approx(one)

    def test_amortization_spreads_deploy_cost(self, tiny_cnn, images_rng):
        model, input_shape = tiny_cnn
        images = images_rng.uniform(0, 1, (1,) + input_shape)
        with make_session(tiny_cnn) as session:
            session.compile().deploy()
            session.infer(images)
            cost = session.report().cost
        assert cost.amortized_energy_uj(1) == pytest.approx(
            cost.deploy_energy_uj + cost.per_request_energy_uj
        )
        assert cost.amortized_energy_uj(1000) < cost.amortized_energy_uj(1)
        assert cost.amortized_energy_uj(1000) == pytest.approx(
            cost.per_request_energy_uj, rel=1e-2
        )
        assert cost.amortized_latency_ms(10) < cost.amortized_latency_ms(1)

    def test_report_text_names_both_costs(self, tiny_cnn, images_rng):
        model, input_shape = tiny_cnn
        images = images_rng.uniform(0, 1, (1,) + input_shape)
        with make_session(tiny_cnn) as session:
            session.compile().deploy()
            session.infer(images)
            text = session.report().to_text()
        assert "deploy cost" in text
        assert "per-request cost" in text
        assert "amortized energy / request" in text
        assert "warm dispatches" in text


def _serve_one(session, images, path):
    if path == "submit":
        return session.submit(images).result(timeout=120)
    return session.infer(images)


class TestErrorPaths:
    @pytest.mark.parametrize("path", ["infer", "submit"])
    def test_empty_batch_raises_typed_error(self, tiny_cnn, path):
        _, input_shape = tiny_cnn
        with make_session(tiny_cnn) as session:
            session.compile().deploy()
            with pytest.raises(ModelDefinitionError, match="at least one image"):
                _serve_one(session, np.zeros((0,) + input_shape), path)
            assert session.requests == []

    @pytest.mark.parametrize("path", ["infer", "submit"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_images_raise_typed_error(
        self, tiny_cnn, images_rng, path, bad
    ):
        _, input_shape = tiny_cnn
        images = images_rng.uniform(0, 1, (2,) + input_shape)
        images[1, 0, 2, 3] = bad
        with make_session(tiny_cnn) as session:
            session.compile().deploy()
            with pytest.raises(ModelDefinitionError, match="NaN or infinite"):
                _serve_one(session, images, path)
            # The session still serves well-formed requests afterwards.
            result = _serve_one(session, images[:1], path)
        assert result.images == 1

    def test_reference_forward_shares_the_checks(self, tiny_cnn):
        model, input_shape = tiny_cnn
        with pytest.raises(ModelDefinitionError, match="at least one image"):
            quantized_reference_forward(
                model, np.zeros((0,) + input_shape), input_shape=input_shape
            )
        with pytest.raises(ModelDefinitionError, match="NaN or infinite"):
            quantized_reference_forward(
                model, np.full((1,) + input_shape, np.nan), input_shape=input_shape
            )

    def test_oversubscribed_deploy_raises(self, tiny_cnn):
        arch = ArchitectureConfig(aps_per_tile=2, tiles_per_bank=1, num_banks=1)
        with make_session(tiny_cnn, arch=arch, auto_size=False) as session:
            session.compile()
            with pytest.raises(CapacityError, match="oversubscribed"):
                session.deploy()

    def test_auto_size_grows_the_accelerator(self, tiny_cnn, images_rng):
        model, input_shape = tiny_cnn
        arch = ArchitectureConfig(aps_per_tile=2, tiles_per_bank=1, num_banks=1)
        images = images_rng.uniform(0, 1, (1,) + input_shape)
        with make_session(tiny_cnn, arch=arch) as session:
            session.compile().deploy()
            assert session.accelerator.num_aps > arch.total_aps
            result = session.infer(images)
        reference = quantized_reference_forward(
            model, images, input_shape=input_shape, bits=4
        )
        assert np.array_equal(result.logits, reference)

    def test_explicit_accelerator_is_never_silently_replaced(self, tiny_cnn):
        """A caller-supplied accelerator too small for the resident deploy
        raises loudly (its ledgers/interconnect are the caller's), even with
        auto_size on."""
        arch = ArchitectureConfig(aps_per_tile=2, tiles_per_bank=1, num_banks=1)
        accelerator = Accelerator(config=arch)
        session = Session(
            model=tiny_cnn[0], input_shape=tiny_cnn[1], accelerator=accelerator
        )
        with session:
            session.compile()
            with pytest.raises(CapacityError, match="oversubscribed"):
                session.deploy()

    def test_explicit_accelerator_that_fits_is_used(self, tiny_cnn, images_rng):
        model, input_shape = tiny_cnn
        accelerator = Accelerator()
        with Session(
            model=model, input_shape=input_shape, accelerator=accelerator
        ) as session:
            session.compile().deploy()
            session.infer(images_rng.uniform(0, 1, (1,) + input_shape))
        assert session.accelerator is accelerator
        assert accelerator.tile_stats()  # the caller's ledgers were populated

    def test_slice_sampled_session_rejects_infer(self, tiny_cnn, images_rng):
        model, input_shape = tiny_cnn
        with make_session(tiny_cnn, slices=1) as session:
            session.compile().deploy()
            with pytest.raises(SessionStateError, match="slice"):
                session.infer(images_rng.uniform(0, 1, (1,) + input_shape))
            # ... but the synthetic path still serves requests.
            execution = session.run()
        assert execution.checksum != 0

    def test_layer_truncated_session_rejects_infer(self, tiny_cnn, images_rng):
        model, input_shape = tiny_cnn
        with make_session(tiny_cnn, layers=1) as session:
            session.compile().deploy()
            with pytest.raises(SessionStateError, match="layers"):
                session.infer(images_rng.uniform(0, 1, (1,) + input_shape))

    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            SessionConfig(bits=0)
        with pytest.raises(ConfigurationError):
            SessionConfig(slices=0)
        with pytest.raises(ConfigurationError):
            SessionConfig(layers=0)


class TestServeHelper:
    def test_serve_loops_batches_and_reports(self, tiny_cnn, images_rng):
        from repro.session import serve

        model, input_shape = tiny_cnn
        batches = [
            images_rng.uniform(0, 1, (1,) + input_shape) for _ in range(3)
        ]
        report = serve(model, batches, input_shape=input_shape, bits=4)
        assert report.requests == 3
        assert report.images == 3
        assert report.cost.per_request_energy_uj > 0
