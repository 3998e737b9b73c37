"""Overlapping requests over one live deployment: submit()/gather().

The weight-resident claim has to survive concurrency: several clients'
requests run over the same pinned plan at once - each through the same
request-scoped, layer-synchronous engine as ``infer()`` - and the residency
ledger must stay all-warm - zero cold lease or reprogram events after
deploy - while every client gets logits, counters and activation buffers
byte-identical to serving the same batches sequentially.
"""

import sys
import threading

import numpy as np
import pytest

from repro.errors import ModelDefinitionError, SessionStateError, SimulationError
from repro.inference.engine import BatchedInference
from repro.session import Session, SessionConfig


def _config(model, shape, **overrides):
    return SessionConfig(
        model=model, input_shape=shape, bits=4, name="tinycnn", **overrides
    )


@pytest.fixture(scope="module")
def batches(images_rng):
    return [images_rng.normal(size=(2, 3, 8, 8)) for _ in range(3)]


@pytest.fixture(scope="module")
def sequential_results(tiny_cnn, batches):
    model, shape = tiny_cnn
    with Session(_config(model, shape)) as session:
        session.compile().deploy()
        return [session.infer(batch) for batch in batches]


def _assert_same_request(overlapped, sequential):
    assert np.array_equal(overlapped.logits, sequential.logits)
    assert overlapped.checksum == sequential.checksum
    assert overlapped.execution.total_stats == sequential.execution.total_stats
    for left, right in zip(overlapped.execution.layers, sequential.execution.layers):
        assert left.stats == right.stats, f"layer {left.name} diverged"
        assert left.checksum == right.checksum


class TestOverlappingRequests:
    @pytest.mark.parametrize("executor,workers", [("serial", None), ("parallel", 2)])
    def test_gather_matches_sequential_serving(
        self, tiny_cnn, batches, sequential_results, executor, workers
    ):
        model, shape = tiny_cnn
        config = _config(
            model, shape, executor=executor, workers=workers, concurrency=3
        )
        with Session(config) as session:
            session.compile().deploy()
            deployed = session.residency
            handles = [session.submit(batch) for batch in batches]
            results = session.gather()
            after = session.residency

        assert [handle.index for handle in handles] == [0, 1, 2]
        assert all(handle.done() for handle in handles)
        assert len(results) == len(batches)
        for overlapped, sequential in zip(results, sequential_results):
            assert np.array_equal(overlapped.logits, sequential.logits)
            assert (
                overlapped.execution.total_stats
                == sequential.execution.total_stats
            )
        # The heart of the claim: overlapping clients never lease or
        # reprogram anything after deploy.
        assert after.lease_events == deployed.lease_events
        assert after.reprogram_events == deployed.reprogram_events
        assert after.warm_hits > deployed.warm_hits

    def test_gather_records_requests_in_submission_order(
        self, tiny_cnn, batches
    ):
        model, shape = tiny_cnn
        with Session(_config(model, shape, concurrency=3)) as session:
            session.compile().deploy()
            for batch in batches:
                session.submit(batch)
            results = session.gather()
            records = session.requests
        assert len(records) == len(batches)
        for record, result in zip(records, results):
            assert record.execution is result.execution
        report_images = sum(record.images for record in records)
        assert report_images == sum(batch.shape[0] for batch in batches)

    def test_individual_handle_result(self, tiny_cnn, batches):
        model, shape = tiny_cnn
        with Session(_config(model, shape, concurrency=2)) as session:
            session.compile().deploy()
            handle = session.submit(batches[0])
            result = handle.result(timeout=120)
            assert result.images == batches[0].shape[0]
            # gather() still collects (and records) the same request.
            gathered = session.gather()
            assert gathered[0] is result

    def test_submit_requires_deployment(self, tiny_cnn, batches):
        model, shape = tiny_cnn
        with Session(_config(model, shape)) as session:
            session.compile()
            with pytest.raises(SessionStateError):
                session.submit(batches[0])

    def test_failed_request_propagates_but_keeps_session_alive(
        self, tiny_cnn, batches
    ):
        model, shape = tiny_cnn
        with Session(_config(model, shape, concurrency=2)) as session:
            session.compile().deploy()
            session.submit(batches[0])
            session.submit(np.zeros((2, 99)))  # malformed request
            with pytest.raises(ModelDefinitionError):
                session.gather()
            # The good request was recorded; the session still serves.
            assert len(session.requests) == 1
            follow_up = session.infer(batches[1])
            assert follow_up.images == batches[1].shape[0]
            assert session.residency.lease_events > 0  # deploy events only

    def test_close_waits_for_outstanding_requests(self, tiny_cnn, batches):
        model, shape = tiny_cnn
        session = Session(_config(model, shape, concurrency=2))
        session.compile().deploy()
        handle = session.submit(batches[0])
        session.close()
        assert handle.done()
        # Pins and pools are gone; closing again is a no-op.
        assert session.accelerator.pinned_addresses() == []
        session.close()

    def test_residual_topology_overlaps(self, resnet18_narrow, images_rng):
        """Residual host-side adds stay correct under overlapping requests."""
        model, shape = resnet18_narrow
        requests = [images_rng.normal(size=(2,) + shape) for _ in range(3)]
        config = SessionConfig(
            model=model,
            input_shape=shape,
            bits=4,
            concurrency=3,
        )
        with Session(config) as session:
            session.compile().deploy()
            sequential = [session.infer(images) for images in requests]
            for images in requests:
                session.submit(images)
            overlapped = session.gather()
        for left, right in zip(overlapped, sequential):
            _assert_same_request(left, right)

    def test_activation_store_matches_sequential(self, tiny_cnn, batches):
        """Each overlapping request owns its kept activation buffers."""
        model, shape = tiny_cnn
        config = _config(model, shape, keep_activations=True, concurrency=3)
        with Session(config) as session:
            session.compile().deploy()
            sequential = [session.infer(batch) for batch in batches]
            for batch in batches:
                session.submit(batch)
            overlapped = session.gather()
        for left, right in zip(overlapped, sequential):
            assert left.store is not right.store
            expected_layers = right.store.layers()
            assert [entry.name for entry in left.store.layers()] == [
                entry.name for entry in expected_layers
            ]
            for actual, expected in zip(left.store.layers(), expected_layers):
                assert np.array_equal(actual.steps, expected.steps)
                assert actual.input_bits == expected.input_bits
                assert np.array_equal(actual.input_codes, expected.input_codes)
                assert np.array_equal(actual.output_int, expected.output_int)


class TestOverlapMatrix:
    """Eight overlapping requests equal eight sequential ``infer()`` calls.

    ``batched`` runs every layer as waves; ``reference`` dispatches every
    instance through pooled APs, which hold one request at a time, so
    overlapping requests must take turns leasing them.  Logits, per-layer
    CAMStats, checksums, per-AP counters and the residency ledger must all
    come out byte-identical to sequential serving.
    """

    @pytest.mark.parametrize("executor", ["serial", "parallel"])
    @pytest.mark.parametrize("backend", ["batched", "reference"])
    def test_matches_sequential_infer(self, tiny_cnn, images_rng, backend, executor):
        model, shape = tiny_cnn
        requests = [images_rng.uniform(0, 1, (2,) + shape) for _ in range(8)]
        config = _config(
            model,
            shape,
            backend=backend,
            executor=executor,
            workers=None if executor == "serial" else 2,
            concurrency=4,
        )
        with Session(config) as session:
            session.compile().deploy()
            sequential = [session.infer(images) for images in requests]
            sequential_residency = session.residency
            sequential_tiles = session.accelerator.tile_stats()
        # A short switch interval makes overlapping requests interleave
        # inside each other's per-instance dispatches.
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with Session(config) as session:
                session.compile().deploy()
                handles = [session.submit(images) for images in requests]
                for handle in handles:
                    handle.result(timeout=300)
                overlapped = session.gather()
                overlapped_residency = session.residency
                overlapped_tiles = session.accelerator.tile_stats()
        finally:
            sys.setswitchinterval(interval)
        for left, right in zip(overlapped, sequential):
            _assert_same_request(left, right)
        assert overlapped_residency == sequential_residency
        assert overlapped_residency.warm_hits > 0
        assert overlapped_tiles == sequential_tiles


class TestConcurrentRecording:
    def test_concurrent_infers_lose_no_record(self, tiny_cnn, batches):
        """Threads calling ``infer()`` at once: every request reaches the
        record window and the report's running totals."""
        model, shape = tiny_cnn
        threads_n, rounds = 6, 3
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with Session(_config(model, shape)) as session:
                session.compile().deploy()

                def serve():
                    for _ in range(rounds):
                        for batch in batches:
                            session.infer(batch)

                threads = [threading.Thread(target=serve) for _ in range(threads_n)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=120)
                assert not any(thread.is_alive() for thread in threads)
                report = session.report()
                records = session.requests
        finally:
            sys.setswitchinterval(interval)
        served = threads_n * rounds * len(batches)
        assert report.requests == len(records) == served
        assert report.images == threads_n * rounds * sum(b.shape[0] for b in batches)
        energy = sum(record.execution.energy_uj for record in records)
        assert report.cost.per_request_energy_uj == energy / served


class TestSyntheticRun:
    def test_repeated_runs_stay_warm_and_byte_identical(self, tiny_cnn):
        model, shape = tiny_cnn
        with Session(_config(model, shape)) as session:
            session.compile().deploy()
            deployed = session.residency
            first = session.run()
            second = session.run()
            after = session.residency
        assert second.total_stats == first.total_stats
        assert second.checksum == first.checksum
        assert second.energy_uj == first.energy_uj
        assert second.latency_ms == first.latency_ms
        # Synthetic dispatches stay warm on the resident plan.
        assert after.lease_events == deployed.lease_events
        assert after.reprogram_events == deployed.reprogram_events
        assert after.warm_hits > deployed.warm_hits


class TestTeardownSafety:
    def test_close_is_exception_safe(self, tiny_cnn, batches, monkeypatch):
        """unpin always runs, even when the driver teardown raises."""
        model, shape = tiny_cnn
        session = Session(_config(model, shape))
        session.compile().deploy()
        session.infer(batches[0])
        accelerator = session.accelerator
        assert accelerator.pinned_addresses()

        def exploding_close():
            raise RuntimeError("executor pool stuck")

        monkeypatch.setattr(session._driver, "close", exploding_close)
        with pytest.raises(RuntimeError, match="executor pool stuck"):
            session.close()
        assert accelerator.pinned_addresses() == []
        # Idempotent after the failed close.
        session.close()

    def test_engine_close_is_exception_safe(self, tiny_cnn, monkeypatch):
        """The AP pool is released even when the executor teardown raises."""
        model, shape = tiny_cnn
        engine = BatchedInference(model, shape, bits=4)
        calls = {"released": 0}

        def tracked_release():
            calls["released"] += 1
            return 0

        monkeypatch.setattr(engine.accelerator, "release_aps", tracked_release)

        def exploding_close():
            raise RuntimeError("pool teardown failed")

        monkeypatch.setattr(engine.executor, "close", exploding_close)
        with pytest.raises(RuntimeError, match="pool teardown failed"):
            engine.close()
        # The AP pool was still released, and close stays idempotent.
        assert calls["released"] == 1
        engine.close()
        assert calls["released"] == 1

    def test_request_error_restores_model(
        self, tiny_cnn, batches, sequential_results, monkeypatch
    ):
        """A request failing mid-forward unpatches the model for everyone."""
        model, shape = tiny_cnn
        config = _config(model, shape, concurrency=2)
        with Session(config) as session:
            session.compile().deploy()
            driver = session._driver
            execute_node = driver._execute_node
            calls = {"count": 0}

            def fail_on_second_layer(request, node, codes):
                calls["count"] += 1
                if calls["count"] == 2:
                    raise SimulationError("tile dispatch failed")
                return execute_node(request, node, codes)

            monkeypatch.setattr(driver, "_execute_node", fail_on_second_layer)
            session.submit(batches[0])
            with pytest.raises(SimulationError, match="tile dispatch failed"):
                session.gather()
            # No weight layer keeps the patched forward once the request died.
            for _, module, _ in model.compute_layers(shape):
                assert "forward" not in module.__dict__
            monkeypatch.undo()
            result = session.submit(batches[0]).result(timeout=120)
        assert np.array_equal(result.logits, sequential_results[0].logits)

    def test_context_manager_cleans_up_after_request_error(
        self, tiny_cnn, batches
    ):
        model, shape = tiny_cnn
        with pytest.raises(ModelDefinitionError):
            with Session(_config(model, shape)) as session:
                session.compile().deploy()
                accelerator = session.accelerator
                session.infer(np.zeros((1, 7)))  # malformed -> raises
        assert accelerator.pinned_addresses() == []

    def test_concurrency_config_validated(self, tiny_cnn):
        model, shape = tiny_cnn
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError, match="concurrency"):
            _config(model, shape, concurrency=0)
