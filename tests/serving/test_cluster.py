"""The cluster: byte-identity, residency, routing, gather, lifecycle."""

import numpy as np
import pytest

from repro.errors import ClusterError, ConfigurationError, SimulationError
from repro.serving import Cluster, ClusterConfig, ClusterResult
from repro.serving.cluster import _Replica

from tests.serving.conftest import SERVING_CONFIG, make_images


class TestClusterConfig:
    def test_session_config_mirrors_model_fields(self, cluster_config):
        derived = cluster_config.session_config()
        assert derived.model == cluster_config.model
        assert derived.width == cluster_config.width
        assert derived.seed == cluster_config.seed
        # Workers never trace/record on their own: spans are shipped back.
        assert derived.trace is False
        assert derived.metrics is False

    def test_rejects_module_tree_models(self):
        with pytest.raises(ConfigurationError, match="registry names"):
            ClusterConfig(model=object())  # type: ignore[arg-type]

    @pytest.mark.parametrize(
        "overrides",
        [
            dict(replicas=0),
            dict(queue_depth=0),
            dict(max_wave=0),
            dict(admission_timeout_s=-1.0),
            dict(routing="random"),
            dict(trace=7),
        ],
    )
    def test_rejects_bad_knobs(self, overrides):
        with pytest.raises(ConfigurationError):
            ClusterConfig(**overrides)

    def test_trace_path(self):
        assert ClusterConfig(trace="out.json").trace_path == "out.json"
        assert ClusterConfig(trace=True).trace_path is None
        assert ClusterConfig(trace=True).trace_enabled
        assert not ClusterConfig().trace_enabled


class TestByteIdentity:
    def test_infer_matches_single_process_session(
        self, cluster, reference_logits
    ):
        images, reference = reference_logits
        result = cluster.infer(images)
        assert isinstance(result, ClusterResult)
        assert result.logits.tobytes() == reference.tobytes()
        assert result.images == len(images)

    def test_every_replica_serves_identical_logits(
        self, cluster, reference_logits
    ):
        images, reference = reference_logits
        for replica in range(cluster.config.replicas):
            cluster.submit(images, replica=replica)
            (result,) = cluster.gather()
            assert result.replica == replica
            assert result.logits.tobytes() == reference.tobytes()

    def test_coalesced_wave_matches_per_request_serving(
        self, cluster, reference_logits
    ):
        images, reference = reference_logits
        # One wave of three requests == three single-request results.
        cluster.submit_wave([images[:2], images[2:5], images[5:]])
        wave_results = cluster.gather()
        stitched = np.concatenate([result.logits for result in wave_results])
        assert stitched.tobytes() == reference.tobytes()

    def test_single_image_requests_are_batched(self, cluster, reference_logits):
        images, reference = reference_logits
        result = cluster.infer(images[0])  # unbatched (C, H, W) input
        assert result.logits.shape == (1,) + reference.shape[1:]
        assert result.logits.tobytes() == reference[:1].tobytes()


class TestResidency:
    def test_every_replica_stays_warm_after_deploy(self, cluster):
        images = make_images(2)
        for _ in range(3):
            cluster.infer(images)
        stats = cluster.stats()
        assert stats.all_warm
        for replica in stats.replicas:
            assert replica.cold_leases == 0
            assert replica.cold_reprograms == 0
            assert replica.aps_pinned > 0
            assert replica.tile_programs > 0

    def test_warm_hits_accumulate_per_replica(self, cluster):
        images = make_images(1)
        before = {
            stats.replica: stats.warm_hits
            for stats in cluster.stats().replicas
        }
        result = cluster.infer(images)
        after = {
            stats.replica: stats.warm_hits
            for stats in cluster.stats().replicas
        }
        assert after[result.replica] > before[result.replica]


class TestRoutingAndGather:
    def test_round_robin_spreads_requests(self, cluster):
        images = make_images(1)
        for _ in range(4):
            cluster.submit(images)
        replicas = {result.replica for result in cluster.gather()}
        assert replicas == {0, 1}

    def test_gather_returns_submission_order(self, cluster):
        images = make_images(1)
        handles = [cluster.submit(images) for _ in range(4)]
        results = cluster.gather()
        assert [result.request_id for result in results] == [
            handle.request_id for handle in handles
        ]

    def test_pinned_submit_routes_to_that_replica(self, cluster):
        images = make_images(1)
        cluster.submit(images, replica=1)
        (result,) = cluster.gather()
        assert result.replica == 1

    def test_unknown_replica_rejected(self, cluster):
        with pytest.raises(ClusterError, match="no such replica"):
            cluster.submit(make_images(1), replica=99)

    def test_least_loaded_routing(self):
        config = ClusterConfig(
            replicas=2, routing="least-loaded", **SERVING_CONFIG
        )
        with Cluster(config) as cluster:
            cluster.start()
            images = make_images(1)
            for _ in range(4):
                cluster.submit(images)
            replicas = [result.replica for result in cluster.gather()]
            assert set(replicas) == {0, 1}

    def test_stats_counts_requests_and_dispatches(self, cluster):
        stats = cluster.stats()
        assert stats.requests > 0
        assert stats.live_replicas == 2
        assert sum(r.dispatches for r in stats.replicas) >= stats.requests


class TestReplicaCounters:
    def test_tracks_high_water_mark(self, cluster):
        before = cluster.stats().replicas[0]
        assert before.in_flight == 0
        wave = before.max_in_flight + 2
        cluster.submit_wave([make_images(1)] * wave, replica=0)
        cluster.gather()
        after = cluster.stats().replicas[0]
        assert after.dispatches == before.dispatches + wave
        assert after.max_in_flight == wave
        assert after.in_flight == 0

    def test_settle_underflow_raises(self):
        replica = _Replica(0, process=None, channel=None, response=None)
        with pytest.raises(SimulationError, match="underflow"):
            replica.settle()
        replica.in_flight = 2
        replica.settle(2)
        assert replica.in_flight == 0


class TestLifecycle:
    def test_submit_before_start_raises(self):
        cluster = Cluster(ClusterConfig(replicas=1, **SERVING_CONFIG))
        with pytest.raises(ClusterError, match="not started"):
            cluster.submit(make_images(1))
        cluster.close()

    def test_double_start_raises(self, cluster):
        with pytest.raises(ClusterError, match="already started"):
            cluster.start()

    def test_metrics_registry_flat_schema(self, cluster):
        cluster.infer(make_images(1))
        flat = cluster.metrics_registry().flat()
        assert flat["replicas"] == 2
        assert flat["replicas_live"] == 2
        assert any(key.startswith("requests_served") for key in flat)
        assert "request_latency_ms_p50" in flat

    def test_close_is_idempotent_and_stops_serving(self):
        config = ClusterConfig(replicas=1, **SERVING_CONFIG)
        cluster = Cluster(config)
        cluster.start()
        cluster.infer(make_images(1))
        cluster.close()
        cluster.close()
        assert cluster.stats().live_replicas == 0
        with pytest.raises(ClusterError, match="closed"):
            cluster.submit(make_images(1))
