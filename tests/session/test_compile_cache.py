"""The opt-in on-disk compile cache (``REPRO_COMPILE_CACHE``)."""

import numpy as np
import pytest

import repro
from repro.session import Session, cache
from repro.session.config import SessionConfig

MODEL_KWARGS = dict(model="vgg9", width=1 / 32)


def _compile_status(**kwargs):
    session = Session(**MODEL_KWARGS, **kwargs)
    try:
        session.compile()
        return session, session.compile_cache_status
    except BaseException:
        session.close()
        raise


class TestCacheKey:
    def test_registry_config_is_cacheable(self):
        key = cache.cache_key(SessionConfig(**MODEL_KWARGS), repro.__version__)
        assert isinstance(key, str) and len(key) == 64

    def test_key_covers_compile_inputs(self):
        base = cache.cache_key(SessionConfig(**MODEL_KWARGS), repro.__version__)
        for variant in (
            SessionConfig(model="vgg9", width=1 / 16),
            SessionConfig(model="vgg11", width=1 / 32),
            SessionConfig(**MODEL_KWARGS, bits=8),
            SessionConfig(**MODEL_KWARGS, signed=True),
            SessionConfig(**MODEL_KWARGS, rng=7),
        ):
            assert cache.cache_key(variant, repro.__version__) != base
        assert cache.cache_key(SessionConfig(**MODEL_KWARGS), "0.0.0") != base

    def test_key_covers_compiler_sources(self, monkeypatch):
        base = cache.cache_key(SessionConfig(**MODEL_KWARGS), repro.__version__)
        monkeypatch.setattr(cache, "compiler_digest", lambda: "0" * 64)
        edited = cache.cache_key(SessionConfig(**MODEL_KWARGS), repro.__version__)
        assert edited != base

    def test_source_digest_tracks_edits(self, tmp_path):
        (tmp_path / "compiler.py").write_text("def compile(): return 1\n")
        (tmp_path / "nested").mkdir()
        (tmp_path / "nested" / "cse.py").write_text("X = 1\n")
        before = cache.source_digest(tmp_path)
        assert cache.source_digest(tmp_path) == before
        (tmp_path / "nested" / "cse.py").write_text("X = 2\n")
        assert cache.source_digest(tmp_path) != before

    def test_compiler_digest_covers_repro_core(self):
        from pathlib import Path

        root = Path(repro.__file__).parent
        assert cache.COMPILER_SOURCES[0] == "core"
        for source in cache.COMPILER_SOURCES:
            assert (root / source).exists(), source
        assert cache.compiler_digest() == cache.source_digest(
            root, cache.COMPILER_SOURCES
        )
        # The compiled output also depends on the width and validation
        # helpers and on the instruction types pickled into each entry.
        assert {"utils/bitops.py", "utils/validation.py", "ap/isa.py"} <= set(
            cache.COMPILER_SOURCES
        )

    def test_editing_a_covered_utils_file_changes_the_key(self, tmp_path, monkeypatch):
        import shutil
        from pathlib import Path

        root = Path(repro.__file__).parent
        for source in cache.COMPILER_SOURCES + ("utils/rng.py",):
            target = tmp_path / source
            target.parent.mkdir(parents=True, exist_ok=True)
            if (root / source).is_dir():
                shutil.copytree(
                    root / source, target, ignore=shutil.ignore_patterns("__pycache__")
                )
            else:
                shutil.copy(root / source, target)
        monkeypatch.setattr(
            cache,
            "compiler_digest",
            lambda: cache.source_digest(tmp_path, cache.COMPILER_SOURCES),
        )
        config = SessionConfig(**MODEL_KWARGS)
        assert cache.compiler_digest() == cache.source_digest(
            root, cache.COMPILER_SOURCES
        )
        base = cache.cache_key(config, repro.__version__)
        # An uncovered helper does not shape compiled programs.
        with open(tmp_path / "utils" / "rng.py", "a") as handle:
            handle.write("\n# edited\n")
        assert cache.cache_key(config, repro.__version__) == base
        with open(tmp_path / "utils" / "bitops.py", "a") as handle:
            handle.write("\n# edited\n")
        assert cache.cache_key(config, repro.__version__) != base

    def test_module_tree_models_are_not_cacheable(self):
        from repro.nn.layers import Flatten, TernaryLinear
        from repro.nn.model import Sequential

        model = Sequential(
            [Flatten(), TernaryLinear(12, 4, sparsity=0.5, rng=0)],
            name="custom",
        )
        config = SessionConfig(model=model, input_shape=(3, 2, 2))
        assert cache.cache_key(config, repro.__version__) is None

    def test_generator_rng_is_not_cacheable(self):
        config = SessionConfig(**MODEL_KWARGS, rng=np.random.default_rng(0))
        assert cache.cache_key(config, repro.__version__) is None


class TestSessionCompileCache:
    def test_off_without_environment(self, monkeypatch):
        monkeypatch.delenv(cache.COMPILE_CACHE_ENV, raising=False)
        session, status = _compile_status()
        session.close()
        assert status == "off"

    def test_miss_then_hit_byte_identical(self, tmp_path, monkeypatch):
        monkeypatch.setenv(cache.COMPILE_CACHE_ENV, str(tmp_path))
        rng = np.random.default_rng(3)

        first, status = _compile_status()
        assert status == "miss"
        image = rng.uniform(0.0, 1.0, size=(1,) + first.input_shape)
        first.deploy()
        cold = first.infer(image)
        first.close()

        second, status = _compile_status()
        assert status == "hit"
        second.deploy()
        warm = second.infer(image)
        second.close()

        assert np.array_equal(cold.logits, warm.logits)
        assert (
            cold.execution.total_stats == warm.execution.total_stats
        )

    def test_changed_compiler_is_a_miss(self, tmp_path, monkeypatch):
        """An entry written by another compiler is never served."""
        monkeypatch.setenv(cache.COMPILE_CACHE_ENV, str(tmp_path))
        session, status = _compile_status()
        session.close()
        assert status == "miss"
        session, status = _compile_status()
        session.close()
        assert status == "hit"
        monkeypatch.setattr(cache, "compiler_digest", lambda: "0" * 64)
        session, status = _compile_status()
        session.close()
        assert status == "miss"

    def test_corrupt_entry_is_a_miss(self, tmp_path, monkeypatch):
        monkeypatch.setenv(cache.COMPILE_CACHE_ENV, str(tmp_path))
        session, status = _compile_status()
        session.close()
        assert status == "miss"
        (entry,) = tmp_path.glob("compiled-*.pkl")
        entry.write_bytes(b"not a pickle")
        session, status = _compile_status()
        session.close()
        assert status == "miss"
        # ... and the recompile healed the entry.
        session, status = _compile_status()
        session.close()
        assert status == "hit"

    def test_module_tree_model_stays_off(self, tmp_path, monkeypatch):
        monkeypatch.setenv(cache.COMPILE_CACHE_ENV, str(tmp_path))
        from repro.nn.layers import Flatten, TernaryLinear
        from repro.nn.model import Sequential

        model = Sequential(
            [Flatten(), TernaryLinear(12, 4, sparsity=0.5, rng=0)],
            name="tiny",
        )
        session = Session(model=model, input_shape=(3, 2, 2))
        session.compile()
        status = session.compile_cache_status
        session.close()
        assert status == "off"
        assert not list(tmp_path.iterdir())

    def test_unwritable_directory_degrades_to_compile(self, tmp_path,
                                                      monkeypatch):
        blocked = tmp_path / "blocked"
        blocked.write_text("a file, not a directory")
        monkeypatch.setenv(cache.COMPILE_CACHE_ENV, str(blocked))
        session, status = _compile_status()
        session.close()
        # Store fails quietly; the session still compiled.
        assert status == "miss"
        assert session.compiled is not None


class TestClusterWitness:
    def test_cluster_reports_scratch_session_status(self, tmp_path,
                                                    monkeypatch):
        from repro.serving import Cluster, ClusterConfig

        monkeypatch.setenv(cache.COMPILE_CACHE_ENV, str(tmp_path))
        config = ClusterConfig(**MODEL_KWARGS, replicas=1)
        cluster = Cluster(config)
        try:
            cluster._compile_artifacts()
            assert cluster.compile_cache_status == "miss"
        finally:
            cluster.close()
        cluster = Cluster(config)
        try:
            cluster._compile_artifacts()
            assert cluster.compile_cache_status == "hit"
            assert cluster.compiled is not None
        finally:
            cluster.close()
