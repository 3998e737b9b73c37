"""Opt-in on-disk memoisation of :meth:`Session.compile` artifacts.

Compiling a full-width network to per-slice AP programs is the single most
expensive setup step (~2 minutes for resnet18), and it is *pure*: registry
models build deterministically from ``(name, width, sparsity, rng)``, and the
compiler is a function of the layer specs and the compile configuration.
Setting ``REPRO_COMPILE_CACHE=<dir>`` memoises the resulting
:class:`~repro.core.compiler.CompiledModel` on disk, keyed by the package
version and every input that shapes compilation, so repeated benchmark runs,
cluster restarts and CI jobs skip the recompile entirely.

Scope and safety:

* Only registry-string models are cacheable - a module tree built in user
  code has no stable identity to key on.
* The key hashes the package version and a digest of every source that
  shapes a cached model (:data:`COMPILER_SOURCES`: the compiler, the model
  builders and their weight seeding, and the pickled configuration types),
  so upgrading the package - or editing any of them in a development tree
  without a version bump - invalidates every prior entry (no stale-program
  hazard).
* Stores are atomic (temp file + ``os.replace``); unreadable or truncated
  entries are treated as misses and overwritten, never trusted.
* The cache is strictly opt-in: without the environment variable this module
  does nothing, and ``Session.compile`` reports a ``"off"`` witness.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import pickle
import tempfile
from pathlib import Path
from typing import Optional, Sequence

from repro.telemetry.logs import get_logger

logger = get_logger(__name__)

#: Environment variable naming the cache directory (opt-in switch).
COMPILE_CACHE_ENV = "REPRO_COMPILE_CACHE"

#: On-disk format version (bump when the entry layout changes).
_FORMAT = 1

#: Sources, relative to the ``repro`` package, that shape a compiled model:
#: the compiler and the bit-width and ternary-validation helpers it calls;
#: the registry builders, the ``nn`` modules they build weights with, the
#: weight seeding and the spec derivation (``nn/stats.py``); and the types
#: pickled into every entry - AP instructions and the default
#: ``ArchitectureConfig`` (with its ``RTMTechnology``) that ``CompilerConfig``
#: carries.
COMPILER_SOURCES = (
    "core",
    "utils/bitops.py",
    "utils/validation.py",
    "utils/rng.py",
    "nn/models",
    "nn/layers.py",
    "nn/model.py",
    "nn/ternary.py",
    "nn/im2col.py",
    "nn/stats.py",
    "ap/isa.py",
    "arch/config.py",
    "rtm/timing.py",
)


def cache_dir() -> Optional[Path]:
    """The configured cache directory, or ``None`` when caching is off."""
    value = os.environ.get(COMPILE_CACHE_ENV, "").strip()
    return Path(value) if value else None


def source_digest(root: Path, sources: Sequence[str] = (".",)) -> str:
    """SHA-256 over the ``*.py`` files ``sources`` names below ``root``.

    Each source is a file or a directory (every ``*.py`` file below it); the
    digest covers each file's path relative to ``root`` and its bytes.
    """
    digest = hashlib.sha256()
    for source in sources:
        path = root / source
        for file in sorted(path.rglob("*.py")) if path.is_dir() else [path]:
            digest.update(file.relative_to(root).as_posix().encode("utf-8"))
            digest.update(b"\0")
            digest.update(file.read_bytes())
            digest.update(b"\0")
    return digest.hexdigest()


@functools.lru_cache(maxsize=None)
def compiler_digest() -> str:
    """Digest of this process's :data:`COMPILER_SOURCES`.

    Computed once: the compiler a running process imported cannot change
    under it.
    """
    import repro

    return source_digest(Path(repro.__file__).parent, COMPILER_SOURCES)


def cache_key(config, package_version: str) -> Optional[str]:
    """Stable cache key for one session configuration, or ``None``.

    ``None`` means the configuration is not cacheable (module-tree models
    have no registry identity).  The key covers every input that shapes the
    compiled artifacts: model identity (name, width, sparsity, weight RNG),
    quantization (bits, signed), compile limits (slices, layers), the input
    shape override, the package version and the sources that shape the
    compiled model (:func:`compiler_digest`).
    """
    if not isinstance(config.model, str):
        return None
    rng = config.rng
    if not isinstance(rng, (int, str)):
        # Generator objects and seeds the registry cannot replay are not a
        # stable identity; skip caching rather than guessing.
        return None
    material = json.dumps(
        {
            "format": _FORMAT,
            "version": package_version,
            "compiler": compiler_digest(),
            "model": config.model,
            "width": config.width,
            "sparsity": config.sparsity,
            "rng": rng,
            "bits": config.bits,
            "signed": config.signed,
            "slices": config.slices,
            "layers": config.layers,
            "input_shape": list(config.input_shape) if config.input_shape else None,
        },
        sort_keys=True,
    )
    return hashlib.sha256(material.encode("utf-8")).hexdigest()


def _entry_path(directory: Path, key: str) -> Path:
    return directory / f"compiled-{key}.pkl"


def load(directory: Path, key: str):
    """Load a cached compiled model, or ``None`` on miss/corruption."""
    path = _entry_path(directory, key)
    try:
        with open(path, "rb") as handle:
            payload = pickle.load(handle)
    except FileNotFoundError:
        return None
    except Exception as error:  # corrupt/truncated entry: a miss, not a crash
        logger.warning("ignoring unreadable compile cache entry %s: %s", path, error)
        return None
    if not isinstance(payload, dict) or payload.get("format") != _FORMAT:
        return None
    return payload.get("compiled")


def store(directory: Path, key: str, compiled) -> bool:
    """Atomically persist a compiled model; best-effort (False on failure)."""
    try:
        directory.mkdir(parents=True, exist_ok=True)
        handle = tempfile.NamedTemporaryFile(
            mode="wb", dir=directory, prefix=f".compiled-{key}.", delete=False
        )
        try:
            with handle:
                pickle.dump(
                    {"format": _FORMAT, "compiled": compiled},
                    handle,
                    protocol=pickle.HIGHEST_PROTOCOL,
                )
            os.replace(handle.name, _entry_path(directory, key))
        except BaseException:
            os.unlink(handle.name)
            raise
    except Exception as error:
        logger.warning("compile cache store failed in %s: %s", directory, error)
        return False
    return True
