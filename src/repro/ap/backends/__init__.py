"""Pluggable execution backends for the associative processor.

Every backend implements the same instruction semantics on a shared
:class:`~repro.cam.array.CAMArray` and must produce byte-identical stored
state *and* :class:`~repro.cam.stats.CAMStats` event counters (see
:mod:`repro.ap.backends.base`).  Select one by name::

    from repro import AssociativeProcessor

    ap = AssociativeProcessor(rows=256, columns=64, backend="batched")

Available backends:

* ``reference`` - bit-exact masked-search / tagged-write interpreter (the
  hardware algorithm, pass by pass).  The semantic ground truth.
* ``batched`` - word-parallel x bit-parallel NumPy execution with analytic
  event accounting per instruction, plus whole-layer *wave* execution
  (:func:`repro.ap.backends.batched.execute_program_wave`): the inference
  engine stacks every (image, row tile) instance of a layer as packed
  nanowire words and evaluates the shared instruction stream once, the
  tile's slice programs side by side in lockstep - one batch of NumPy
  calls per group of instructions for the whole layer.  The default.

The default can be overridden with the ``REPRO_AP_BACKEND`` environment
variable (CI uses ``REPRO_AP_BACKEND=reference`` to run the whole suite on
the ground-truth interpreter).  Third-party backends can be added with
:func:`register_backend`.
"""

from __future__ import annotations

import os
from typing import Dict, List, Type, Union

from repro.ap.backends.base import ExecutionBackend
from repro.ap.backends.batched import (
    BatchedBackend,
    execute_program_wave,
    lut_truth_matrix,
)
from repro.ap.backends.reference import ReferenceBackend
from repro.cam.array import CAMArray
from repro.errors import ConfigurationError

#: Specification accepted wherever a backend can be selected.
BackendSpec = Union[str, Type[ExecutionBackend]]

_BACKENDS: Dict[str, Type[ExecutionBackend]] = {}


def register_backend(backend_class: Type[ExecutionBackend]) -> Type[ExecutionBackend]:
    """Register an :class:`ExecutionBackend` subclass under its ``name``.

    Usable as a class decorator; returns the class unchanged.
    """
    name = getattr(backend_class, "name", None)
    if not isinstance(name, str) or not name or name == "abstract":
        raise ConfigurationError(
            f"backend class {backend_class!r} needs a non-empty 'name' attribute"
        )
    _BACKENDS[name] = backend_class
    return backend_class


register_backend(ReferenceBackend)
register_backend(BatchedBackend)

#: Environment variable overriding the default backend choice.
BACKEND_ENV_VARIABLE = "REPRO_AP_BACKEND"


def _default_backend() -> str:
    """Default backend name, honouring ``REPRO_AP_BACKEND``.

    Backends are byte-identical in outputs, stored state and event counters
    (enforced by the equivalence suite), so the default is the fast
    ``batched`` implementation; ``reference`` remains the ground truth and
    can be forced globally through the environment.
    """
    name = os.environ.get(BACKEND_ENV_VARIABLE, "").strip()
    if not name:
        return BatchedBackend.name
    if name not in _BACKENDS:
        raise ConfigurationError(
            f"{BACKEND_ENV_VARIABLE}={name!r} is not a registered execution "
            f"backend; available: {', '.join(sorted(_BACKENDS))}"
        )
    return name


#: Name of the backend used when none is requested.
DEFAULT_BACKEND = _default_backend()


def available_backends() -> List[str]:
    """Names of all registered execution backends, sorted."""
    return sorted(_BACKENDS)


def resolve_backend(spec: BackendSpec) -> Type[ExecutionBackend]:
    """Resolve a backend specification (name or class) to its class."""
    if isinstance(spec, str):
        try:
            return _BACKENDS[spec]
        except KeyError:
            raise ConfigurationError(
                f"unknown execution backend {spec!r}; "
                f"available: {', '.join(available_backends())}"
            ) from None
    if isinstance(spec, type) and issubclass(spec, ExecutionBackend):
        return spec
    raise ConfigurationError(
        f"backend must be a name or an ExecutionBackend subclass, got {spec!r}"
    )


def create_backend(
    spec: BackendSpec, array: CAMArray, carry_column: int
) -> ExecutionBackend:
    """Instantiate the backend selected by ``spec`` on ``array``."""
    return resolve_backend(spec)(array=array, carry_column=carry_column)


__all__ = [
    "ExecutionBackend",
    "ReferenceBackend",
    "BatchedBackend",
    "execute_program_wave",
    "BackendSpec",
    "DEFAULT_BACKEND",
    "available_backends",
    "register_backend",
    "resolve_backend",
    "create_backend",
    "lut_truth_matrix",
]
