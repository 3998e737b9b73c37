"""Small argument-validation helpers used across configuration dataclasses."""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.errors import ConfigurationError, QuantizationError


def check_positive(name: str, value: float) -> None:
    """Raise :class:`ConfigurationError` unless ``value`` is strictly positive."""
    if not value > 0:
        raise ConfigurationError(f"{name} must be > 0, got {value!r}")


def check_non_negative(name: str, value: float) -> None:
    """Raise :class:`ConfigurationError` unless ``value`` is >= 0."""
    if value < 0:
        raise ConfigurationError(f"{name} must be >= 0, got {value!r}")


def check_in_range(name: str, value: float, lo: float, hi: float) -> None:
    """Raise :class:`ConfigurationError` unless ``lo <= value <= hi``."""
    if not (lo <= value <= hi):
        raise ConfigurationError(f"{name} must be in [{lo}, {hi}], got {value!r}")


def check_probability(name: str, value: float) -> None:
    """Raise :class:`ConfigurationError` unless ``value`` is a probability."""
    check_in_range(name, value, 0.0, 1.0)


def check_power_of_two(name: str, value: int) -> None:
    """Raise :class:`ConfigurationError` unless ``value`` is a positive power of two."""
    if value <= 0 or (value & (value - 1)) != 0:
        raise ConfigurationError(f"{name} must be a positive power of two, got {value!r}")


def check_ternary(weights: Any, name: str = "weights") -> np.ndarray:
    """Validate that an array contains only the ternary values {-1, 0, +1}.

    Returns the array converted to ``int8``.
    """
    array = np.asarray(weights)
    if not ((array == 0) | (array == 1) | (array == -1)).all():
        values = np.unique(array)
        raise QuantizationError(
            f"{name} must be ternary (values in {{-1, 0, 1}}), found values {values[:10]}"
        )
    return array.astype(np.int8)
