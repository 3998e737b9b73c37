"""Shared fixtures of the session-API suite.

Small module trees keep exact (every-slice) functional simulation at test
speed; the session tests run them through the full
compile -> deploy -> infer lifecycle on both executors and backends.
"""

import numpy as np
import pytest

from repro.nn.layers import (
    BatchNorm2d,
    Flatten,
    MaxPool2d,
    ReLU,
    TernaryConv2d,
    TernaryLinear,
)
from repro.nn.model import Sequential
from repro.nn.models.resnet import build_resnet18


@pytest.fixture(scope="module")
def images_rng():
    return np.random.default_rng(7)


@pytest.fixture(scope="module")
def tiny_cnn():
    """A minimal conv/conv/fc stack (fast enough for the executor matrix)."""
    model = Sequential(
        [
            TernaryConv2d(3, 4, kernel_size=3, stride=1, padding=1, sparsity=0.5, rng=1),
            BatchNorm2d(4),
            ReLU(),
            TernaryConv2d(4, 4, kernel_size=3, stride=1, padding=1, sparsity=0.5, rng=2),
            ReLU(),
            MaxPool2d(2),
            Flatten(),
            TernaryLinear(4 * 4 * 4, 10, sparsity=0.5, rng=3),
        ],
        name="tinycnn",
    )
    return model, (3, 8, 8)


@pytest.fixture(scope="module")
def resnet18_narrow():
    """The resnet18 topology (stem, 4 stages, shortcuts) at base width 4."""
    model = build_resnet18(num_classes=10, sparsity=0.8, rng=0, base_width=4)
    return model, (3, 32, 32)
