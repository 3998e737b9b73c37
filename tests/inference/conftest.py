"""Shared fixtures of the end-to-end inference suite.

The equivalence tests run the paper's benchmark topologies at reduced channel
width (``width_multiplier`` / ``base_width``): the layer recipes, strides,
residual shortcuts and pooling stages are those of vgg9 and resnet18, but the
narrow channels keep exact (every-slice) functional simulation at test speed.
"""

import numpy as np
import pytest

from repro.inference.activations import normalize_images
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
from repro.nn.models.vgg import build_vgg9
from repro.session import Session


@pytest.fixture(scope="module")
def images_rng():
    return np.random.default_rng(2024)


@pytest.fixture(scope="module")
def tiny_cnn():
    """A minimal conv/pool/fc stack (fast enough for the executor matrix)."""
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
def vgg9_narrow():
    """The vgg9 topology at 1/16 width on 16x16 inputs."""
    model = build_vgg9(
        num_classes=10, input_size=16, sparsity=0.85, rng=0, width_multiplier=1 / 16
    )
    return model, (3, 16, 16)


@pytest.fixture(scope="module")
def resnet18_narrow():
    """The resnet18 topology (stem, 4 stages, shortcuts) at base width 4."""
    model = build_resnet18(num_classes=10, sparsity=0.8, rng=0, base_width=4)
    return model, (3, 32, 32)


@pytest.fixture(scope="module")
def serve():
    """One request through a fresh weight-resident session.

    ``serve(model, images, batch=None, **config)`` compiles, deploys, serves
    ``images`` with :meth:`Session.infer` and closes; a module tree's input
    shape is taken from ``images`` unless ``input_shape`` is given.
    """

    def run(model, images, batch=None, **config):
        if config.get("input_shape") is None and not isinstance(model, str):
            config["input_shape"] = normalize_images(images)[1]
        with Session(model=model, **config) as session:
            session.compile().deploy()
            return session.infer(images, batch=batch)

    return run
