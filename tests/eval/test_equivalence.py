"""Tests for the end-to-end inference equivalence harness."""

import numpy as np
import pytest

from repro.eval.equivalence import check_inference_equivalence
from repro.nn.layers import Flatten, ReLU, TernaryConv2d, TernaryLinear
from repro.nn.model import Sequential
from repro.session import Session


@pytest.fixture(scope="module")
def tiny_model():
    model = Sequential(
        [
            TernaryConv2d(2, 3, kernel_size=3, stride=1, padding=1, sparsity=0.5, rng=4),
            ReLU(),
            Flatten(),
            TernaryLinear(3 * 6 * 6, 5, sparsity=0.5, rng=5),
        ],
        name="eq-model",
    )
    return model, (2, 6, 6)


def _infer(model, input_shape, images):
    with Session(model=model, input_shape=input_shape, bits=4) as session:
        session.compile().deploy()
        return session.infer(images)


def test_consistent_run_reports_identical(tiny_model):
    model, input_shape = tiny_model
    images = np.random.default_rng(0).uniform(0.0, 1.0, size=(2,) + input_shape)
    result = _infer(model, input_shape, images)
    verdict = check_inference_equivalence(model, images, result, bits=4)
    assert verdict.consistent
    assert verdict.logits_identical
    assert verdict.predictions_match
    assert verdict.max_abs_diff == 0.0
    assert "byte-identical" in verdict.describe()
    assert verdict.images == 2


def test_divergence_is_reported(tiny_model):
    """A corrupted result must be flagged with a localised diff magnitude."""
    model, input_shape = tiny_model
    images = np.random.default_rng(1).uniform(0.0, 1.0, size=(1,) + input_shape)
    result = _infer(model, input_shape, images)
    result.logits = result.logits + 0.25
    verdict = check_inference_equivalence(model, images, result, bits=4)
    assert not verdict.consistent
    assert verdict.max_abs_diff == pytest.approx(0.25)
    assert "MISMATCH" in verdict.describe()
