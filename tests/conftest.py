"""Shared fixtures: random small networks and a trained desk-scale model.

The trained model and its evaluation datasets are session-scoped because
training and gap searches dominate the suite's runtime.
"""

import numpy as np
import pytest

from apemkit.data import synthetic_dataset
from apemkit.netcore import (
    Conv2D,
    Dense,
    Flatten,
    MaxPool2D,
    Network,
    ReLU,
    build_desk_model,
    train,
)


def random_net(seed, input_shape=(1, 8, 8), n_classes=5, bias_free=False):
    """Small conv net with random weights for oracle-style checks."""
    rng = np.random.default_rng(seed)
    c, h, w = input_shape

    def bias(n):
        return np.zeros(n) if bias_free else rng.normal(0, 0.1, n)

    layers = [
        Conv2D(rng.normal(0, 0.5, (4, c, 3, 3)), bias(4), padding=1),
        ReLU(),
        MaxPool2D(2),
        Flatten(),
        Dense(rng.normal(0, 0.5, (n_classes, 4 * (h // 2) * (w // 2))), bias(n_classes)),
    ]
    return Network(layers, input_shape)


def random_dense_net(seed, n_in=12, n_classes=4, bias_free=False):
    rng = np.random.default_rng(seed)

    def bias(n):
        return np.zeros(n) if bias_free else rng.normal(0, 0.1, n)

    layers = [
        Dense(rng.normal(0, 0.5, (8, n_in)), bias(8)),
        ReLU(),
        Dense(rng.normal(0, 0.5, (n_classes, 8)), bias(n_classes)),
    ]
    return Network(layers, (n_in,))


@pytest.fixture(scope="session")
def desk_model():
    """Desk-scale CNN trained on the synthetic dataset."""
    ds = synthetic_dataset(8000, seed=1)
    net = train(build_desk_model(28, 10, 0), ds, epochs=2, lr=0.05, seed=0)
    return net


@pytest.fixture(scope="session")
def desk_test_set():
    """Held-out evaluation images (seed disjoint from training)."""
    return synthetic_dataset(300, seed=2)
