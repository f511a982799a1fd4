"""Shared fixtures: deterministic blob datasets and trained desk-scale models.

Trained models are session-scoped because training dominates suite runtime;
every consumer treats them as read-only.
"""

import numpy as np
import pytest

from iad import data, training


def _blobs(spread: float, seed_gen: int = 1, seed_split: int = 2):
    ds = data.make_blobs(3, 1000, data.triangle_centers(4.0), spread,
                         np.random.default_rng(seed_gen))
    train_ds, test_ds = data.split_scaled(ds, [2.0 / 3.0, 1.0 / 3.0],
                                          np.random.default_rng(seed_split))
    return train_ds, test_ds


def _desk_config(**overrides):
    base = dict(seed=7, max_epochs=60, t0=5, t_rate=20,
                p_norm=4.0, lambda_max=0.5)
    base.update(overrides)
    return training.TrainConfig(**base)


@pytest.fixture(scope="session")
def separated_blobs():
    """Well-separated 3-class blobs (train, test), features scaled to [0, 1]."""
    return _blobs(0.9)


@pytest.fixture(scope="session")
def overlapping_blobs():
    """Heavily overlapping blobs used for the misclassification-entropy
    contrast (accuracy ~0.85 so the error set is large)."""
    return _blobs(1.6)


@pytest.fixture(scope="session")
def diffuse_blobs():
    """Very diffuse blobs where the regularizer has visible work to do."""
    return _blobs(2.0)


@pytest.fixture(scope="session")
def desk_model(separated_blobs):
    """Reference desk-scale model: 2-32-32-3 net, p=4, lambda=0.5, seed 7."""
    train_ds, test_ds = separated_blobs
    net, record = training.train(train_ds, [32, 32], _desk_config(), loss="iad")
    return net, record, train_ds, test_ds


@pytest.fixture(scope="session")
def contrast_models(overlapping_blobs):
    """IAD (lambda=2) and EDL models trained identically on the same data."""
    train_ds, test_ds = overlapping_blobs
    iad_net, _ = training.train(train_ds, [32, 32],
                                _desk_config(lambda_max=2.0), loss="iad")
    edl_net, _ = training.train(train_ds, [32, 32],
                                _desk_config(lambda_max=0.0), loss="edl")
    return iad_net, edl_net, train_ds, test_ds


@pytest.fixture(scope="session")
def regularizer_models(diffuse_blobs):
    """The same IAD setup trained with lambda=0.5 and lambda=0."""
    train_ds, test_ds = diffuse_blobs
    reg_net, _ = training.train(train_ds, [32, 32], _desk_config(), loss="iad")
    plain_net, _ = training.train(train_ds, [32, 32],
                                  _desk_config(lambda_max=0.0), loss="iad")
    return reg_net, plain_net, train_ds, test_ds
