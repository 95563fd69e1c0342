import numpy as np
import pytest

from nullspan.layers import build_equivalent
from nullspan.subspace import harmless_basis
from nullspan.verification import seeded_network

ROOT_SEED = 1234


@pytest.fixture(scope="session")
def root_seed():
    return ROOT_SEED


@pytest.fixture(scope="session")
def default_net():
    return seeded_network(ROOT_SEED, None)


@pytest.fixture(scope="session")
def first_layer_a(default_net):
    return build_equivalent(default_net.layers[0])


@pytest.fixture(scope="session")
def first_layer_basis(first_layer_a):
    # One certified QR basis of the 2560x3072 first-layer matrix, shared by the suite.
    return harmless_basis(first_layer_a)


@pytest.fixture(scope="session")
def first_layer_sigma_max(first_layer_a):
    # Power iteration: cheap, deterministic spectral-norm estimate.
    a = first_layer_a
    v = np.full(a.shape[1], 1.0 / np.sqrt(a.shape[1]))
    for _ in range(50):
        w = a.T @ (a @ v)
        v = w / np.linalg.norm(w)
    return float(np.linalg.norm(a @ v))
