import numpy as np
import pytest
import scipy.sparse as sp

from nullspan.layers import build_equivalent
from nullspan.linalg import _blas_threads
from nullspan.subspace import harmless_basis
from nullspan.verification import seeded_network

ROOT_SEED = 1234


def rotated_basis(u, seed):
    """Another orthonormal basis of span(u): u times a seeded random
    rotation, with its columns permuted."""
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((u.shape[1], u.shape[1])))
    return (u @ q)[:, rng.permutation(u.shape[1])]


def raw_qr_basis(m):
    """Orthonormal basis of N(m) for a wide m of full row rank, from
    another factorization: the trailing columns of Q from scipy.linalg.qr's
    raw mode on the dense m.T (geqrf at its optimal lwork), applied by
    ormqr."""
    import scipy.linalg
    a_t = m.toarray().T if sp.issparse(m) else np.array(m, dtype=np.float64).T
    (h, tau), _ = scipy.linalg.qr(a_t, mode="raw")
    n, k = h.shape
    c = np.zeros((n, n - k), order="F")
    c[k:, :] = np.eye(n - k)
    (ormqr,) = scipy.linalg.get_lapack_funcs(("ormqr",), (h,))
    lwork = int(ormqr("L", "N", h, tau, c, -1)[1][0])
    q, _, info = ormqr("L", "N", h, tau, c, lwork)
    assert info == 0
    return q


@pytest.fixture(scope="session", autouse=True)
def cli_blas_threads():
    # In-process tests run at the BLAS thread count of the CLI's commands,
    # so their results match the CLI's bit for bit.
    with _blas_threads(1):
        yield


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
