import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from nullspan.linalg import (
    FactorizationError,
    numerical_rank,
    orthonormal_nullspace,
    rank_tolerance,
    singular_values,
    smallest_eigenpair_gram,
    svd,
)


class TestSvd:
    def test_identity(self):
        res = svd(np.eye(3))
        np.testing.assert_allclose(res.singular_values, [1.0, 1.0, 1.0], rtol=0, atol=0)

    def test_diagonal_with_zero(self):
        res = svd(np.diag([3.0, 0.0]))
        np.testing.assert_allclose(res.singular_values, [3.0, 0.0], rtol=0, atol=0)

    def test_seeded_reconstruction(self):
        rng = np.random.default_rng(42)
        m = rng.standard_normal((5, 8))
        res = svd(m)
        k = res.singular_values.size
        recon = (res.left_vectors[:, :k] * res.singular_values) @ res.right_vectors[:, :k].T
        err = np.max(np.abs(m - recon))
        assert err <= 1e-10 * max(1.0, res.singular_values[0])

    def test_orthonormal_blocks(self):
        rng = np.random.default_rng(3)
        res = svd(rng.standard_normal((6, 4)))
        for q in (res.left_vectors, res.right_vectors):
            gram = q.T @ q
            assert np.max(np.abs(gram - np.eye(q.shape[1]))) <= 1e-12

    def test_sorted_nonincreasing_nonnegative(self):
        res = svd(np.random.default_rng(0).standard_normal((7, 5)))
        sv = res.singular_values
        assert np.all(sv >= 0)
        assert np.all(np.diff(sv) <= 0)

    def test_deterministic(self):
        m = np.random.default_rng(9).standard_normal((6, 6))
        a, b = svd(m.copy()), svd(m.copy())
        assert a.singular_values.tobytes() == b.singular_values.tobytes()
        assert a.left_vectors.tobytes() == b.left_vectors.tobytes()
        assert a.right_vectors.tobytes() == b.right_vectors.tobytes()

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="NaN or Inf"):
            svd(np.array([[1.0, np.nan], [0.0, 1.0]]))

    def test_rejects_non_2d(self):
        with pytest.raises(ValueError):
            svd(np.zeros(4))


class TestNumericalRank:
    def test_simple(self):
        assert numerical_rank([1.0, 1.0, 0.0], 2, 3) == 2

    def test_below_threshold(self):
        assert numerical_rank([5.0, 5e-18], 2, 2) == 1

    def test_all_zero(self):
        assert numerical_rank([0.0, 0.0], 3, 2) == 0
        assert numerical_rank([], 0, 0) == 0

    def test_full_row_rank_seeded(self):
        rng = np.random.default_rng(7)
        sv = singular_values(rng.standard_normal((5, 8)))
        assert numerical_rank(sv, 5, 8) == 5

    def test_unsorted_rejected(self):
        with pytest.raises(ValueError, match="non-increasing"):
            numerical_rank([1.0, 2.0], 2, 2)

    def test_tolerance_value(self):
        tau = rank_tolerance([2.0, 1.0], 3, 5)
        assert tau == 2.0 * 5 * np.finfo(np.float64).eps


class TestNullspace:
    def test_single_direction(self):
        u = orthonormal_nullspace(np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]))
        assert u.shape == (3, 1)
        np.testing.assert_allclose(u[:, 0], [0.0, 0.0, 1.0], atol=1e-14)

    def test_full_rank_square(self):
        rng = np.random.default_rng(11)
        u = orthonormal_nullspace(rng.standard_normal((4, 4)))
        assert u.shape == (4, 0)

    def test_seeded_wide(self):
        rng = np.random.default_rng(5)
        m = rng.standard_normal((5, 8))
        u = orthonormal_nullspace(m)
        assert u.shape == (8, 3)
        sigma_max = singular_values(m)[0]
        assert np.max(np.abs(m @ u)) <= 1e-10 * sigma_max
        assert np.max(np.abs(u.T @ u - np.eye(3))) <= 1e-12

    def test_sparse_input(self):
        m = sp.csr_matrix(np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]))
        u = orthonormal_nullspace(m)
        assert u.shape == (3, 1)

    def test_sign_convention(self):
        # largest-magnitude component of each column is positive
        rng = np.random.default_rng(13)
        u = orthonormal_nullspace(rng.standard_normal((3, 9)))
        for j in range(u.shape[1]):
            col = u[:, j]
            assert col[np.argmax(np.abs(col))] > 0

    def test_deterministic(self):
        m = np.random.default_rng(2).standard_normal((4, 7))
        assert orthonormal_nullspace(m).tobytes() == orthonormal_nullspace(m).tobytes()


@settings(max_examples=25, deadline=None)
@given(
    rows=st.integers(min_value=1, max_value=12),
    cols=st.integers(min_value=1, max_value=12),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    deficiency=st.integers(min_value=0, max_value=3),
)
def test_rank_nullity_property(rows, cols, seed, deficiency):
    rng = np.random.default_rng(seed)
    inner = max(1, min(rows, cols) - deficiency)
    m = rng.standard_normal((rows, inner)) @ rng.standard_normal((inner, cols))
    rank = numerical_rank(singular_values(m), rows, cols)
    nullity = orthonormal_nullspace(m).shape[1]
    assert rank + nullity == cols


class TestSmallestEigenpairGram:
    def test_diagonal(self):
        m = np.array([[2.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
        v, lam = smallest_eigenpair_gram(m)
        assert lam == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(v, [0.0, 1.0], atol=1e-12)

    def test_orthonormal_columns_degenerate(self):
        rng = np.random.default_rng(21)
        q, _ = np.linalg.qr(rng.standard_normal((6, 3)))
        v, lam = smallest_eigenpair_gram(q)
        assert lam == pytest.approx(1.0, abs=1e-12)
        assert np.linalg.norm(q @ v) == pytest.approx(1.0, abs=1e-12)
        assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-12)
        # degenerate spectrum still resolves deterministically
        v2, lam2 = smallest_eigenpair_gram(q)
        assert v.tobytes() == v2.tobytes() and lam == lam2

    def test_seeded_against_independent_eigendecomposition(self):
        rng = np.random.default_rng(17)
        m = rng.standard_normal((8, 5))
        v, lam = smallest_eigenpair_gram(m)
        lam_oracle = float(np.linalg.eigvalsh(m.T @ m)[0])
        assert abs(lam - lam_oracle) <= 1e-12 * max(1.0, lam_oracle)
        assert abs(float(np.linalg.norm(m @ v)) ** 2 - lam) <= 1e-10 * lam

    def test_minimality_against_sampling(self):
        rng = np.random.default_rng(29)
        m = rng.standard_normal((8, 5))
        _, lam = smallest_eigenpair_gram(m)
        deltas = rng.standard_normal((5, 10_000))
        deltas /= np.linalg.norm(deltas, axis=0)
        energies = np.sum((m @ deltas) ** 2, axis=0)
        assert np.all(energies >= lam - 1e-10)

    def test_sign_convention(self):
        rng = np.random.default_rng(31)
        m = rng.standard_normal((9, 4))
        v, _ = smallest_eigenpair_gram(m)
        nz = np.flatnonzero(np.abs(v) > np.abs(v).max() * 1e-12)
        assert v[nz[0]] > 0

    def test_requires_tall(self):
        with pytest.raises(ValueError, match="cols <= rows"):
            smallest_eigenpair_gram(np.zeros((2, 3)))


def test_factorization_error_is_runtime_error():
    assert issubclass(FactorizationError, RuntimeError)
