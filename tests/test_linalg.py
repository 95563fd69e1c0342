import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from nullspan.layers import ConvLayerSpec, build_conv_equivalent
from nullspan.linalg import (
    CERTIFIED_PATH,
    SVD_PATH,
    FactorizationError,
    decide_rank,
    numerical_rank,
    orthonormal_nullspace,
    rank_tolerance,
    rank_tolerance_bound,
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


def svd_nullity(m):
    rows, cols = m.shape
    return cols - numerical_rank(singular_values(m), rows, cols)


def svd_nullspace(m):
    """Reference basis: right singular vectors past the SVD rank."""
    res = svd(m)
    rank = numerical_rank(res.singular_values, *m.shape)
    return res.right_vectors[:, rank:]


@settings(max_examples=60, deadline=None)
@given(
    rows=st.integers(min_value=1, max_value=40),
    cols=st.integers(min_value=1, max_value=40),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    deficiency=st.integers(min_value=0, max_value=3),
    decay=st.integers(min_value=0, max_value=20),
)
def test_certified_nullity_equals_svd_nullity(rows, cols, seed, deficiency, decay):
    # Wide, tall and square products of exact inner rank min(rows, cols) -
    # deficiency, with the smallest inner direction scaled by 10^-decay so
    # that some draws sit near, at or below the rank tolerance.
    rng = np.random.default_rng(seed)
    inner = max(1, min(rows, cols) - deficiency)
    left = rng.standard_normal((rows, inner))
    left[:, -1] *= 10.0 ** -decay
    m = left @ rng.standard_normal((inner, cols))
    decision = decide_rank(m)
    assert decision.nullity == svd_nullity(m)
    assert decision.rank + decision.nullity == cols
    if decision.path == CERTIFIED_PATH:
        assert decision.rank == min(rows, cols)
        assert decision.evidence["sigma_min_lower"] > decision.evidence["tau_ub"]
        assert singular_values(m)[-1] > decision.evidence["sigma_min_lower"]
    else:
        ev = decision.evidence
        assert decision.path == SVD_PATH
        assert ev["sigma_r1"] <= ev["tolerance"]
        assert ev["sigma_r"] is None or ev["sigma_r"] > ev["tolerance"]


class TestRankCertificate:
    def test_well_conditioned_shapes_certify(self):
        rng = np.random.default_rng(8)
        for shape in ((30, 50), (50, 30), (40, 40)):
            m = rng.standard_normal(shape)
            decision = decide_rank(sp.csr_matrix(m))
            assert decision.path == CERTIFIED_PATH
            assert decision.nullity == max(0, shape[1] - shape[0])
            assert decision.evidence["tau_ub"] == rank_tolerance_bound(m)
            assert decision.evidence["tau_ub"] >= rank_tolerance(singular_values(m), *shape)

    def test_polyphase_geometry_declines_and_falls_back(self):
        # The near-deficient polyphase geometry of the layer tests: full rank
        # in exact arithmetic, singular values decaying below the rank
        # tolerance, so no certificate may hold and the SVD decides.
        rng = np.random.default_rng(1603)
        kernels = rng.integers(-9, 10, size=(12, 3, 3, 3)).astype(float)
        spec = ConvLayerSpec(3, 16, 16, 12, 3, 3, stride=2, zero_padding=1,
                             kernels=kernels)
        eq = build_conv_equivalent(spec)
        decision = decide_rank(eq)
        assert decision.path == SVD_PATH
        assert decision.nullity == svd_nullity(eq) > 0
        sv = singular_values(eq)
        assert decision.evidence == {"sigma_r": float(sv[decision.rank - 1]),
                                     "sigma_r1": float(sv[decision.rank]),
                                     "tolerance": rank_tolerance(sv, eq.shape[0], eq.shape[1])}
        with_basis = decide_rank(eq, with_basis=True)
        assert with_basis.path == SVD_PATH
        assert with_basis.basis.shape == (eq.shape[1], with_basis.nullity)
        # Declined calls run the plain SVD basis: right singular vectors past
        # the rank, re-orthonormalized, largest component of each made positive.
        q, _ = np.linalg.qr(svd_nullspace(eq))
        for j in range(q.shape[1]):
            if q[np.argmax(np.abs(q[:, j])), j] < 0:
                q[:, j] = -q[:, j]
        assert with_basis.basis.tobytes() == q.tobytes()

    def test_zero_matrix_declines_with_rank_zero(self):
        decision = decide_rank(np.zeros((3, 5)))
        assert decision.path == SVD_PATH
        assert decision.rank == 0 and decision.nullity == 5
        assert decision.evidence == {"sigma_r": None, "sigma_r1": 0.0, "tolerance": 0.0}

    @pytest.mark.parametrize("fmt", [np.asarray, sp.csr_matrix])
    def test_rejects_non_finite(self, fmt):
        m = fmt(np.array([[1.0, np.inf], [0.0, 1.0]]))
        with pytest.raises(ValueError, match="NaN or Inf"):
            decide_rank(m)
        with pytest.raises(ValueError, match="NaN or Inf"):
            smallest_eigenpair_gram(m)

    def test_dense_input_is_not_overwritten(self):
        m = np.random.default_rng(4).standard_normal((20, 30))
        before = m.copy()
        decide_rank(m, with_basis=True)
        assert m.tobytes() == before.tobytes()


class TestQrBasis:
    @pytest.fixture(scope="class")
    def wide(self):
        rng = np.random.default_rng(19)
        return sp.random(120, 200, density=0.2, random_state=rng, format="csr",
                         data_rvs=rng.standard_normal)

    def test_certified_qr_basis(self, wide):
        decision = decide_rank(wide, with_basis=True)
        assert decision.path == CERTIFIED_PATH
        u = decision.basis
        assert u.shape == (200, 80)
        assert np.max(np.abs(u.T @ u - np.eye(80))) <= 1e-12
        assert np.max(np.abs(wide @ u)) <= 1e-10 * singular_values(wide)[0]
        for j in range(u.shape[1]):
            assert u[np.argmax(np.abs(u[:, j])), j] > 0

    def test_same_subspace_as_svd_basis(self, wide):
        u = decide_rank(wide, with_basis=True).basis
        v = svd_nullspace(wide)
        assert v.shape == u.shape
        # Sine of the largest principal angle between span(u) and span(v).
        assert np.linalg.norm(u - v @ (v.T @ u), 2) <= 1e-12

    def test_byte_deterministic(self, wide):
        a = decide_rank(wide, with_basis=True).basis
        b = decide_rank(wide.copy(), with_basis=True).basis
        assert a.tobytes() == b.tobytes()

    def test_tall_and_square_bases_are_empty(self):
        rng = np.random.default_rng(23)
        for shape in ((50, 30), (30, 30)):
            decision = decide_rank(rng.standard_normal(shape), with_basis=True)
            assert decision.path == CERTIFIED_PATH
            assert decision.basis.shape == (shape[1], 0)


class TestSmallestEigenpairGram:
    def test_subset_eigenvalue_matches_full_eigh(self):
        rng = np.random.default_rng(37)
        m = sp.random(300, 120, density=0.1, random_state=rng, format="csr",
                      data_rvs=rng.standard_normal)
        v, lam = smallest_eigenpair_gram(m)
        dense = m.toarray()
        lam_full = float(np.linalg.eigvalsh(dense.T @ dense)[0])
        assert abs(lam - lam_full) <= 1e-12 * lam_full
        v_dense, lam_dense = smallest_eigenpair_gram(dense)
        assert abs(lam_dense - lam_full) <= 1e-12 * lam_full
        assert np.max(np.abs(v - v_dense)) <= 1e-10

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

    def test_wide_matrix_gives_a_null_direction(self):
        rng = np.random.default_rng(33)
        m = rng.standard_normal((3, 5))
        v, lam = smallest_eigenpair_gram(m)
        assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-12)
        assert lam <= 1e-24 and np.linalg.norm(m @ v) ** 2 == lam


def test_factorization_error_is_runtime_error():
    assert issubclass(FactorizationError, RuntimeError)
