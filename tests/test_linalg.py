import os
import subprocess
import sys
import textwrap
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
import scipy
import scipy.linalg
import scipy.sparse as sp
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from nullspan import linalg
from nullspan.cli import main
from nullspan.layers import (
    ConvLayerSpec,
    FcLayerSpec,
    build_conv_equivalent,
    build_equivalent,
    save_layer_json,
)
from nullspan.linalg import (
    CERTIFIED_PATH,
    SVD_PATH,
    FactorizationError,
    certified_rank,
    decide_rank,
    numerical_rank,
    orthonormal_nullspace,
    rank_tolerance,
    rank_tolerance_bound,
    sigma_max_bound,
    singular_values,
    smallest_eigenpair_gram,
    svd,
)
from nullspan.subspace import least_harmful
from nullspan.verification import seeded_network

from conftest import raw_qr_basis


class TestSvd:
    def test_identity(self):
        _, s, _ = svd(np.eye(3))
        np.testing.assert_allclose(s, [1.0, 1.0, 1.0], rtol=0, atol=0)

    def test_diagonal_with_zero(self):
        _, s, _ = svd(np.diag([3.0, 0.0]))
        np.testing.assert_allclose(s, [3.0, 0.0], rtol=0, atol=0)

    def test_seeded_reconstruction(self):
        # A 16-entry block densifies the 5x8 matrix 2 rows at a time.
        m = np.random.default_rng(42).standard_normal((5, 8))
        for block in (linalg._DENSIFY_BLOCK, 16):
            with mock.patch.object(linalg, "_DENSIFY_BLOCK", block):
                u, s, vt = svd(m)
            k = s.size
            recon = (u[:, :k] * s) @ vt[:k]
            err = np.max(np.abs(m - recon))
            assert err <= 1e-10 * max(1.0, s[0])

    def test_orthonormal_blocks(self):
        rng = np.random.default_rng(3)
        u, _, vt = svd(rng.standard_normal((6, 4)))
        for q in (u, vt.T):
            gram = q.T @ q
            assert np.max(np.abs(gram - np.eye(q.shape[1]))) <= 1e-12

    def test_sorted_nonincreasing_nonnegative(self):
        _, sv, _ = svd(np.random.default_rng(0).standard_normal((7, 5)))
        assert np.all(sv >= 0)
        assert np.all(np.diff(sv) <= 0)

    def test_deterministic(self):
        m = np.random.default_rng(9).standard_normal((6, 6))
        for a, b in zip(svd(m.copy()), svd(m.copy())):
            assert a.tobytes() == b.tobytes()

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="NaN or Inf"):
            svd(np.array([[1.0, np.nan], [0.0, 1.0]]))

    def test_rejects_non_2d(self):
        with pytest.raises(ValueError):
            svd(np.zeros(4))

    def test_one_dense_copy(self):
        # LAPACK factors the one dense copy that the SVD makes. numpy's svd
        # would copy it once more, out of tracemalloc's sight, so a child
        # process reads its peak RSS before and after the singular values of
        # a filled 1200x1300 CSR matrix, after a warm-up call has mapped
        # LAPACK and the buffers of both BLAS threads. In dense copies of
        # the matrix, two copies read about 2.1 and one reads 1.1.
        src = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(p for p in (str(src), env.get("PYTHONPATH")) if p)
        probe = textwrap.dedent("""
            import resource
            import numpy as np, scipy.sparse as sp
            from nullspan.linalg import _blas_threads, singular_values
            rows, cols = 1200, 1300
            # no temporary of the matrix's size, which would raise the peak
            # that the SVD's copy has to pass
            indices = np.empty((rows, cols), dtype=np.int32)
            indices[:] = np.arange(cols, dtype=np.int32)
            m = sp.csr_matrix((np.random.default_rng(0).standard_normal(rows * cols),
                               indices.reshape(-1),
                               np.arange(0, rows * cols + 1, cols, dtype=np.int32)),
                              shape=(rows, cols))
            with _blas_threads(2):
                singular_values(np.random.default_rng(1).standard_normal((300, 300)))
            before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            singular_values(m)
            print(before, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
        """)
        proc = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                              text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr[-2000:]
        before, after = map(int, proc.stdout.split())
        # ru_maxrss counts KiB on Linux
        assert (after - before) * 1024 < 1.5 * 1200 * 1300 * 8


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
    _, s, vt = svd(m)
    return vt[numerical_rank(s, *m.shape):].T


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


@settings(max_examples=80, deadline=None)
@given(
    rows=st.integers(min_value=1, max_value=30),
    cols=st.integers(min_value=1, max_value=40),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    density=st.sampled_from([0.0, 0.05, 0.2]),
    block=st.sampled_from([96, 5, 3, 1]),
)
def test_band_route_matches_svd(rows, cols, seed, density, block):
    # Sparse matrices in shuffled order, most of full rank through one
    # pivot per row in a random column; zero rows and columns appear at low
    # density. Band order, the band certificate and the staircase QR must
    # agree with the SVD's nullity and give an orthonormal nullspace basis.
    # Small QR blocks put many block boundaries into small matrices.
    rng = np.random.default_rng(seed)
    m = sp.random(rows, cols, density=density, random_state=rng, format="csr",
                  data_rvs=rng.standard_normal)
    pivots = min(rows, cols) - int(rng.integers(0, 2))
    m = (m + sp.csr_matrix((np.full(pivots, 3.0),
                            (rng.permutation(rows)[:pivots], rng.permutation(cols)[:pivots])),
                           shape=(rows, cols))).tocsr()
    with mock.patch.object(linalg, "_QR_BLOCK", block):
        decision = decide_rank(m, with_basis=True)
    assert decision.nullity == svd_nullity(m)
    u = decision.basis
    assert u.shape == (cols, decision.nullity)
    if u.shape[1]:
        assert np.max(np.abs(u.T @ u - np.eye(u.shape[1]))) <= 1e-13
        assert np.max(np.abs(m @ u)) <= 1e-13 * max(1.0, singular_values(m)[0])


@st.composite
def small_lowerings(draw):
    """The lowered matrix of a small conv or fc layer. Ternary kernels and
    fc weights of inner rank below min(n_in, n_out) make some of them rank
    deficient, so the certificate declines on those."""
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    if draw(st.booleans()):
        c_in, c_out = draw(st.integers(1, 3)), draw(st.integers(1, 4))
        height, width = draw(st.integers(3, 7)), draw(st.integers(3, 7))
        kernel = draw(st.integers(1, 3))
        stride, padding = draw(st.integers(1, 2)), draw(st.integers(0, kernel - 1))
        kernels = rng.integers(-1, 2, size=(c_out, c_in, kernel, kernel)).astype(float)
        spec = ConvLayerSpec(c_in, height, width, c_out, kernel, kernel, stride=stride,
                             zero_padding=padding, kernels=kernels)
    else:
        n_in, n_out = draw(st.integers(1, 12)), draw(st.integers(1, 12))
        inner = max(1, min(n_in, n_out) - draw(st.integers(0, 2)))
        weight = rng.standard_normal((n_in, inner)) @ rng.standard_normal((inner, n_out))
        spec = FcLayerSpec(in_features=n_in, out_features=n_out, weight=weight)
    return build_equivalent(spec)


# A 16x18 conv lowering of rank 8 (ternary 1x1 kernels, stride 2), which the
# certificate declines.
DECLINED_CONV = build_conv_equivalent(ConvLayerSpec(
    2, 3, 3, 4, 1, 1, stride=2,
    kernels=np.random.default_rng(0).integers(-1, 2, size=(4, 2, 1, 1)).astype(float)))


@settings(max_examples=60, deadline=None)
@given(m=small_lowerings())
@example(m=build_equivalent(ConvLayerSpec(2, 5, 5, 3, 3, 3, kernels=np.zeros((3, 2, 3, 3)))))
@example(m=build_equivalent(FcLayerSpec(in_features=12, out_features=9,
                                        weight=np.random.default_rng(6).standard_normal((12, 9)))))
def test_certified_rank_is_the_certified_branch_of_decide_rank(m):
    # certified_rank declines exactly where decide_rank runs the SVD, and
    # elsewhere returns decide_rank's decision: the same evidence, and the
    # same basis bytes.
    decision = decide_rank(m)
    certified = certified_rank(m)
    assert (certified is None) == (decision.path == SVD_PATH)
    if certified is None:
        assert certified_rank(m, with_basis=True) is None
        return
    assert certified.path == CERTIFIED_PATH and certified.basis is None
    assert (certified.rank, certified.nullity) == (decision.rank, decision.nullity)
    assert certified.evidence == decision.evidence
    u, v = certified_rank(m, with_basis=True).basis, decide_rank(m, with_basis=True).basis
    assert u.shape == v.shape and u.tobytes() == v.tobytes()


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
        # the rank, as LAPACK returns them. The same LAPACK call on the same
        # matrix, so the bytes match with no sign rule.
        assert with_basis.basis.tobytes() == svd_nullspace(eq).tobytes()

    def test_svd_path_decides_where_the_singular_values_overflow(self):
        # Every entry of 2^1023 m is normal, but its largest singular value
        # passes 2^1024. The singular values of the scaled copy decide, so
        # the rank stays m's where the overflowed values would give rank 0.
        m = DECLINED_CONV
        base = decide_rank(m, with_basis=True)
        with np.errstate(over="ignore"):
            decision = decide_rank(m * np.ldexp(1.0, 1023), with_basis=True)
            evidence = {key: np.ldexp(value, 1023) for key, value in base.evidence.items()}
        assert (base.path, base.rank) == (SVD_PATH, 8)
        assert (decision.path, decision.rank, decision.nullity) == (SVD_PATH, 8, 10)
        assert decision.basis.tobytes() == base.basis.tobytes()
        assert decision.evidence == evidence

    def test_tall_svd_basis_skips_the_square_u(self):
        # A declined 2000x100 fc needs V only; a full SVD would also return
        # a 2000x2000 U (30.5 MiB) and take a traced peak of 34.1 MiB.
        rng = np.random.default_rng(0)
        weight = rng.standard_normal((100, 90)) @ rng.standard_normal((90, 2000))
        m = build_equivalent(FcLayerSpec(in_features=100, out_features=2000, weight=weight))
        tracemalloc.start()
        try:
            decision = decide_rank(m, with_basis=True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (decision.path, decision.rank, decision.basis.shape) == (SVD_PATH, 90, (100, 10))
        assert peak < 2000 * 2000 * 8 / 2

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

    def test_certificate_evaluates_sigma_max_bound_once(self, monkeypatch):
        # The Schur bound and the scale exponent come from one _unit_schur
        # call per entry point: the certificate and the QR of a certified
        # decide_rank share it, and so do the Gram bound and the band Gram of
        # smallest_eigenpair_gram.
        calls = []
        unit_schur = linalg._unit_schur

        def counted(m):
            calls.append(m.shape)
            return unit_schur(m)

        monkeypatch.setattr(linalg, "_unit_schur", counted)
        m = np.random.default_rng(3).standard_normal((20, 30))
        decision = decide_rank(m, with_basis=True)
        assert decision.path == CERTIFIED_PATH
        assert calls == [(20, 30)]
        smallest_eigenpair_gram(m.T)
        assert calls == [(20, 30), (30, 20)]

    def test_dense_input_is_not_overwritten(self):
        m = np.random.default_rng(4).standard_normal((20, 30))
        before = m.copy()
        decide_rank(m, with_basis=True)
        assert m.tobytes() == before.tobytes()

    @pytest.mark.parametrize("duplicate", [False, True])
    @pytest.mark.parametrize("shape", [(20, 30), (30, 20)])
    def test_csr_input_is_not_reordered(self, shape, duplicate):
        # scipy sorts the indices of a CSR matrix and sums its duplicates in
        # place on first use, so linalg must not hand it the caller's arrays:
        # each row here lists its columns in reverse, and one entry is stored
        # as two halves.
        rows, cols = shape
        dense = 3.0 * np.random.default_rng(62).standard_normal(shape)
        data, indices = dense[:, ::-1].ravel(), np.tile(np.arange(cols)[::-1], rows)
        indptr = np.arange(0, rows * cols + 1, cols)
        if duplicate:
            data = np.r_[data[0] / 2, data[0] / 2, data[1:]]
            indices, indptr = np.r_[indices[0], indices], np.r_[0, indptr[1:] + 1]
        m = sp.csr_matrix((data, indices, indptr), shape=shape)
        stored = [a.tobytes() for a in (m.data, m.indices, m.indptr)]
        for call in (svd, singular_values, sigma_max_bound, rank_tolerance_bound,
                     orthonormal_nullspace, smallest_eigenpair_gram,
                     lambda a: certified_rank(a, with_basis=True),
                     lambda a: decide_rank(a, with_basis=True)):
            call(m)
            assert [a.tobytes() for a in (m.data, m.indices, m.indptr)] == stored


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

    def test_dense_input_matches_lapack_qr(self):
        # A fully filled matrix keeps its order and has a full staircase, so
        # the staircase QR is a plain blocked Householder QR: the same reflectors
        # as LAPACK's geqrf, blocked differently.
        m = np.random.default_rng(29).standard_normal((200, 300))
        decision = decide_rank(m, with_basis=True)
        assert decision.path == CERTIFIED_PATH
        assert np.max(np.abs(decision.basis - raw_qr_basis(m))) <= 1e-13

    @pytest.fixture(scope="class")
    def conv(self):
        kernels = np.random.default_rng(31).standard_normal((8, 3, 3, 3))
        m = build_conv_equivalent(ConvLayerSpec(3, 16, 16, 8, 3, 3, stride=2,
                                                zero_padding=1, kernels=kernels))
        assert m.shape == (512, 768)
        return m

    def test_conv_basis_spans_the_svd_nullspace(self, conv):
        decision = decide_rank(conv, with_basis=True)
        assert decision.path == CERTIFIED_PATH
        u, v = decision.basis, svd_nullspace(conv)
        assert u.shape == v.shape == (768, 256)
        assert np.linalg.norm(u - v @ (v.T @ u), 2) <= 1e-12
        assert np.max(np.abs(u.T @ u - np.eye(256))) <= 1e-14
        assert np.max(np.abs(conv @ u)) <= 1e-15 * singular_values(conv)[0]

    def test_conv_basis_repeats_byte_for_byte(self, conv):
        a = decide_rank(conv, with_basis=True).basis
        b = decide_rank(conv.copy(), with_basis=True).basis
        assert a.tobytes() == b.tobytes()

    def test_staircase_block_boundaries(self):
        # Row j of this layer touches columns j to j + 3, so each 96-column
        # block of the QR ends three rows below its last column and the
        # third column after it starts exactly on that row: the trailing
        # update must reach it. The basis must span the SVD nullspace, and a
        # dense copy, routed by its fill like the CSR, gives the same bytes.
        rng = np.random.default_rng(43)
        k, n = 250, 300
        rows = np.repeat(np.arange(k), 4)
        cols = rows + np.tile(np.arange(4), k)
        values = rng.standard_normal(4 * k) + np.tile([3.0, 0.0, 0.0, 0.0], k)
        m = sp.csr_matrix((values, (rows, cols)), shape=(k, n))
        v = svd_nullspace(m)
        decision = decide_rank(m, with_basis=True)
        assert decision.path == CERTIFIED_PATH
        u = decision.basis
        assert np.linalg.norm(u - v @ (v.T @ u), 2) <= 1e-12
        assert np.max(np.abs(m @ u)) <= 1e-14 * singular_values(m)[0]
        assert decide_rank(m.toarray(), with_basis=True).basis.tobytes() == u.tobytes()

    def test_sparse_input_filled_past_the_sparse_gram_takes_the_dense_route(self, conv):
        # The fill alone picks the route: a filled matrix and a conv
        # lowering each give the same bits as an ndarray and as a CSR.
        filled = np.random.default_rng(47).standard_normal((40, 70))
        for m in (filled, conv.toarray()):
            csr = sp.csr_matrix(m)
            assert (decide_rank(csr, with_basis=True).basis.tobytes()
                    == decide_rank(m, with_basis=True).basis.tobytes())
            v, lam = smallest_eigenpair_gram(csr)
            v_dense, lam_dense = smallest_eigenpair_gram(m)
            assert v.tobytes() == v_dense.tobytes() and lam == lam_dense

    def test_uncovered_inputs_are_basis_vectors(self):
        # Stride 3 past a 2-wide kernel never reads input rows and columns 2,
        # 5 and 8: all-zero columns of A, which band order puts last and the
        # QR leaves untouched, so each is a unit vector of the basis.
        kernels = np.random.default_rng(37).standard_normal((6, 2, 2, 2))
        spec = ConvLayerSpec(2, 9, 9, 6, 2, 2, stride=3, zero_padding=0, kernels=kernels)
        m = build_conv_equivalent(spec)
        uncovered = np.flatnonzero(np.asarray(abs(m).sum(axis=0)).ravel() == 0)
        assert uncovered.size == 2 * (81 - 36)
        decision = decide_rank(m, with_basis=True)
        assert decision.path == CERTIFIED_PATH and decision.nullity == 162 - 54
        u, v = decision.basis, svd_nullspace(m)
        assert np.linalg.norm(u - v @ (v.T @ u), 2) <= 1e-12
        assert np.max(np.abs(m @ u)) <= 1e-15 * singular_values(m)[0]
        assert np.max(np.abs(u.T @ u - np.eye(u.shape[1]))) <= 1e-14
        for c in uncovered:
            assert np.count_nonzero(u[c] == 1.0) == 1
            assert np.count_nonzero(u[c]) == 1

    def test_zero_rows_decline_to_the_svd(self, conv):
        # A kernel of zeros gives all-zero rows, which band order puts last;
        # the matrix is then rank-deficient and the SVD decides.
        m = conv.tolil()
        m[128:192] = 0.0
        m = m.tocsr()
        m.eliminate_zeros()
        decision = decide_rank(m, with_basis=True)
        assert decision.path == SVD_PATH
        assert decision.nullity == svd_nullity(m) == 768 - 448
        u = decision.basis
        assert np.max(np.abs(m @ u)) <= 1e-14 * singular_values(m)[0]
        assert np.max(np.abs(u.T @ u - np.eye(u.shape[1]))) <= 1e-14

    def test_first_layer_basis_memory(self):
        # The first layer of the default network, 2560 x 3072 at 4.3% fill.
        # Densifying A.T for LAPACK's QR took a traced peak of 86.6 MiB
        # (certificate and basis); band storage takes 57.3 MiB.
        a = build_equivalent(seeded_network(1234, None).layers[0])
        tracemalloc.start()
        try:
            decision = decide_rank(a, with_basis=True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert decision.path == CERTIFIED_PATH and decision.basis.shape == (3072, 512)
        assert peak < 86.6 * 2**20

    def test_tall_and_square_bases_are_empty(self):
        rng = np.random.default_rng(23)
        for shape in ((50, 30), (30, 30)):
            decision = decide_rank(rng.standard_normal(shape), with_basis=True)
            assert decision.path == CERTIFIED_PATH
            assert decision.basis.shape == (shape[1], 0)


class TestSmallestEigenpairGram:
    def test_subset_eigenvalue_matches_full_eigh(self, monkeypatch):
        rng = np.random.default_rng(37)
        m = sp.random(300, 120, density=0.1, random_state=rng, format="csr",
                      data_rvs=rng.standard_normal)
        v, lam = smallest_eigenpair_gram(m)
        dense = m.toarray()
        lam_full = float(np.linalg.eigvalsh(dense.T @ dense)[0])
        assert abs(lam - lam_full) <= 1e-12 * lam_full
        # The fill alone picks the Gram product, so the same matrix forms
        # its band Gram by one dense product only with the dense-Gram fill
        # lowered to zero.
        monkeypatch.setattr(linalg, "_DENSE_GRAM_FILL", 0.0)
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
        # lam is (M v) @ (M v), with the CSR product every input is taken as
        mv = sp.csr_matrix(m) @ v
        assert lam <= 1e-24 and mv @ mv == lam

    @pytest.mark.parametrize("sparse", [False, True])
    def test_tall_rank_deficient_gram_factors(self, sparse):
        # Tall, scaled by 1e3, with a singular Gram matrix: filled and of
        # rank 12 (a dense Gram product), or 5% filled with each column
        # twice (a sparse one, exactly singular in floating point too).
        # Only the proven shift lets the band Cholesky complete.
        rng = np.random.default_rng(43)
        if sparse:
            half = sp.random(600, 20, density=0.05, random_state=rng,
                             data_rvs=rng.standard_normal)
            m = 1e3 * sp.hstack([half, half]).tocsr()
        else:
            m = 1e3 * rng.standard_normal((600, 12)) @ rng.standard_normal((12, 40))
        v, lam = smallest_eigenpair_gram(m)
        assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-12)
        assert lam <= rank_tolerance_bound(m) ** 2
        null = svd_nullspace(m)
        assert null.shape[1] == (20 if sparse else 28)
        assert np.linalg.norm(v - null @ (null.T @ v)) <= 1e-12

    @pytest.mark.parametrize("m", [
        sp.diags([1.0, 1.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0], format="csr"),
        sp.identity(9, format="csr")], ids=["triple", "identity"])
    def test_multiple_lambda_min_repeats_bit_for_bit(self, m):
        # lambda_min = 1 is triple (or ninefold), so the Krylov space of the
        # all-ones start vector breaks down early and ARPACK restarts from a
        # vector of its own. That vector comes from a fixed seed, so every
        # call returns the same bytes, a unit vector of the eigenspace.
        lams, vecs = np.linalg.eigh((m.T @ m).toarray())
        lowest = vecs[:, lams <= lams[0] + 1e-8 * lams[-1]]
        v, lam = smallest_eigenpair_gram(m)
        assert np.linalg.norm(lowest.T @ v) == pytest.approx(1.0, abs=1e-12)
        assert lam == pytest.approx(1.0, rel=1e-12)
        for _ in range(3):
            v_again, lam_again = smallest_eigenpair_gram(m)
            assert v_again.tobytes() == v.tobytes() and lam_again == lam

    def test_no_columns_is_a_value_error(self):
        # No unit vector exists in R^0, for the solver or for least_harmful.
        for call in (smallest_eigenpair_gram, least_harmful):
            with pytest.raises(ValueError, match="3x0 matrix has no columns"):
                call(np.zeros((3, 0)))

    def test_no_rows_gives_the_first_unit_vector(self):
        # Every unit vector has zero energy; the zero-trace rule picks e_1.
        v, lam = smallest_eigenpair_gram(np.zeros((0, 4)))
        assert v.tolist() == [1.0, 0.0, 0.0, 0.0] and lam == 0.0

    def test_gram_of_huge_entries_does_not_overflow(self, capfd):
        # The Gram product of these entries overflows, but linalg forms it
        # from a copy scaled by a power of two: decide_rank warns of nothing
        # (a RuntimeWarning fails the test), LAPACK prints nothing, and both
        # calls give the results of the same matrix scaled down by 2^600.
        m = 1e200 * np.random.default_rng(0).standard_normal((8, 5))
        small = np.ldexp(m, -600)
        decision = decide_rank(m)
        assert (decision.path, decision.rank, decision.nullity) == (CERTIFIED_PATH, 5, 0)
        assert decision.evidence == {key: np.ldexp(value, 600)
                                     for key, value in decide_rank(small).evidence.items()}
        # lambda_min, about 1e400, is past float64: lam rounds to inf, and
        # numpy warns of that last product alone.
        with pytest.warns(RuntimeWarning, match="overflow encountered in matmul"):
            v, lam = smallest_eigenpair_gram(m)
        assert v.tobytes() == smallest_eigenpair_gram(small)[0].tobytes() and lam == np.inf
        assert "DLASCL" not in capfd.readouterr().err


class TestSparseShiftInvert:
    """smallest_eigenpair_gram on sparse input below the dense-Gram fill:
    the Gram matrix is formed sparse into band storage, and shift-invert
    Lanczos runs on its band Cholesky."""

    @pytest.fixture(scope="class")
    def conv(self):
        # Tall (800 x 400) and 8% filled, so it takes the sparse route.
        kernels = np.random.default_rng(41).standard_normal((8, 4, 3, 3))
        return build_conv_equivalent(ConvLayerSpec(4, 10, 10, 8, 3, 3, stride=1,
                                                   zero_padding=1, kernels=kernels))

    @staticmethod
    def eigh_reference(m):
        import scipy.linalg
        d = m.toarray()
        _, vecs = scipy.linalg.eigh(d.T @ d, subset_by_index=[0, 0])
        v = vecs[:, 0] / np.linalg.norm(vecs[:, 0])
        nz = np.flatnonzero(np.abs(v) > np.abs(v).max() * 1e-12)
        v = -v if v[nz[0]] < 0 else v
        mv = d @ v
        return v, float(mv @ mv)

    def test_conv_lowering_matches_dense_eigh(self, conv):
        v, lam = smallest_eigenpair_gram(conv)
        v_ref, lam_ref = self.eigh_reference(conv)
        assert abs(lam - lam_ref) <= 1e-12 * lam_ref
        assert np.max(np.abs(v - v_ref)) <= 1e-10

    def test_conv_lowering_takes_the_sparse_route(self, conv, monkeypatch):
        # Below the dense-Gram fill nothing is densified: the Gram matrix
        # goes from a sparse product straight into band storage.
        def no_densify(*args, **kwargs):
            raise AssertionError("sparse input densified")

        for kind in (sp.csr_matrix, sp.csc_matrix):
            monkeypatch.setattr(kind, "toarray", no_densify)
        v, lam = smallest_eigenpair_gram(conv)
        assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-12) and lam > 0

    def test_repeated_calls_are_byte_identical(self, conv):
        v, lam = smallest_eigenpair_gram(conv)
        v2, lam2 = smallest_eigenpair_gram(conv.copy())
        assert v.tobytes() == v2.tobytes() and lam == lam2

    def test_wide_matrix_gives_a_null_direction(self):
        # The Gram matrix is singular with a 200-dimensional null space, a
        # cluster of equal eigenvalues of the shifted inverse.
        rng = np.random.default_rng(3)
        m = sp.random(100, 300, density=0.05, random_state=rng, format="csr",
                      data_rvs=rng.standard_normal)
        v, lam = smallest_eigenpair_gram(m)
        assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-12)
        assert lam <= 1e-24
        assert least_harmful(m).in_nullspace

    def test_null_directions_reach_working_precision(self):
        # ||M v|| <= eps * sigma_max_bound(M) on ten wide matrices. Lanczos
        # alone leaves 5.3 eps at seed 5; the finishing solve damps it.
        for seed in range(10):
            rng = np.random.default_rng(seed)
            m = sp.random(100, 300, density=0.05, random_state=rng, format="csr",
                          data_rvs=rng.standard_normal)
            _, lam = smallest_eigenpair_gram(m)
            assert lam <= (np.finfo(np.float64).eps * sigma_max_bound(m)) ** 2

    @settings(max_examples=60, deadline=None)
    @given(m=small_lowerings(), k=st.integers(min_value=-1100, max_value=1100))
    @example(m=build_conv_equivalent(ConvLayerSpec(
        4, 10, 10, 8, 3, 3, stride=1, zero_padding=1,
        kernels=np.random.default_rng(41).standard_normal((8, 4, 3, 3)))), k=-400)
    @example(m=sp.csr_matrix(np.random.default_rng(53).standard_normal((70, 40))), k=-400)
    @example(m=sp.csr_matrix(np.random.default_rng(53).standard_normal((40, 70))), k=1000)
    # At the top of the range, where the Schur bound of 2^k m passes 2^1024
    # although every entry is normal, and only its unit-scale value is finite
    @example(m=sp.csr_matrix(np.random.default_rng(53).standard_normal((70, 40))), k=1020)
    @example(m=sp.csr_matrix(np.random.default_rng(53).standard_normal((70, 40))), k=1022)
    @example(m=sp.csr_matrix(np.random.default_rng(53).standard_normal((40, 70))), k=1020)
    @example(m=sp.csr_matrix(np.random.default_rng(53).standard_normal((40, 70))), k=1022)
    # A wide 1x1 conv whose unscaled QR loses its basis bits at 2^-960
    @example(m=build_conv_equivalent(ConvLayerSpec(
        3, 3, 3, 2, 1, 1, kernels=np.array([[0.0, 0, 1], [1, -1, -1]]).reshape(2, 3, 1, 1))),
        k=-960)
    # Declined layers whose unscaled SVD lost bits: a rank-deficient 16x18
    # conv at 2^-348 (basis 1.7e-18 off), where gesdd's absolute thresholds
    # act, and the 768x768 polyphase conv at 2^460, past which gesdd
    # rescales by a ratio that is not a power of two.
    @example(m=DECLINED_CONV, k=-348)
    @example(m=build_conv_equivalent(ConvLayerSpec(
        3, 16, 16, 12, 3, 3, stride=2, zero_padding=1,
        kernels=np.random.default_rng(1603).integers(-9, 10, size=(12, 3, 3, 3)).astype(float))),
        k=460)
    def test_scaling_by_a_power_of_two_is_exact(self, m, k):
        # linalg scales each copy it makes by the power of two that brings
        # the largest |entry| into [1/2, 1), so 2^k m feeds the band Gram,
        # the staircase QR, Lanczos and the SVD the bits that m does,
        # wherever the entries of 2^k m stay normal.
        exponents = np.frexp(np.abs(m.data[m.data != 0]))[1] + k
        assume(exponents.size == 0 or (exponents.min() >= -1021 and exponents.max() <= 1024))
        scaled = m * np.ldexp(1.0, k)
        base, decision = decide_rank(m, with_basis=True), decide_rank(scaled, with_basis=True)
        assert (decision.path, decision.rank, decision.nullity) == (base.path, base.rank, base.nullity)
        assert decision.basis.tobytes() == base.basis.tobytes()
        assert decision.evidence == {key: None if value is None else np.ldexp(value, k)
                                     for key, value in base.evidence.items()}
        # singular_values scales its own copy; 2^k sigma_max may leave float64
        with np.errstate(over="ignore"):
            sv_k, sv = singular_values(scaled), np.ldexp(singular_values(m), k)
        assert sv_k.tobytes() == sv.tobytes()
        if m.shape[1] == 0:
            return
        v, lam = smallest_eigenpair_gram(m)
        # lam rounds to inf where 4^k lambda_min leaves float64
        with np.errstate(over="ignore"):
            v_k, lam_k = smallest_eigenpair_gram(scaled)
        # Where lambda_min is multiple, Lanczos can restart from ARPACK's own
        # vector, which comes from a fixed seed: v is repeated there too.
        assert v_k.tobytes() == v.tobytes()
        dense = m.toarray()
        lams, vecs = np.linalg.eigh(dense.T @ dense)
        lowest = vecs[:, lams <= lams[0] + 1e-8 * lams[-1]]
        if lowest.shape[1] == 1:
            if abs(k) <= 400:
                assert lam_k == np.ldexp(lam, 2 * k)
        else:
            assert np.linalg.norm(lowest.T @ v) == pytest.approx(1.0, abs=1e-8)

    def test_single_column(self):
        m = sp.csr_matrix(([2.0], ([3], [0])), shape=(10, 1))
        v, lam = smallest_eigenpair_gram(m)
        assert v.tolist() == [1.0] and lam == 4.0

    def test_all_zero_matrix(self):
        # Every unit vector is a lowest eigenvector. Unshifted, the band
        # Cholesky stops at a zero pivot, and ARPACK cannot start on a
        # subnormal-shifted one.
        v, lam = smallest_eigenpair_gram(sp.csr_matrix((5, 4)))
        assert v.tolist() == [1.0, 0.0, 0.0, 0.0] and lam == 0.0

    def test_lanczos_non_convergence_is_a_factorization_error(self, conv, monkeypatch):
        import scipy.sparse.linalg as spla

        def stalled(*args, **kwargs):
            raise spla.ArpackNoConvergence("no convergence", np.zeros(0), np.zeros((400, 0)))

        monkeypatch.setattr(spla, "eigsh", stalled)
        with pytest.raises(FactorizationError, match="400x400 Gram matrix"):
            smallest_eigenpair_gram(conv)

    def test_sparse_factorization_failure_is_a_factorization_error(self, conv, monkeypatch):
        import scipy.linalg

        def singular(*args, **kwargs):
            raise np.linalg.LinAlgError("3-th leading minor not positive definite")

        monkeypatch.setattr(scipy.linalg, "cholesky_banded", singular)
        with pytest.raises(FactorizationError, match="400x400 Gram matrix"):
            smallest_eigenpair_gram(conv)


class TestProvenShifts:
    """The band Cholesky sees each Gram matrix shifted by exactly the bound
    that its docstring proves, term for term. The bounds are far from tight,
    so a shift made smaller (unproven) or larger changes no decision the
    other tests see."""

    U = np.finfo(np.float64).eps / 2
    ETA = np.finfo(np.float64).smallest_subnormal

    @pytest.fixture
    def recorded(self, monkeypatch):
        grams, factored = [], []
        banded_gram, band_cholesky = linalg._banded_gram, linalg._band_cholesky

        def gram(s, rank, e, beta):
            ab, bound = banded_gram(s, rank, e, beta)
            grams.append((s.shape, ab[0].copy(), bound))
            return ab, bound

        def cholesky(ab):
            factored.append(ab[0].copy())
            return band_cholesky(ab)

        monkeypatch.setattr(linalg, "_banded_gram", gram)
        monkeypatch.setattr(linalg, "_band_cholesky", cholesky)
        return grams, factored

    @classmethod
    def gamma(cls, k):
        return k * cls.U / (1 - k * cls.U)

    @staticmethod
    def unit_beta(m):
        # the Schur bound of m scaled by the 2^-e that puts its largest
        # |entry| in [1/2, 1)
        return np.ldexp(sigma_max_bound(m), -np.frexp(np.abs(m).max())[1])

    @pytest.mark.parametrize("shape", [(30, 50), (50, 30)])
    def test_certificate_shift(self, recorded, shape):
        grams, factored = recorded
        m = 3.0 * np.random.default_rng(5).standard_normal(shape)
        assert certified_rank(m) is not None
        p, q = min(shape), max(shape)
        [(gram_shape, diag, bound)] = grams
        beta = self.unit_beta(m)
        # the product S @ S.T of the short side has inner length q
        assert gram_shape == (p, q)
        assert bound == self.gamma(q) * beta * beta + 2 * p * q * self.ETA
        row_rank, col_rank = linalg._band_order(sp.csr_matrix(m))
        h = diag[row_rank if shape[0] <= shape[1] else col_rank]
        max_h, trace = float(h.max()), float(h.sum())
        c = self.gamma(p + 1)
        margin_tau = (2.0 + 2.0 * p * np.sqrt(p)) * (beta * q * np.finfo(np.float64).eps)
        shift = 2.0 * (bound + c / (1.0 - c) * trace + self.U * max_h
                       + p * (p + q + 1 + np.sqrt(max_h)) * self.ETA + margin_tau ** 2)
        assert factored[0].tobytes() == (diag - shift).tobytes()

    @pytest.mark.parametrize("shape", [(50, 30), (20, 40)])
    def test_eigenpair_shift(self, recorded, shape):
        grams, factored = recorded
        m = 3.0 * np.random.default_rng(6).standard_normal(shape)
        smallest_eigenpair_gram(m)
        rows, n = shape
        [(gram_shape, diag, bound)] = grams
        beta = self.unit_beta(m)
        # the product M.T @ M has inner length rows, also for a wide M
        assert gram_shape == (n, rows)
        assert bound == self.gamma(rows) * beta * beta + 2 * n * rows * self.ETA
        c = self.gamma(n + 1)
        k = self.U + n * c / (1.0 - c) * (1.0 + self.U)
        assert factored[0].tobytes() == (diag + 2.0 * (bound + k * float(diag.max()))).tobytes()

    def test_a_nan_pivot_proves_nothing(self, monkeypatch):
        # Some factorization implementations let a NaN pivot through without
        # an error: neither the certificate nor the eigenpair takes it.
        factor = scipy.linalg.cholesky_banded

        def nan_pivot(ab, **kwargs):
            r = factor(ab, **kwargs)
            r[0, -1] = np.nan
            return r

        monkeypatch.setattr(scipy.linalg, "cholesky_banded", nan_pivot)
        m = np.random.default_rng(7).standard_normal((50, 30))
        assert certified_rank(m) is None
        with pytest.raises(FactorizationError, match="30x30 Gram matrix"):
            smallest_eigenpair_gram(m)


def test_factorization_error_is_runtime_error():
    assert issubclass(FactorizationError, RuntimeError)


class TestBlasThreads:
    """linalg._blas_threads pins every OpenBLAS pool for a block and then
    restores what it found; cli.main runs each command at 1 thread and an
    SVD fallback of at least _SVD_TWO_THREAD_ENTRIES entries at 2."""

    @staticmethod
    def fake_pools(monkeypatch, *counts):
        # (get, set) pairs over a list of thread counts, one per pool
        state = list(counts)
        pools = tuple((lambda i=i: state[i], lambda n, i=i: state.__setitem__(i, n))
                      for i in range(len(state)))
        monkeypatch.setattr(linalg, "_openblas_pools", lambda: pools)
        return state

    @staticmethod
    def real_counts():
        return [get() for get, _ in linalg._openblas_pools()]

    @staticmethod
    def rank_one_layer(tmp_path):
        # rank 1, so the certificate declines and the SVD decides
        path = tmp_path / "layer.json"
        save_layer_json(FcLayerSpec(4, 3, weight=np.ones((4, 3))), path)
        return str(path)

    def test_each_pool_is_pinned_and_gets_its_own_count_back(self, monkeypatch):
        state = self.fake_pools(monkeypatch, 3, 5)
        with linalg._blas_threads(1):
            assert state == [1, 1]
        assert state == [3, 5]

    def test_counts_are_restored_when_the_block_raises(self, monkeypatch):
        state = self.fake_pools(monkeypatch, 3, 5)
        with pytest.raises(KeyError):
            with linalg._blas_threads(2):
                raise KeyError("inside")
        assert state == [3, 5]

    def test_nested_pins_restore_in_order(self, monkeypatch):
        state = self.fake_pools(monkeypatch, 3, 5)
        with linalg._blas_threads(1):
            with linalg._blas_threads(2):
                assert state == [2, 2]
            assert state == [1, 1]
        assert state == [3, 5]

    def test_without_openblas_the_pin_is_a_no_op(self, monkeypatch, tmp_path):
        real = linalg._openblas_pools()
        before = [get() for get, _ in real]
        with monkeypatch.context() as m:
            m.setattr(linalg.glob, "glob", lambda pattern: [])
            pools = linalg._openblas_pools.__wrapped__()
        assert pools == ()
        monkeypatch.setattr(linalg, "_openblas_pools", lambda: pools)
        with linalg._blas_threads(3):
            assert [get() for get, _ in real] == before
        assert main(["lower", "--layer", self.rank_one_layer(tmp_path), "--seed", "1",
                     "--out", str(tmp_path / "out")]) == 0

    def test_both_wheel_pools_are_found(self):
        bundled = [lib for package in (np, scipy) for lib in
                   Path(package.__file__).resolve().parent.parent.glob(
                       f"{package.__name__}.libs/*openblas*")]
        assert len(linalg._openblas_pools()) == len(bundled)
        with linalg._blas_threads(3):
            assert self.real_counts() == [3] * len(bundled)

    def test_main_runs_at_one_thread_and_the_svd_at_two(self, monkeypatch, tmp_path):
        # The SVD pins 2 threads only from _SVD_TWO_THREAD_ENTRIES entries
        # on; a smaller one, like the 4x3 of the rank-one layer, runs at the
        # caller's count.
        if not linalg._openblas_pools():
            pytest.skip("no OpenBLAS thread pool to observe")
        seen = {}

        def recording(name, fn):
            def wrapper(*args, **kw):
                seen.setdefault(name, set()).update(self.real_counts())
                return fn(*args, **kw)
            return wrapper

        monkeypatch.setattr(linalg, "_band_order", recording("command", linalg._band_order))
        # the one LAPACK call site of the SVD fallback
        monkeypatch.setattr(scipy.linalg, "svd", recording("svd", scipy.linalg.svd))
        with linalg._blas_threads(3):
            assert main(["lower", "--layer", self.rank_one_layer(tmp_path), "--seed", "1",
                         "--out", str(tmp_path / "out")]) == 0
            assert self.real_counts() == [3] * len(linalg._openblas_pools())
        assert seen == {"command": {1}, "svd": {1}}
        limit = linalg._SVD_TWO_THREAD_ENTRIES
        for cols, threads in ((limit - 1, 3), (limit, 2)):
            seen.clear()
            with linalg._blas_threads(3):
                singular_values(sp.csr_matrix((1, cols)))
            assert seen == {"svd": {threads}}
