"""Factorizations shared by the rest of the package.

Everything runs in float64 through LAPACK (via numpy and scipy), except
the sparse eigenpair route below (SuperLU and ARPACK, via scipy).

Rank, nullity and harmless basis have one entry point, decide_rank. It
first tries a cheap certificate that the matrix has full rank: a
Cholesky factorization of the short side's Gram matrix, shifted by a
rounding bound (see _certify_full_rank for the inequality). When the
certificate holds, the nullity is cols - min(rows, cols) and the basis
of a wide matrix is the trailing columns of Q in a Householder QR of
A.T (Golub & Van Loan, Matrix Computations, 4th ed., section 5.2). When
it declines, the singular values decide against rank_tolerance, exactly
as a plain SVD rank query does; the evidence for either decision is
returned with it. smallest_eigenpair_gram solves for one eigenpair of
A.T @ A only.

Sparse inputs keep their sparsity for Gram products and are densified
for the dense factorizations of decide_rank and svd. smallest_eigenpair_gram
factors the Gram matrix of a sparse input sparse (SuperLU) and runs
shift-invert Lanczos (ARPACK) on it; a dense input, or one filled above
_DENSE_GRAM_FILL, goes through a dense eigh.

All functions are pure and deterministic: repeated calls on identical
input return bit-identical results.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

__all__ = [
    "CERTIFIED_PATH",
    "SVD_PATH",
    "FactorizationError",
    "RankDecision",
    "SvdResult",
    "svd",
    "singular_values",
    "sigma_max_bound",
    "rank_tolerance",
    "rank_tolerance_bound",
    "numerical_rank",
    "decide_rank",
    "orthonormal_nullspace",
    "smallest_eigenpair_gram",
]

_EPS = float(np.finfo(np.float64).eps)
_UNIT_ROUNDOFF = _EPS / 2
_SMALLEST_SUBNORMAL = float(np.finfo(np.float64).smallest_subnormal)
# Above this share of nonzeros a sparse Gram product costs far more than
# a dense BLAS one (784x784 fully connected: 1.4 s against 0.01 s).
_DENSE_GRAM_FILL = 0.25

#: RankDecision.path values.
CERTIFIED_PATH = "certified"
SVD_PATH = "svd"


class FactorizationError(RuntimeError):
    """A factorization did not converge within LAPACK's iteration cap."""


def as_dense(m) -> np.ndarray:
    """Coerce a dense array or scipy sparse matrix to a float64 2-d array.

    Raises ValueError on non-2d input or non-finite entries.
    """
    if sp.issparse(m):
        m = m.toarray()
    a = np.ascontiguousarray(m, dtype=np.float64)
    if a.ndim != 2:
        raise ValueError(f"expected a 2-d matrix, got ndim={a.ndim}")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix contains NaN or Inf entries")
    return a


def _checked(m):
    """as_dense's checks without densifying a sparse matrix (returned as CSR)."""
    if not sp.issparse(m):
        return as_dense(m)
    if m.ndim != 2:
        raise ValueError(f"expected a 2-d matrix, got ndim={m.ndim}")
    m = m.tocsr().astype(np.float64, copy=False)
    if not np.all(np.isfinite(m.data)):
        raise ValueError("matrix contains NaN or Inf entries")
    return m


@dataclass(frozen=True)
class SvdResult:
    """Full SVD M = L @ diag(s) @ R.T (leading min(m, n) columns of L, R).

    left_vectors is m x m, right_vectors is n x n; columns of each are
    orthonormal. singular_values is non-increasing and non-negative.
    """

    left_vectors: np.ndarray
    singular_values: np.ndarray
    right_vectors: np.ndarray


def svd(m) -> SvdResult:
    """Full singular value decomposition of a dense or sparse matrix."""
    a = as_dense(m)
    try:
        u, s, vt = np.linalg.svd(a, full_matrices=True)
    except np.linalg.LinAlgError as exc:
        raise FactorizationError(
            f"SVD did not converge for a {a.shape[0]}x{a.shape[1]} matrix"
        ) from exc
    return SvdResult(left_vectors=u, singular_values=s, right_vectors=vt.T)


def singular_values(m) -> np.ndarray:
    """Singular values only (much faster than a full SVD for rank queries)."""
    a = as_dense(m)
    try:
        return np.linalg.svd(a, compute_uv=False)
    except np.linalg.LinAlgError as exc:
        raise FactorizationError(
            f"SVD did not converge for a {a.shape[0]}x{a.shape[1]} matrix"
        ) from exc


def sigma_max_bound(matrix) -> float:
    """Schur bound sigma_max <= sqrt(||A||_1 * ||A||_inf), computable in O(nnz).

    It bounds the spectral norm of |A| too, since |A| has the same 1- and
    inf-norms.
    """
    a = abs(matrix)
    col_sums = np.asarray(a.sum(axis=0)).ravel()
    row_sums = np.asarray(a.sum(axis=1)).ravel()
    if col_sums.size == 0 or row_sums.size == 0:
        return 0.0
    return float(np.sqrt(col_sums.max() * row_sums.max()))


def rank_tolerance(sv, rows: int, cols: int) -> float:
    """Threshold tau = sigma_max * max(rows, cols) * eps below which a
    singular value counts as zero."""
    sv = np.asarray(sv, dtype=np.float64)
    smax = float(sv[0]) if sv.size else 0.0
    return smax * max(rows, cols) * _EPS


def rank_tolerance_bound(m) -> float:
    """tau_ub = sigma_max_bound(m) * max(rows, cols) * eps, an upper bound
    on rank_tolerance that needs no singular value."""
    return sigma_max_bound(m) * max(m.shape) * _EPS


def numerical_rank(sv, rows: int, cols: int) -> int:
    """Number of singular values above rank_tolerance.

    `sv` must be sorted non-increasing (as returned by svd). An all-zero
    matrix has rank 0.
    """
    sv = np.asarray(sv, dtype=np.float64)
    if sv.size == 0:
        return 0
    if np.any(np.diff(sv) > 0):
        raise ValueError("singular values must be sorted non-increasing")
    return int(np.count_nonzero(sv > rank_tolerance(sv, rows, cols)))


@dataclass(frozen=True)
class RankDecision:
    """Numerical rank and nullity of an m x n matrix and what decided them.

    path is CERTIFIED_PATH when the Cholesky certificate proved full
    rank; the evidence is then {"sigma_min_lower", "tau_ub"}, a proven
    lower bound on the smallest singular value and the tolerance bound it
    clears. path is SVD_PATH when the certificate declined; the evidence
    is then {"sigma_r", "sigma_r1", "tolerance"}: the smallest singular
    value counted as nonzero (None at rank 0), the next one (0.0 past the
    last) and rank_tolerance. basis is the orthonormal nullspace basis
    (cols x nullity) when it was asked for, else None.
    """

    rank: int
    nullity: int
    path: str
    evidence: dict
    basis: np.ndarray | None = None


def _gamma(k: int) -> float:
    # Higham's gamma_k = k u / (1 - k u): the relative error bound of a
    # length-k dot product, in any summation order.
    return k * _UNIT_ROUNDOFF / (1.0 - k * _UNIT_ROUNDOFF)


def _sparse_gram(s) -> bool:
    """Whether s is sparse and sparse enough to form its Gram product sparse."""
    return sp.issparse(s) and s.nnz < _DENSE_GRAM_FILL * s.shape[0] * s.shape[1]


def _gram(s) -> np.ndarray:
    """Dense s @ s.T; a sparse s stays sparse for the product unless it is
    mostly nonzero."""
    if _sparse_gram(s):
        return (s @ s.T).toarray()
    d = s.toarray() if sp.issparse(s) else s
    return d @ d.T


def _certify_full_rank(m) -> tuple[float, float] | None:
    """Prove that m has full rank min(rows, cols) = p with margin, or decline.

    Returns (sigma_min_lower, tau_ub) with sigma_p(m) > sigma_min_lower =
    margin * tau_ub, or None when the certificate does not hold.

    Notation: q = max(rows, cols), u = eps / 2, gamma_k = k u / (1 - k u),
    beta = sigma_max_bound(m) >= || |m| ||_2, tau_ub = beta * q * eps and
    S the short side (m if rows <= cols, else m.T), G = S @ S.T exactly.

    1. H = fl(S @ S.T) in any summation order satisfies |H - G| <= gamma_q
       |S| |S|.T entrywise, so ||H - G||_2 <= gamma_q beta^2.
    2. H' = fl(H - shift I) differs from H - shift I by at most
       u (max_i h_ii + shift) in norm.
    3. If Cholesky of H' runs to completion with positive pivots, then
       R.T R = H' + E with ||E||_2 <= gamma_{p+1} / (1 - gamma_{p+1})
       trace(H') (Demmel's bound; Higham, Accuracy and Stability of
       Numerical Algorithms, 2nd ed., section 10.1), so H' + E is
       positive definite. Gradual underflow adds at most
       p (p + q + 1 + sqrt(max_i h_ii)) eta, eta the smallest subnormal.
    Hence lambda_min(G) > shift (1 - u) - [the bounds above], and the
    shift below makes that at least (margin tau_ub)^2: it is twice their
    sum plus (margin tau_ub)^2, the factor two covering (1 - u) and the
    rounding in evaluating the bounds (Rump, "Verification of positive
    definiteness", BIT 46, 2006, uses the same construction).

    Why this margin: LAPACK's SVD returns singular values with
    |hat sigma_i - sigma_i| <= c u ||m||_2 (LAPACK Users' Guide, section
    4.9), where Householder bidiagonalization gives c <= 4 rows cols
    sqrt(p). Then the SVD path's tolerance is at most (1 + c u) tau_ub
    and its p-th singular value at least sigma_p - (c / 2q) tau_ub, so
    with margin = 2 + 2 p sqrt(p) >= 1 + c u + c / 2q (while c u <= 1)
    every computed singular value clears the computed tolerance: a
    certified call returns the rank the SVD path returns.
    """
    rows, cols = m.shape
    p, q = min(rows, cols), max(rows, cols)
    if p == 0 or 2.0 * p * q * np.sqrt(p) * _EPS > 1.0:
        return None
    beta = sigma_max_bound(m)
    tau_ub = rank_tolerance_bound(m)
    margin = 2.0 + 2.0 * p * np.sqrt(p)
    g = _gram(m if rows <= cols else m.T)
    diag = g.diagonal()
    max_h, trace = float(diag.max()), float(diag.sum())
    cholesky_gamma = _gamma(p + 1)
    shift = 2.0 * (_gamma(q) * beta * beta
                   + cholesky_gamma / (1.0 - cholesky_gamma) * trace
                   + _UNIT_ROUNDOFF * max_h
                   + p * (p + q + 1 + np.sqrt(max_h)) * _SMALLEST_SUBNORMAL
                   + (margin * tau_ub) ** 2)
    if not np.isfinite(shift):
        return None
    import scipy.linalg  # on first use: importing it adds ~0.15 s to CLI start-up
    g.flat[:: p + 1] -= shift
    try:
        r = scipy.linalg.cholesky(g.T, overwrite_a=True, check_finite=False)
    except np.linalg.LinAlgError:
        return None
    # A NaN pivot can slip through some potrf implementations; the
    # certificate needs every pivot positive.
    if not np.all(np.diagonal(r) > 0):
        return None
    return float(margin * tau_ub), float(tau_ub)


def _row_space_complement(m) -> np.ndarray:
    """Orthonormal basis of N(m) for a wide m of full row rank: the trailing
    cols - rows columns of Q in m.T = Q R, formed without the rest of Q."""
    import scipy.linalg
    a_t = m.toarray().T if sp.issparse(m) else np.array(m, dtype=np.float64).T
    geqrf, ormqr = scipy.linalg.get_lapack_funcs(("geqrf", "ormqr"), (a_t,))
    # The workspace query's optimal lwork gives geqrf its blocked path, as in
    # scipy.linalg.qr, which would also build an R that is never used here.
    lwork = int(geqrf(a_t, lwork=-1, overwrite_a=True)[2][0])
    h, tau, _, info = geqrf(a_t, lwork=lwork, overwrite_a=True)
    if info != 0:
        raise FactorizationError(f"geqrf failed with info={info}")
    n, k = h.shape
    c = np.zeros((n, n - k), order="F")
    c[k:, :] = np.eye(n - k)
    lwork = int(ormqr("L", "N", h, tau, c, -1)[1][0])
    q, _, info = ormqr("L", "N", h, tau, c, lwork, overwrite_c=True)
    if info != 0:
        raise FactorizationError(f"ormqr failed with info={info}")
    return _fix_column_signs(q)


def decide_rank(m, with_basis: bool = False) -> RankDecision:
    """Numerical rank, nullity and (with_basis) orthonormal nullspace basis.

    When _certify_full_rank proves full rank, the nullity is cols -
    min(rows, cols) and the basis is empty for a tall or square m, or the
    QR complement of m's row space for a wide m. Otherwise the singular
    values decide: the rank counts those above rank_tolerance, and the
    basis is the right singular vectors past the rank, re-orthonormalized
    by QR. Either way each basis column's largest-magnitude component is
    positive, making the basis reproducible.
    """
    m = _checked(m)
    rows, cols = m.shape
    certificate = _certify_full_rank(m)
    if certificate is not None:
        rank = min(rows, cols)
        basis = None
        if with_basis:
            basis = _row_space_complement(m) if rows < cols else np.zeros((cols, 0))
        evidence = {"sigma_min_lower": certificate[0], "tau_ub": certificate[1]}
        return RankDecision(rank, cols - rank, CERTIFIED_PATH, evidence, basis)

    basis = None
    if with_basis:
        res = svd(m)
        sv = res.singular_values
        rank = numerical_rank(sv, rows, cols)
        basis = res.right_vectors[:, rank:]
        if basis.shape[1] == 0:
            basis = np.zeros((cols, 0))
        else:
            basis = _fix_column_signs(np.linalg.qr(basis)[0])
    else:
        sv = singular_values(m)
        rank = numerical_rank(sv, rows, cols)
    evidence = {"sigma_r": float(sv[rank - 1]) if rank else None,
                "sigma_r1": float(sv[rank]) if rank < sv.size else 0.0,
                "tolerance": rank_tolerance(sv, rows, cols)}
    return RankDecision(rank, cols - rank, SVD_PATH, evidence, basis)


def orthonormal_nullspace(m) -> np.ndarray:
    """Orthonormal basis (as columns) of the nullspace of m; see decide_rank.

    A full-column-rank matrix yields a (cols, 0) array.
    """
    return decide_rank(m, with_basis=True).basis


def _fix_column_signs(u: np.ndarray) -> np.ndarray:
    peaks = u[np.abs(u).argmax(axis=0), np.arange(u.shape[1])]
    return u * np.where(peaks < 0, -1.0, 1.0)


def _lowest_eigvec_shift_invert(g) -> np.ndarray:
    """Eigenvector for the smallest eigenvalue of a sparse symmetric positive
    semidefinite n x n matrix g.

    It is the dominant eigenvector of (g + s I)^-1, found by Lanczos (ARPACK)
    on one SuperLU factorization of g + s I: the spectral transformation of
    Ericsson & Ruhe (Math. Comp. 35, 1980). The shift s = n u trace(g) +
    eta, eta the smallest subnormal, is at rounding level, so a singular g
    still factors. One more solve (a step of inverse iteration) finishes the
    Ritz vector: in a cluster of equal eigenvalues, such as the null space
    of a wide matrix, Lanczos mixes in rounding from outside the cluster
    (||M v||^2 = 1e-14 for g = M.T @ M, M sparse 100x300), which that
    solve damps by s over the next eigenvalue. An all-zero g, and n = 1,
    which ARPACK does not take, return the first unit vector.
    """
    n = g.shape[0]
    trace = float(g.diagonal().sum())
    if n == 1 or trace == 0.0:
        return np.eye(n, 1)[:, 0]
    import scipy.sparse.linalg as spla  # on first use: ~0.09 s of CLI start-up
    shift = n * _UNIT_ROUNDOFF * trace + _SMALLEST_SUBNORMAL
    try:
        lu = spla.splu((g + shift * sp.identity(n)).tocsc(), permc_spec="MMD_AT_PLUS_A")
        inverse = spla.LinearOperator((n, n), matvec=lu.solve, dtype=np.float64)
        _, vecs = spla.eigsh(inverse, k=1, which="LM", v0=np.ones(n),
                             ncv=min(20, n), tol=0)
    except RuntimeError as exc:  # SuperLU's, and ARPACK's ArpackNoConvergence
        raise FactorizationError(
            f"shift-invert Lanczos failed for a {n}x{n} Gram matrix: {exc}"
        ) from exc
    return lu.solve(vecs[:, 0])


def smallest_eigenpair_gram(m) -> tuple[np.ndarray, float]:
    """Unit eigenvector of M.T @ M with the smallest eigenvalue.

    Only the lowest eigenpair is solved for. A sparse M below the dense-Gram
    fill keeps its Gram matrix sparse and goes through shift-invert Lanczos
    (_lowest_eigvec_shift_invert); any other M through a dense eigh. Returns
    (v, lam) with lam = ||M v||^2, the Rayleigh quotient of the selected
    eigenvector (consistent with v by construction, and equal to the
    smallest Gram eigenvalue up to factorization error). Sign convention:
    the first nonzero component of v is positive. Eigenvalue ties resolve
    through the fixed start vector (all ones) on the sparse route, and to
    the lowest index in eigh's ascending order on the dense one.
    """
    m = _checked(m)
    cols = m.shape[1]
    if _sparse_gram(m):
        v = _lowest_eigvec_shift_invert(m.T @ m)
    else:
        import scipy.linalg
        try:
            _, vecs = scipy.linalg.eigh(_gram(m.T), subset_by_index=[0, 0],
                                        overwrite_a=True, check_finite=False)
        except np.linalg.LinAlgError as exc:
            raise FactorizationError(
                f"eigendecomposition did not converge for a {cols}x{cols} Gram matrix"
            ) from exc
        v = vecs[:, 0]
    v = v / np.linalg.norm(v)
    nz = np.flatnonzero(np.abs(v) > np.abs(v).max() * 1e-12)
    if v[nz[0]] < 0:
        v = -v
    mv = m @ v
    return v, float(mv @ mv)
