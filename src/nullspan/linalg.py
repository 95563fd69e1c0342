"""Dense factorizations shared by the rest of the package.

Everything runs in float64 through LAPACK (via numpy): SVD, symmetric
eigendecomposition, numerical rank, and orthonormal nullspace extraction.
Sparse inputs are densified first; this package targets desk-scale
matrices (a few thousand rows/columns), not sparse factorization.

All functions are pure and deterministic: repeated calls on identical
input return bit-identical results.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

__all__ = [
    "FactorizationError",
    "SvdResult",
    "svd",
    "rank_tolerance",
    "numerical_rank",
    "orthonormal_nullspace",
    "smallest_eigenpair_gram",
]

_EPS = float(np.finfo(np.float64).eps)


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


def rank_tolerance(sv, rows: int, cols: int) -> float:
    """Threshold tau = sigma_max * max(rows, cols) * eps below which a
    singular value counts as zero."""
    sv = np.asarray(sv, dtype=np.float64)
    smax = float(sv[0]) if sv.size else 0.0
    return smax * max(rows, cols) * _EPS


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


def orthonormal_nullspace(m) -> np.ndarray:
    """Orthonormal basis (as columns) of the nullspace of m.

    Uses the right singular vectors whose singular values fall at or
    below the rank tolerance, re-orthonormalized by QR. Column signs are
    fixed so each column's largest-magnitude component is positive,
    making the basis reproducible. A full-column-rank matrix yields a
    (cols, 0) array.
    """
    a = as_dense(m)
    rows, cols = a.shape
    res = svd(a)
    rank = numerical_rank(res.singular_values, rows, cols)
    basis = res.right_vectors[:, rank:]
    if basis.shape[1] == 0:
        return np.zeros((cols, 0))
    q, _ = np.linalg.qr(basis)
    return _fix_column_signs(q)


def _fix_column_signs(u: np.ndarray) -> np.ndarray:
    u = u.copy()
    for j in range(u.shape[1]):
        col = u[:, j]
        peak = np.argmax(np.abs(col))
        if col[peak] < 0:
            u[:, j] = -col
    return u


def smallest_eigenpair_gram(m) -> tuple[np.ndarray, float]:
    """Unit eigenvector of M.T @ M with the smallest eigenvalue.

    Requires cols(M) <= rows(M). Returns (v, lam) with lam = ||M v||^2,
    the Rayleigh quotient of the selected eigenvector (consistent with v
    by construction, and equal to the smallest Gram eigenvalue up to
    factorization error). Sign convention: the first nonzero component
    of v is positive. Eigenvalue ties resolve to the lowest index in the
    ascending eigendecomposition order.
    """
    a = as_dense(m)
    rows, cols = a.shape
    if cols > rows:
        raise ValueError(f"require cols <= rows, got {rows}x{cols}")
    gram = a.T @ a
    try:
        _, vecs = np.linalg.eigh(gram)
    except np.linalg.LinAlgError as exc:
        raise FactorizationError(
            f"eigendecomposition did not converge for a {cols}x{cols} Gram matrix"
        ) from exc
    v = vecs[:, 0]
    v = v / np.linalg.norm(v)
    nz = np.flatnonzero(np.abs(v) > np.abs(v).max() * 1e-12)
    if v[nz[0]] < 0:
        v = -v
    mv = a @ v
    return v, float(mv @ mv)
