"""Factorizations shared by the rest of the package.

Everything runs in float64 through LAPACK (via numpy and scipy); the
least-harmful eigenpair adds ARPACK's Lanczos (via scipy) on top.

Rank, nullity and harmless basis have one entry point, decide_rank. It
first tries a cheap certificate that the matrix has full rank: a
Cholesky factorization of the short side's Gram matrix, shifted by a
rounding bound (see _certify_full_rank for the inequality). When the
certificate holds, the nullity is cols - min(rows, cols) and the basis
of a wide matrix is the trailing columns of Q in a Householder QR of
A.T (Golub & Van Loan, Matrix Computations, 4th ed., section 5.2). When
it declines, the singular values decide against rank_tolerance, exactly
as a plain SVD rank query does; the evidence for either decision is
returned with it. certified_rank is the certified branch alone: it
returns None where decide_rank would run the SVD. smallest_eigenpair_gram
solves for one eigenpair of A.T @ A only.

Both the certificate and the QR work in band order (_band_order): rows
sorted by their first nonzero column, columns by the first sorted row
that touches them. A layer lowering is local, so in that order its Gram
matrix is a band (half-width 686 for the 2560 x 3072 first conv layer
of the default network, 4.3% filled) and A.T is a staircase; a fully
filled matrix sorts to its own order, with a full band and a full
staircase. Every input is taken as a CSR matrix, and its fill alone
picks the Gram product: sparse below _DENSE_GRAM_FILL, one dense BLAS
product above it. LAPACK's band Cholesky (pbtrf) factors the band, and
the QR follows the staircase (George & Heath, Linear Algebra Appl. 34,
1980, on row orders for sparse QR) with one LAPACK geqrt per block of
columns and one gemqrt per update; neither touches more than the band
or the staircase holds. smallest_eigenpair_gram runs shift-invert Lanczos
(ARPACK) on the same band Gram (_banded_gram) and band Cholesky
(_band_cholesky) of A.T @ A. One proven slack (_cholesky_slack) sets both
shifts: subtracted for the certificate, added for the eigenpair.
The SVD fallback makes one dense copy of A, in Fortran order, and
scipy's LAPACK gesdd factors it in place (numpy's svd would copy it once
more). The copies of A that linalg makes (the rows _banded_gram permutes,
the QR's band store, _unit_schur's |A|, the SVD's dense copy) are scaled
by 2^-e, e = _unit_exponent, found once per entry point, so nothing
overflows or underflows to zero, and 2^k A with normal entries gets A's
results and 2^k times A's evidence and singular values, on either path
of decide_rank.

All functions are pure and deterministic: repeated calls on identical
input return bit-identical results (ARPACK restarts from a seeded draw).

The BLAS thread count is fixed per call site, not taken from the
environment: _blas_threads(n) pins both OpenBLAS pools that the numpy and
scipy wheels bundle for the length of a block. cli.main runs every
command at 1 thread, and the SVD fallback pins 2 from
_SVD_TWO_THREAD_ENTRIES entries on, the one call site and size where the
second thread pays. A command's results therefore do not depend on
OPENBLAS_NUM_THREADS; on a BLAS without those pools the pin does nothing.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import glob
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy
import scipy.sparse as sp

__all__ = [
    "CERTIFIED_PATH",
    "SVD_PATH",
    "FactorizationError",
    "RankDecision",
    "svd",
    "singular_values",
    "sigma_max_bound",
    "rank_tolerance",
    "rank_tolerance_bound",
    "numerical_rank",
    "certified_rank",
    "decide_rank",
    "orthonormal_nullspace",
    "smallest_eigenpair_gram",
]

_EPS = float(np.finfo(np.float64).eps)
_UNIT_ROUNDOFF = _EPS / 2
_SMALLEST_SUBNORMAL = float(np.finfo(np.float64).smallest_subnormal)
# Above this share of nonzeros a sparse Gram product costs far more than
# a dense BLAS one.
_DENSE_GRAM_FILL = 0.25

#: RankDecision.path values.
CERTIFIED_PATH = "certified"
SVD_PATH = "svd"


class FactorizationError(RuntimeError):
    """A factorization did not converge within LAPACK's iteration cap."""


def _checked(m) -> sp.csr_matrix:
    """m as a float64 CSR matrix; only a canonical CSR input shares its
    arrays, as scipy sorts and sums any other in place.

    Raises ValueError on non-2d input or non-finite entries.
    """
    if np.ndim(m) != 2:
        raise ValueError(f"expected a 2-d matrix, got ndim={np.ndim(m)}")
    m = sp.csr_matrix(m, dtype=np.float64)
    if not m.has_canonical_format:
        m = m.tocoo().tocsr()
    if not np.all(np.isfinite(m.data)):
        raise ValueError("matrix contains NaN or Inf entries")
    return m


# Thread-count symbols of the wheels' OpenBLAS (ILP64 and LP64 builds) and
# of a plain OpenBLAS build.
_OPENBLAS_THREADS = ("scipy_openblas_{}_num_threads64_", "scipy_openblas_{}_num_threads",
                     "openblas_{}_num_threads64_", "openblas_{}_num_threads")


@functools.cache
def _openblas_pools() -> tuple:
    """(get, set) thread-count functions of each OpenBLAS bundled with the
    numpy and scipy wheels (numpy's ILP64 copy, scipy's LP64 copy); empty
    where neither wheel bundles one."""
    pools = []
    for package in (np, scipy):
        libdir = Path(package.__file__).resolve().parent.parent / f"{package.__name__}.libs"
        for lib in sorted(glob.glob(str(libdir / "*openblas*"))):
            dll = ctypes.CDLL(lib)
            for name in _OPENBLAS_THREADS:
                get, put = (getattr(dll, name.format(verb), None) for verb in ("get", "set"))
                if get is not None and put is not None:
                    get.argtypes, get.restype = [], ctypes.c_int
                    put.argtypes, put.restype = [ctypes.c_int], None
                    pools.append((get, put))
                    break
    return tuple(pools)


@contextlib.contextmanager
def _blas_threads(n: int):
    """Run the block with every OpenBLAS pool at n threads, then restore the
    counts found on entry; a no-op where no pool is found."""
    pools = _openblas_pools()
    found = [get() for get, _ in pools]
    for _, put in pools:
        put(n)
    try:
        yield
    finally:
        for (_, put), count in zip(pools, found):
            put(count)


# Entries from which the SVD fallback runs at two BLAS threads. Timed at
# seed 0 (2 vCPU, OpenBLAS 0.3.31, singular values only, 4 calls each): up
# to 512x1024 the second thread gains nothing, and a small SVD can stall
# while the main and worker threads take turns on one CPU (81x168 in
# 0.19-0.23 s against 0.8-5 ms at one thread; 720x768 once in 1.0 s).
# From 640x1024 it gains: 155-157 ms against 163-180 ms there, 0.93-0.95 s
# against 1.38-1.45 s at 1584x1728, the size of the declined rank-sweep
# draws (1584 to 1872 rows, 1728 columns).
_SVD_TWO_THREAD_ENTRIES = 600_000
# Entries per block of rows that _lapack_svd scatters at a time; a block's
# row indices and scaled values take 16 bytes per stored entry.
_DENSIFY_BLOCK = 1 << 15


def _lapack_svd(m, compute_uv: bool = True, full_matrices: bool = False):
    """LAPACK's gesdd (via scipy) on the one dense copy of m that linalg
    makes: (u, s, vt), or s alone without compute_uv.

    m's entries are scattered into a zeroed Fortran-order array, the layout
    LAPACK works in, one block of rows at a time and scaled by 2^-e, e =
    _unit_exponent, on the way in. (toarray(order="F") would first convert
    m to CSC, 12 bytes per stored entry: 1.5 dense copies more for a filled
    m.) gesdd then factors the array in place, and only the singular values
    are scaled back, so 2^k m with normal entries gets m's singular vectors
    and 2^k times its singular values, bit for bit.
    """
    import scipy.linalg  # on first use: importing it slows CLI start-up
    m = _checked(m)
    rows, cols = m.shape
    e = _unit_exponent(m.data)
    a = np.zeros((rows, cols), order="F")
    step = max(1, _DENSIFY_BLOCK // max(cols, 1))
    for r0 in range(0, rows, step):
        r1 = min(r0 + step, rows)
        lo, hi = m.indptr[r0], m.indptr[r1]
        # a canonical CSR matrix stores each entry once
        a[np.repeat(np.arange(r0, r1), np.diff(m.indptr[r0:r1 + 1])),
          m.indices[lo:hi]] = np.ldexp(m.data[lo:hi], -e)
    # Below the size rule the SVD runs at the caller's count. Callers that
    # only want a certified decision ask certified_rank.
    pin = _blas_threads(2) if a.size >= _SVD_TWO_THREAD_ENTRIES else contextlib.nullcontext()
    try:
        with pin:
            out = scipy.linalg.svd(a, full_matrices=full_matrices, compute_uv=compute_uv,
                                   overwrite_a=True, check_finite=False)
    except np.linalg.LinAlgError as exc:
        raise FactorizationError(
            f"SVD did not converge for a {rows}x{cols} matrix"
        ) from exc
    if not compute_uv:
        return np.ldexp(out, e)
    u, s, vt = out
    return u, np.ldexp(s, e), vt


def svd(m) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Full SVD (u, s, vt) of a dense or sparse matrix: u is m x m and vt
    is n x n, both orthogonal, and s is non-increasing and non-negative.
    LAPACK's gesdd factors one dense copy of m, scaled by a power of two
    (see _lapack_svd)."""
    return _lapack_svd(m, full_matrices=True)


def singular_values(m) -> np.ndarray:
    """Singular values only (much faster than a full SVD for rank queries),
    from the same one scaled dense copy as svd."""
    return _lapack_svd(m, compute_uv=False)


def _unit_exponent(values: np.ndarray) -> int:
    """e with max |values| 2^-e in [1/2, 1); 0 if every value is zero."""
    return int(np.frexp(max(values.max(initial=0.0), -values.min(initial=0.0)))[1])


def _unit_schur(m) -> tuple[float, int]:
    """(beta, e) for a CSR m: e = _unit_exponent(m.data), and beta the
    Schur bound sqrt(||A||_1 ||A||_inf) >= || |A| ||_2 >= sigma_max(A) of
    A = 2^-e m, in O(nnz). The sums run on |A|, whose largest entry lies in
    [1/2, 1), so none overflows, and beta >= 1/2 unless m = 0.
    """
    a = abs(m)
    e = _unit_exponent(a.data)
    np.ldexp(a.data, -e, out=a.data)
    col_sums, row_sums = (np.asarray(a.sum(axis=axis)) for axis in (0, 1))
    return float(np.sqrt(col_sums.max(initial=0.0) * row_sums.max(initial=0.0))), e


def sigma_max_bound(matrix) -> float:
    """Schur bound sigma_max <= sqrt(||A||_1 * ||A||_inf); see _unit_schur."""
    return float(np.ldexp(*_unit_schur(_checked(matrix))))


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
    last) and rank_tolerance. basis is an orthonormal basis of the
    nullspace (cols x nullity) when it was asked for, else None; only its
    span is specified, not the sign or order of its columns.
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


def _entry_rows(m) -> np.ndarray:
    """Row index of every stored entry of a CSR matrix, in storage order
    and in the matrix's index dtype."""
    return np.repeat(np.arange(m.shape[0], dtype=m.indices.dtype), np.diff(m.indptr))


def _segment_extreme(ufunc, values, indptr, empty: int) -> np.ndarray:
    """ufunc.reduce (np.minimum or np.maximum) of values over each segment
    of a CSR/CSC index pointer; an empty segment (an all-zero row or
    column) gets `empty`."""
    out = np.full(len(indptr) - 1, empty, dtype=np.int64)
    nonempty = np.diff(indptr) > 0
    # reduceat takes the starts of the non-empty segments only: an empty
    # segment's start repeats its successor's, or lies past the end.
    if nonempty.any():
        out[nonempty] = ufunc.reduceat(values, indptr[:-1][nonempty])
    return out


def _ranks(keys: np.ndarray) -> np.ndarray:
    """Position of each key in a stable ascending sort."""
    order = np.argsort(keys, kind="stable")
    ranks = np.empty_like(order)
    ranks[order] = np.arange(order.size)
    return ranks


def _band_order(m) -> tuple[np.ndarray, np.ndarray]:
    """Positions (row_rank, col_rank) of m's rows and columns in band order.

    Rows are sorted by their first nonzero column, then columns by the
    first sorted row that touches them; both sorts are stable and put
    all-zero rows and columns last. For a CHW conv lowering the rows come
    out in (output row, output column, channel) order, so m m.T is a band
    and the nonzeros of m.T keep close to its diagonal (a staircase). A
    fully filled matrix keeps the identity order. O(nnz) for CSR m.
    """
    rows, cols = m.shape
    row_rank = _ranks(_segment_extreme(np.minimum, m.indices, m.indptr, cols))
    first_row = np.full(cols, rows, dtype=np.int64)
    np.minimum.at(first_row, m.indices, row_rank[_entry_rows(m)])
    return row_rank, _ranks(first_row)


def _banded_gram(s, rank: np.ndarray, e: int, beta: float) -> tuple[np.ndarray, float]:
    """(ab, bound): H = fl(S @ S.T), S = 2^-e s (p x k), in LAPACK's lower
    band storage, ab[i - j, j] = H[i, j] for i >= j, with row and column i
    of H placed at rank[i], in Fortran order; and bound >= ||H - G||_2, G =
    S @ S.T exactly, with (beta, e) from _unit_schur of s.

    bound = gamma_k beta^2 + 2 p k eta, u = eps / 2, gamma_k = k u / (1 - k
    u), eta the smallest subnormal. Each entry of S is below 1 and stored
    off by eta / 2 at most, and each product rounds by a relative u or, in
    underflow, by eta / 2, so in any summation order |H - G| <= gamma_k |S|
    |S|.T + 2 k eta entrywise, and beta >= || |S| ||_2.

    The rows of s are put in that order and scaled by 2^-e first; s's fill
    then picks the product. Below the dense-Gram fill it stays sparse, and
    the band reaches the farthest nonzero of H from its diagonal. Above it,
    one dense product fills the band: H is symmetric, so shifting row j of
    its buffer left by j turns the buffer itself into band storage.
    """
    p, k = s.shape
    bound = _gamma(k) * beta * beta + 2 * p * k * _SMALLEST_SUBNORMAL
    s = s[np.argsort(rank)]
    np.ldexp(s.data, -e, out=s.data)
    if s.nnz >= _DENSE_GRAM_FILL * p * k:
        d = s.toarray()
        flat = (d @ d.T).reshape(-1)
        for j in range(1, p):
            flat[j * p:(j + 1) * p - j] = flat[j * p + j:(j + 1) * p]
        return flat.reshape((p, p), order="F"), bound
    g = (s @ s.T).tocsr()
    del s
    i = _entry_rows(g)
    lower = g.indices <= i
    i, j, data = i[lower], g.indices[lower], g.data[lower]
    del g, lower
    kd = int((i - j).max(initial=0))
    ab = np.zeros((kd + 1, p), order="F")
    # ab[i - j, j] sits at j * (kd + 1) + i - j of the Fortran-order buffer
    ab.reshape(-1, order="F")[j.astype(np.int64) * kd + i] = data
    return ab, bound


def _cholesky_slack(ab: np.ndarray, gram_error: float) -> float:
    """t = gram_error + k h, the one slack behind both band Cholesky
    shifts, for an n x n H in _banded_gram's storage, h = max_i h_ii, with
    ||H - G||_2 <= gram_error and G positive semidefinite.

    With u = eps / 2, c = gamma_{n+1} / (1 - gamma_{n+1}) and k = u + n c
    (1 + u), A = fl(H + s I) lies within u (h + |s|) of H + s I. A Cholesky
    of A that completes with positive pivots gives R.T R = A + E, |E| <= c
    d d.T, d_i^2 = a_ii, and one completes if lambda_min(D^-1 A D^-1) > n
    c, D^2 = diag(A) (Demmel; Higham, Accuracy and Stability of Numerical
    Algorithms, 2nd ed., section 10.1 and Thm 10.7). So:
    - fl(H + 2 t I) always factors: lambda_min(A) >= s - gram_error - u (h
      + s) and max_i a_ii <= (1 + u) (h + s), so s (1 - k) > t suffices.
    - If fl(H - 2 (t + mu) I) factors with positive pivots, lambda_min(G)
      > mu: each a_ii is positive and at most h, so ||E||_2 <= c trace(A)
      <= (k - u) h, and A + E is positive definite, so lambda_min(G) > s
      (1 - u) - t = mu + (t + mu) (1 - 2 u).
    At unit scale h >= 1/4 unless H = 0, and k <= 1/4 for n up to 4e7 (the
    certificate declines early beyond n = 1.4e6), so the factor 2 leaves at
    least t / 2 >= u / 8 spare either way, far above the rounding of s and t
    and the Cholesky's underflow (n (n + 2 + sqrt(h)) subnormals). t is
    5.7e-9 on the default network's second conv layer (lambda_min(H) 0.15).
    """
    n = ab.shape[1]
    cholesky_gamma = _gamma(n + 1)
    k = _UNIT_ROUNDOFF + n * cholesky_gamma / (1.0 - cholesky_gamma) * (1.0 + _UNIT_ROUNDOFF)
    return gram_error + k * float(ab[0].max(initial=0.0))


def _band_cholesky(ab: np.ndarray, shift: float) -> np.ndarray | None:
    """LAPACK's band Cholesky (pbtrf) of ab + shift I, ab in _banded_gram's
    storage and overwritten; None unless every pivot is positive."""
    import scipy.linalg  # on first use: importing it slows CLI start-up
    ab[0] += shift
    try:
        r = scipy.linalg.cholesky_banded(ab, overwrite_ab=True, lower=True, check_finite=False)
    except np.linalg.LinAlgError:
        return None
    # A NaN pivot can slip through some factorization implementations.
    return r if np.all(r[0] > 0) else None


def _certify_full_rank(m, row_rank: np.ndarray, col_rank: np.ndarray,
                       beta: float, e: int) -> tuple[float, float] | None:
    """Prove that m has full rank min(rows, cols) = p with margin, or decline.

    Returns (sigma_min_lower, tau_ub) with sigma_p(m) > sigma_min_lower =
    margin * tau_ub, or None when the certificate does not hold.

    Notation, for m scaled by 2^-e (the evidence is scaled back), with
    (beta, e) from _unit_schur and u, eps as in _banded_gram: q = max(rows,
    cols), tau_ub = beta * q * eps, S the short side (m if rows <= cols,
    else m.T) and mu = (margin tau_ub)^2. _banded_gram gives H = fl(S @
    S.T) and a bound on ||H - S @ S.T||_2; if the band Cholesky of fl(H - 2
    (t + mu) I), t = _cholesky_slack, completes with positive pivots, then
    sigma_p(m)^2 > mu (the proofs are there; Rump, "Verification of
    positive definiteness", BIT 46, 2006, uses the same construction).

    The Gram matrix is formed and factored in band order (rows of a wide
    m, columns of a tall one; see _band_order). Permuting it symmetrically
    changes none of the bounds, and a band Cholesky (LAPACK pbtrf) is a
    Cholesky that skips exact zeros, so the evidence never depends on the
    factorization.

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
    tau_ub = beta * q * _EPS
    margin = 2.0 + 2.0 * p * np.sqrt(p)
    rank = row_rank if rows <= cols else col_rank
    ab, gram_error = _banded_gram(m if rows <= cols else m.T, rank, e, beta)
    shift = -2.0 * (_cholesky_slack(ab, gram_error) + (margin * tau_ub) ** 2)
    if _band_cholesky(ab, shift) is None:
        return None
    return float(np.ldexp(margin * tau_ub, e)), float(np.ldexp(tau_ub, e))


# Columns per block of the staircase QR: one geqrt factors a block and one
# gemqrt applies it. At one BLAS thread the first layer's
# decide_rank(with_basis=True), 16 warm calls per set at seeds 1234 and 7
# alternating with the former code (2 vCPU, OpenBLAS 0.3.31), took medians
# of 0.41, 0.40 and 0.28 s over three sets, against 0.42, 0.42 and 0.31 s
# for 32-column geqrt panels merged into one 96-column factor.
_QR_BLOCK = 96


def _row_space_complement(m, row_rank: np.ndarray, col_rank: np.ndarray, e: int) -> np.ndarray:
    """Orthonormal basis of N(m) for a wide k x n m of full row rank: the
    trailing n - k columns of Q in B = Q R, B the n x k m.T in band order.

    Right-looking blocked Householder QR (Golub & Van Loan, Matrix
    Computations, 4th ed., sections 5.1.7 and 5.2.3) that follows B's
    staircase. The block of columns [j0, j1) is factored over rows [j0,
    r1), r1 one past the last row any column up to j1 reaches, by one
    LAPACK geqrt, which leaves its reflectors below the diagonal of B and
    their compact WY factor I - V T V.T in T. One gemqrt applies that
    factor to the trailing columns with a nonzero above r1, a prefix in
    band order: below r1, and past that prefix, the block's reflectors
    would meet only exact zeros. Q[:, k:] is then [0; I] with the blocks
    applied in reverse by gemqrt, each to the columns of [0; I] it
    reaches, and its rows are put back in m's column order. A fully
    filled m has a full staircase, so the same loop is a plain blocked QR.

    B is held in the layout of LAPACK's band storage when that is shorter
    than n rows: column j keeps rows [j - ku, j + kl] at stride kl + ku, so
    every block the loop touches is a strided view of that store. m's
    entries enter it scaled by 2^-e (a pass over it would fault in pages).
    """
    import scipy.linalg
    k, n = m.shape
    # first[j] / last[j]: first and last nonzero row of B's column j.
    b_row, b_col = col_rank[m.indices], row_rank[_entry_rows(m)]
    first, last = np.empty(k, dtype=np.int64), np.empty(k, dtype=np.int64)
    first[row_rank] = _segment_extreme(np.minimum, b_row, m.indptr, n)
    last[row_rank] = _segment_extreme(np.maximum, b_row, m.indptr, -1)
    # bottom[j]: last row reached by a column up to j (at least row j);
    # top[j]: first row reached by a column from j on.
    bottom = np.maximum.accumulate(np.maximum(last, np.arange(k)))
    top = np.minimum.accumulate(first[::-1])[::-1]
    spans = []
    for j0 in range(0, k, _QR_BLOCK):
        j1 = min(j0 + _QR_BLOCK, k)
        r1 = int(bottom[j1 - 1]) + 1
        spans.append((j0, j1, r1, max(j1, int(np.searchsorted(top, r1 - 1, side="right")))))
    kl = max(r1 - 1 - j0 for j0, _, r1, _ in spans)
    ku = max(end - 1 - j0 for j0, _, _, end in spans)
    lda = min(kl + ku + 1, n)
    # B[i, j] sits at store[j * stride + i + origin]
    stride, origin = (lda - 1, ku) if lda < n else (n, 0)
    # One allocation holds B and Q[:, k:]. Freed on its own, a B below
    # glibc's 32 MiB mmap cap raises the mmap threshold past the size of Q
    # and the basis, which then come from the heap and stay resident,
    # raising peak RSS.
    work = np.zeros(k * lda + n * (n - k))
    store, q = work[:k * lda], work[k * lda:].reshape((n, n - k), order="F")
    store[b_col * stride + b_row + origin] = np.ldexp(m.data, -e)
    del b_row, b_col

    def block(r0, r1, c0, c1):
        return np.lib.stride_tricks.as_strided(
            store[c0 * stride + r0 + origin:], (r1 - r0, c1 - c0),
            (store.itemsize, store.itemsize * stride))

    geqrt, gemqrt = scipy.linalg.get_lapack_funcs(("geqrt", "gemqrt"), (store,))
    factors = []
    for j0, j1, r1, end in spans:
        h, t, info = geqrt(j1 - j0, block(j0, r1, j0, j1))
        if info != 0:
            raise FactorizationError(f"geqrt failed with info={info}")
        block(j0, r1, j0, j1)[...] = h
        if end > j1:
            block(j0, r1, j1, end)[...] = gemqrt(h, t, block(j0, r1, j1, end), trans="T")[0]
        factors.append((j0, j1, r1, t))
    np.fill_diagonal(q[k:], 1.0)
    reached = 0
    for j0, j1, r1, t in reversed(factors):
        reached = max(reached, r1 - k)
        if reached > 0:
            q[j0:r1, :reached] = gemqrt(block(j0, r1, j0, j1), t, q[j0:r1, :reached])[0]
    # gather along the contiguous axis of the Fortran-order q
    return q.T.take(col_rank, axis=1).T


def certified_rank(m, with_basis: bool = False) -> RankDecision | None:
    """decide_rank's decision when _certify_full_rank proves full rank,
    else None; no SVD runs either way.

    The nullity is then cols - min(rows, cols), and the basis (with_basis)
    is empty for a tall or square m, or the QR complement of m's row space
    for a wide m (_row_space_complement). Both work on m in band order
    (_band_order), with one (beta, e) from _unit_schur.
    """
    m = _checked(m)
    rows, cols = m.shape
    order = _band_order(m)
    beta, e = _unit_schur(m)
    certificate = _certify_full_rank(m, *order, beta, e)
    if certificate is None:
        return None
    rank = min(rows, cols)
    basis = None
    if with_basis:
        basis = _row_space_complement(m, *order, e) if rows < cols else np.zeros((cols, 0))
    evidence = {"sigma_min_lower": certificate[0], "tau_ub": certificate[1]}
    return RankDecision(rank, cols - rank, CERTIFIED_PATH, evidence, basis)


def decide_rank(m, with_basis: bool = False) -> RankDecision:
    """Numerical rank, nullity and (with_basis) orthonormal nullspace basis.

    certified_rank decides when its certificate holds. Otherwise the
    singular values decide: the rank counts those above rank_tolerance,
    and the basis is the right singular vectors past the rank, which
    LAPACK already returns orthonormal. Either way the basis is one
    orthonormal basis of N(m), with no sign or order convention for its
    columns: callers must depend on its span only. Both routes are deterministic,
    so it repeats bit for bit.
    """
    m = _checked(m)
    decision = certified_rank(m, with_basis)
    if decision is not None:
        return decision

    rows, cols = m.shape
    # The singular values of 2^-e m decide and the evidence is scaled back,
    # as on the certified path, so that no singular value or tolerance
    # overflows or rounds into the subnormals before the decision.
    e = _unit_exponent(m.data)
    unit = sp.csr_matrix((np.ldexp(m.data, -e), m.indices, m.indptr), shape=m.shape)
    basis = None
    if with_basis:
        # Only V's rows past a wide m's rank need full matrices; a tall m
        # would get a rows x rows U that is thrown away.
        _, sv, vt = _lapack_svd(unit, full_matrices=rows < cols)
        rank = numerical_rank(sv, rows, cols)
        basis = np.ascontiguousarray(vt[rank:].T)
    else:
        sv = singular_values(unit)
        rank = numerical_rank(sv, rows, cols)
    evidence = {"sigma_r": float(np.ldexp(sv[rank - 1], e)) if rank else None,
                "sigma_r1": float(np.ldexp(sv[rank], e)) if rank < sv.size else 0.0,
                "tolerance": float(np.ldexp(rank_tolerance(sv, rows, cols), e))}
    return RankDecision(rank, cols - rank, SVD_PATH, evidence, basis)


def orthonormal_nullspace(m) -> np.ndarray:
    """Orthonormal basis (as columns) of the nullspace of m; see decide_rank.

    A full-column-rank matrix yields a (cols, 0) array.
    """
    return decide_rank(m, with_basis=True).basis


def _lowest_eigvec_shift_invert(ab: np.ndarray, gram_error: float) -> np.ndarray:
    """Eigenvector, in band order, for the smallest eigenvalue of an n x n
    positive semidefinite G given as H = fl(G) in _banded_gram's storage
    ab (overwritten), with ||H - G||_2 <= gram_error.

    Lanczos (ARPACK) finds the dominant eigenvector of (H + s I)^-1 on one
    band Cholesky of H + s I (Ericsson & Ruhe, Math. Comp. 35, 1980), s = 2
    _cholesky_slack(H, gram_error), which it provably completes, with no
    solve overflowing. One more solve damps, by s over the next eigenvalue,
    the rounding it mixes into a cluster of equal eigenvalues such as a
    null space (||M v|| up to 5.3 eps sigma_max_bound(M) without it, 0.6
    with it, for M sparse 100x300). ARPACK restarts from a seeded draw
    where the Krylov space of the all-ones start vector breaks down early.
    An all-zero H, and n = 1, which ARPACK does not take, give the first
    unit vector.
    """
    n = ab.shape[1]
    if n == 1 or not ab[0].any():
        return np.eye(n, 1)[:, 0]
    import scipy.linalg  # on first use: importing them slows CLI start-up
    import scipy.sparse.linalg as spla
    factor = _band_cholesky(ab, 2.0 * _cholesky_slack(ab, gram_error))
    if factor is None:
        raise FactorizationError(f"band Cholesky failed for a shifted {n}x{n} Gram matrix")
    solve = functools.partial(scipy.linalg.cho_solve_banded, (factor, True), check_finite=False)
    inverse = spla.LinearOperator((n, n), matvec=solve, dtype=np.float64)
    try:
        _, vecs = spla.eigsh(inverse, k=1, which="LM", v0=np.ones(n),
                             ncv=min(20, n), tol=0, rng=0)
    except RuntimeError as exc:  # ARPACK
        raise FactorizationError(
            f"shift-invert Lanczos failed for a {n}x{n} Gram matrix: {exc}"
        ) from exc
    return solve(vecs[:, 0])


def smallest_eigenpair_gram(m) -> tuple[np.ndarray, float]:
    """Unit eigenvector of M.T @ M with the smallest eigenvalue.

    One route for every input: _banded_gram forms the Gram matrix of 2^-e
    M, (beta, e) from _unit_schur, in M's column band order with its
    rounding bound, and _lowest_eigvec_shift_invert factors it. Returns
    (v, lam) with lam = (M v) @ (M v), M taken as CSR, the Rayleigh
    quotient of the selected eigenvector (consistent with v by
    construction, and equal to the smallest Gram eigenvalue up to
    factorization error; 0 or inf only where that eigenvalue leaves the
    float64 range). Sign convention: the first nonzero component of v is
    positive. Raises ValueError, before any factorization, if M has no
    columns."""
    m = _checked(m)
    if m.shape[1] == 0:
        raise ValueError(f"a {m.shape[0]}x0 matrix has no columns, so no eigenvector")
    beta, e = _unit_schur(m)
    _, col_rank = _band_order(m)
    v = _lowest_eigvec_shift_invert(*_banded_gram(m.T, col_rank, e, beta))[col_rank]
    v = v / np.linalg.norm(v)
    nz = np.flatnonzero(np.abs(v) > np.abs(v).max() * 1e-12)
    if v[nz[0]] < 0:
        v = -v
    mv = m @ v
    return v, float(mv @ mv)
