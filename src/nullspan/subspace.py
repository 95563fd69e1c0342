"""Harmless-perturbation subspaces of lowered layers.

The nullspace N(A) of a layer's equivalent matrix contains exactly the
input perturbations the layer cannot see: A @ (z + delta) = A @ z. This
module computes an orthonormal basis U of that subspace, decomposes
arbitrary perturbations into their invisible (parallel) and effective
(orthogonal) parts, solves for the least harmful direction when the
subspace is trivial, and classifies perturbation pairs by whether they
produce identical, proportional, or different layer outputs.

A layer enters as its lowered matrix A (layers.build_equivalent) and the
harmless subspace as the plain (n, d) array U whose orthonormal columns
span N(A): n is the layer's input dimension and d the subspace dimension.

Projections in this module use U @ (U.T @ v); with orthonormal columns this equals the
textbook projector U (U.T U)^-1 U.T without materializing an n x n
matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .linalg import orthonormal_nullspace, rank_tolerance_bound, smallest_eigenpair_gram
from .tensorio import read_tensor, write_tensor

__all__ = [
    "EmptySubspaceError",
    "Decomposition",
    "LeastHarmful",
    "PairVerdict",
    "IDENTICAL_OUTPUT",
    "PROPORTIONAL",
    "DIFFERENT_OUTPUT",
    "harmless_basis",
    "orthogonal_decompose",
    "sample_harmless",
    "least_harmful",
    "relate_outputs",
    "classify_pair",
    "save_basis",
    "load_basis",
]

IDENTICAL_OUTPUT = "identical-output"
PROPORTIONAL = "proportional"
DIFFERENT_OUTPUT = "different-output"

#: Relative tolerance for all output-equivalence verdicts, one order of
#: magnitude above the worst factorization residual seen at desk scale.
VERDICT_RTOL = 1e-9


class EmptySubspaceError(ValueError):
    """The harmless subspace is {0}; the requested operation needs d >= 1."""


@dataclass(frozen=True)
class Decomposition:
    """Split delta = parallel + orthogonal with parallel in span(U)."""

    parallel: np.ndarray
    orthogonal: np.ndarray


@dataclass(frozen=True)
class LeastHarmful:
    """Unit direction minimizing ||A @ v||, with residual = ||A v||^2.

    in_nullspace flags the degenerate case where the matrix turned out
    to have a nontrivial nullspace after all, so the direction is
    outright harmless rather than least harmful.
    """

    direction: np.ndarray
    residual: float
    in_nullspace: bool


@dataclass(frozen=True)
class PairVerdict:
    kind: str
    alpha: float | None = None


def harmless_basis(a) -> np.ndarray:
    """Orthonormal basis U (n, d) of the nullspace of a lowered layer's matrix a."""
    return orthonormal_nullspace(a)


def orthogonal_decompose(u: np.ndarray, delta: np.ndarray) -> Decomposition:
    """Unique split of delta into its component inside span(U) and the
    remainder orthogonal to it. The orthogonal part alone determines the
    layer output; it does not depend on which orthonormal basis spans
    the subspace.
    """
    delta = np.asarray(delta, dtype=np.float64).ravel()
    if delta.size != u.shape[0]:
        raise ValueError(f"vector length {delta.size} != ambient dim {u.shape[0]}")
    parallel = u @ (u.T @ delta)
    return Decomposition(parallel=parallel, orthogonal=delta - parallel)


def sample_harmless(u: np.ndarray, seed: int, target_norm: float) -> np.ndarray:
    """Seeded random direction inside the harmless subspace, rescaled so
    its linf norm equals target_norm: u @ (u.T @ z) for the n normals z
    of default_rng(seed), distributed as u @ N(0, I_d) but set by span(u) only."""
    if u.shape[1] == 0:
        raise EmptySubspaceError("harmless subspace is {0}; nothing to sample")
    if target_norm <= 0:
        raise ValueError(f"target_norm must be positive, got {target_norm}")
    rng = np.random.default_rng(seed)
    delta = u @ (u.T @ rng.standard_normal(u.shape[0]))
    return delta * (target_norm / np.max(np.abs(delta)))


def least_harmful(a) -> LeastHarmful:
    """Unit perturbation with the smallest layer-output energy.

    Meaningful when the layer has no harmless subspace (full column
    rank); if it does have one, the returned direction is harmless
    (residual ~ 0) and in_nullspace is set: ||A v|| <= rank_tolerance_bound(A).
    """
    v, lam = smallest_eigenpair_gram(a)
    # Both sides for A scaled by the 2^-e that puts its largest |entry| in
    # [1/2, 1): near 2^-540 the squares (lam too) underflow to 0, and near
    # 2^1020 the unscaled bound overflows.
    a = sp.csr_matrix(a, dtype=np.float64)
    a.data = np.ldexp(a.data, -np.frexp(np.abs(a.data).max(initial=0.0))[1])
    in_nullspace = bool(np.linalg.norm(a @ v) <= rank_tolerance_bound(a))
    return LeastHarmful(direction=v, residual=lam, in_nullspace=in_nullspace)


def relate_outputs(y: np.ndarray, y_hat: np.ndarray) -> PairVerdict:
    """Relate two layer outputs: identical-output when they coincide,
    proportional(alpha) when y = alpha * y_hat, different-output
    otherwise. Comparisons use VERDICT_RTOL relative to the output
    norms, so two zero outputs count as identical-output.
    """
    ny, nyh = np.linalg.norm(y), np.linalg.norm(y_hat)
    tol = VERDICT_RTOL * max(ny, nyh, 1.0)
    if np.linalg.norm(y - y_hat) <= tol:
        return PairVerdict(IDENTICAL_OUTPUT)
    if nyh <= tol:
        return PairVerdict(DIFFERENT_OUTPUT)
    alpha = float(y @ y_hat) / float(y_hat @ y_hat)
    if np.linalg.norm(y - alpha * y_hat) <= tol:
        return PairVerdict(PROPORTIONAL, alpha=alpha)
    return PairVerdict(DIFFERENT_OUTPUT)


def classify_pair(u: np.ndarray, delta: np.ndarray,
                  delta_hat: np.ndarray) -> PairVerdict:
    """Relate the layer outputs of two perturbations via their orthogonal
    components, which alone determine the outputs: relate_outputs applied
    to the two components. Two outright-harmless perturbations (both
    components zero) count as identical-output: both outputs are zero.
    """
    return relate_outputs(orthogonal_decompose(u, delta).orthogonal,
                          orthogonal_decompose(u, delta_hat).orthogonal)


# --- serialization -------------------------------------------------------
#
# A basis file is a tensor file (see tensorio) whose one tensor is named
# "basis" and is 2-d, of shape (n, d), with finite entries.


def save_basis(u: np.ndarray, path) -> None:
    write_tensor(path, "basis", u)


def load_basis(path) -> np.ndarray:
    name, u = read_tensor(path)
    if name != "basis" or u.ndim != 2:
        raise ValueError(f"not a basis file: expected a 2-d 'basis' tensor, got {name!r} {u.shape}")
    if not np.all(np.isfinite(u)):
        raise ValueError("basis contains non-finite values")
    return u
