"""Harmless-perturbation subspaces of lowered layers.

The nullspace N(A) of a layer's equivalent matrix contains exactly the
input perturbations the layer cannot see: A @ (z + delta) = A @ z. This
module computes an orthonormal basis U of that subspace, decomposes
arbitrary perturbations into their invisible (parallel) and effective
(orthogonal) parts, solves for the least harmful direction when the
subspace is trivial, and classifies perturbation pairs by whether they
produce identical, proportional, or different layer outputs.

Projections in this module use U @ (U.T @ v); with orthonormal columns this equals the
textbook projector U (U.T U)^-1 U.T without materializing an n x n
matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .layers import EquivalentMatrix
from .linalg import orthonormal_nullspace, rank_tolerance_bound, smallest_eigenpair_gram
from .tensorio import read_tensors, write_tensors

__all__ = [
    "EmptySubspaceError",
    "NullspaceBasis",
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
class NullspaceBasis:
    """Orthonormal basis (columns of `basis`) of a harmless subspace."""

    basis: np.ndarray
    source: str = ""

    @property
    def ambient_dim(self) -> int:
        return self.basis.shape[0]

    @property
    def dim(self) -> int:
        return self.basis.shape[1]


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


def harmless_basis(eq: EquivalentMatrix) -> NullspaceBasis:
    """Orthonormal nullspace basis of a lowered layer."""
    u = orthonormal_nullspace(eq.matrix)
    source = f"{eq.layer_kind} {eq.input_shape}->{eq.output_shape}"
    return NullspaceBasis(basis=u, source=source)


def orthogonal_decompose(basis: NullspaceBasis, delta: np.ndarray) -> Decomposition:
    """Unique split of delta into its component inside span(U) and the
    remainder orthogonal to it. The orthogonal part alone determines the
    layer output; it does not depend on which orthonormal basis spans
    the subspace.
    """
    delta = np.asarray(delta, dtype=np.float64).ravel()
    if delta.size != basis.ambient_dim:
        raise ValueError(f"vector length {delta.size} != ambient dim {basis.ambient_dim}")
    parallel = basis.basis @ (basis.basis.T @ delta)
    return Decomposition(parallel=parallel, orthogonal=delta - parallel)


def sample_harmless(basis: NullspaceBasis, seed: int, target_norm: float,
                    norm_kind: str = "l2") -> np.ndarray:
    """Seeded random direction inside the harmless subspace, rescaled so
    its l2 or linf norm equals target_norm."""
    if basis.dim == 0:
        raise EmptySubspaceError("harmless subspace is {0}; nothing to sample")
    if target_norm <= 0:
        raise ValueError(f"target_norm must be positive, got {target_norm}")
    if norm_kind not in ("l2", "linf"):
        raise ValueError(f"norm_kind must be 'l2' or 'linf', got {norm_kind!r}")
    rng = np.random.default_rng(seed)
    c = rng.standard_normal(basis.dim)
    delta = basis.basis @ c
    cur = np.linalg.norm(delta) if norm_kind == "l2" else np.max(np.abs(delta))
    return delta * (target_norm / cur)


def least_harmful(eq: EquivalentMatrix) -> LeastHarmful:
    """Unit perturbation with the smallest layer-output energy.

    Meaningful when the layer has no harmless subspace (full column
    rank); if it does have one, the returned direction is harmless
    (residual ~ 0) and in_nullspace is set.
    """
    v, lam = smallest_eigenpair_gram(eq.matrix)
    tol = rank_tolerance_bound(eq.matrix)
    return LeastHarmful(direction=v, residual=lam, in_nullspace=lam <= tol * tol)


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


def classify_pair(basis: NullspaceBasis, delta: np.ndarray,
                  delta_hat: np.ndarray) -> PairVerdict:
    """Relate the layer outputs of two perturbations via their orthogonal
    components, which alone determine the outputs: relate_outputs applied
    to the two components. Two outright-harmless perturbations (both
    components zero) count as identical-output: both outputs are zero.
    """
    return relate_outputs(orthogonal_decompose(basis, delta).orthogonal,
                          orthogonal_decompose(basis, delta_hat).orthogonal)


# --- serialization -------------------------------------------------------
#
# A basis file is a tensor container (see tensorio) holding exactly one
# 2-d tensor named "basis" of shape (n, d).


def save_basis(basis: NullspaceBasis, path) -> None:
    write_tensors(path, {"basis": basis.basis})


def load_basis(path) -> NullspaceBasis:
    tensors = read_tensors(path)
    u = tensors.get("basis")
    if len(tensors) != 1 or u is None or u.ndim != 2:
        shapes = {name: t.shape for name, t in tensors.items()}
        raise ValueError(f"not a basis file: expected one 2-d 'basis' tensor, got {shapes}")
    return NullspaceBasis(basis=u, source=f"file:{path}")
