"""Output-invariant image scrambling.

Given the harmless basis U of a network's first linear layer, the image
x_hat = x + U @ c has exactly the same network output as x for every
coefficient vector c. Visual privacy comes from choosing c to maximize
the mean squared pixel difference (1/n) * ||U c||^2 while two soft
penalties keep pixels near [0, 1]: each out-of-bounds pixel contributes
|x_hat_i| to the penalty, weighted by penalty_weight in the objective.

The optimizer is plain gradient ascent on c with the closed-form
gradient (2/n) * c - penalty_weight * U.T @ g, where g_i is -1 for
x_hat_i < 0, +1 for x_hat_i > 1, and 0 otherwise (including exactly at
the bounds). A short settling phase with a much smaller step lets the
penalty park every pixel back inside the box before the run ends. The
iterate is never clamped: clamping would leave the harmless subspace
and break exact output invariance. Bound violations are reported, not
clipped away; 8-bit export quantizes for viewing only, and quantized
exports are not output-invariant.

A stack of B images is scrambled in one ascent: the coefficients are a
(B, d) array C, one row per image, so each iteration costs one matrix
product C @ U.T, which tests every pixel against the box. G is nonzero
only at out-of-box pixels, which after the first few iterations are a
handful per image, so the penalty term U.T @ g of each image is summed
from the rows of U at those pixels, in ascending pixel order, instead of
a dense product G @ U. Rows never interact; batching changes only rounding.

Because x_hat - x stays in span(U) at every iteration, no projection or
correction step is ever needed and the network output matches to
floating-point accuracy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .network import Network, forward
from .subspace import EmptySubspaceError, NullspaceBasis

__all__ = [
    "DivergenceError",
    "PrivacyConfig",
    "PrivacyResult",
    "maximize_dissimilarity",
    "sample_reconstructions",
]


class DivergenceError(RuntimeError):
    """The ascent produced a non-finite objective."""


@dataclass(frozen=True)
class PrivacyConfig:
    """Optimizer settings.

    max_iters/step_size drive the growth phase; settle_iters and
    settle_step_size run afterwards with the same penalty weight so the
    final iterate sits inside the pixel box. init_coeff_scale scales the
    seeded Gaussian initialization of c (0 starts exactly at x); the seed
    of each image is an argument of maximize_dissimilarity.
    """

    max_iters: int = 2000
    step_size: float = 4.0
    penalty_weight: float = 0.15
    settle_iters: int = 300
    settle_step_size: float = 0.05
    init_coeff_scale: float = 0.8

    def __post_init__(self):
        if self.max_iters < 1:
            raise ValueError(f"max_iters must be >= 1, got {self.max_iters}")
        if self.settle_iters < 0:
            raise ValueError(f"settle_iters must be >= 0, got {self.settle_iters}")
        if self.step_size <= 0 or self.settle_step_size <= 0:
            raise ValueError("step sizes must be positive")
        if self.penalty_weight < 0:
            raise ValueError(f"penalty_weight must be >= 0, got {self.penalty_weight}")
        if self.init_coeff_scale < 0:
            raise ValueError(f"init_coeff_scale must be >= 0, got {self.init_coeff_scale}")


@dataclass(frozen=True)
class PrivacyResult:
    """Scrambled images plus diagnostics, one leading row per image.

    image is x + U @ coefficients (unclamped, BCHW); mse is the mean
    squared pixel difference to the original; max_bound_violation is the
    largest distance any pixel sits outside [0, 1]; output_deviation is
    the max-abs difference of scrambled_logits and clean_logits.
    objective_history is every objective before every iteration, (iterations, B),
    and penalty_history the penalty sum |x_hat_i| over out-of-box pixels at
    the same iterates, so the MSE of iteration t is
    objective_history[t] + penalty_weight * penalty_history[t].
    """

    image: np.ndarray
    coefficients: np.ndarray
    mse: np.ndarray
    max_bound_violation: np.ndarray
    clean_logits: np.ndarray
    scrambled_logits: np.ndarray
    output_deviation: np.ndarray
    objective_history: np.ndarray
    penalty_history: np.ndarray


def _objective_and_gradient(c, u, u_rows, x_flat, n, penalty_weight):
    """Objective, penalty and gradient of every row of c, each shaped (B,) or (B, d).

    u is the (n, d) basis and u_rows the same values in row-major order.
    The penalty gradient U.T @ g of image i is the signed sum of the rows
    of U at its out-of-box pixels, added in ascending pixel order; g is
    zero almost everywhere once the ascent is under way, so this replaces
    a dense (B, n) @ (n, d) product. Only one image's gathered rows exist
    at a time.
    """
    # overflow here is caught by the caller's finiteness check
    with np.errstate(over="ignore", invalid="ignore"):
        uc = c @ u.T
        x_hat = x_flat + uc
        # NaN is in neither set; a NaN uc still makes uc . uc NaN below
        image, pixel = np.divmod(np.flatnonzero((x_hat > 1.0) | (x_hat < 0.0)), n)
        value = x_hat[image, pixel]
        sign = np.where(value > 1.0, 1.0, -1.0)
        # bincount adds in input order; it returns int64 zeros when nothing is out of box
        penalty = np.bincount(image, weights=np.abs(value), minlength=len(c)).astype(np.float64)
        objective = np.einsum("ij,ij->i", uc, uc) / n - penalty_weight * penalty
        penalty_grad = np.zeros_like(c)
        bounds = np.searchsorted(image, np.arange(len(c) + 1)).tolist()
        for i, (lo, hi) in enumerate(zip(bounds[:-1], bounds[1:])):
            if lo < hi:
                signed = u_rows.take(pixel[lo:hi], axis=0)
                signed *= sign[lo:hi, None]
                signed.sum(axis=0, out=penalty_grad[i])
        gradient = (2.0 / n) * c - penalty_weight * penalty_grad
    return objective, penalty, gradient


def maximize_dissimilarity(images: np.ndarray, basis: NullspaceBasis, net: Network,
                           cfg: PrivacyConfig, seeds: list[int]) -> PrivacyResult:
    """Scramble a stack of images (B, C, H, W) inside the harmless subspace
    of net's first linear layer, all in one ascent loop.

    `basis` must be that layer's harmless basis; every image must match
    the network input shape with values in [0, 1]. Image i starts from
    cfg.init_coeff_scale * default_rng(seeds[i]).standard_normal(d).
    """
    x = np.asarray(images, dtype=np.float64)
    if x.ndim != 4 or x.shape[1:] != net.input_shape:
        raise ValueError(f"image shape {x.shape} != (B, *{net.input_shape})")
    b = x.shape[0]
    if b < 1 or len(seeds) != b:
        raise ValueError(f"need one seed for each of >= 1 images, got {len(seeds)} for {b}")
    n = x[0].size
    if basis.ambient_dim != n:
        raise ValueError(f"basis ambient dim {basis.ambient_dim} != image size {n}")
    if basis.dim == 0:
        raise EmptySubspaceError("harmless subspace is {0}; cannot scramble")
    if not np.all(np.isfinite(x)):
        raise ValueError("image values must be finite, got NaN or infinity")
    if x.min() < 0.0 or x.max() > 1.0:
        raise ValueError("image values must lie in [0, 1]")

    # C @ U.T runs fastest on the basis as stored (Fortran order from QR);
    # gathering pixel rows needs them contiguous
    u = basis.basis
    u_rows = np.ascontiguousarray(u)
    x_flat = x.reshape(b, n)
    c = cfg.init_coeff_scale * np.stack(
        [np.random.default_rng(seed).standard_normal(basis.dim) for seed in seeds])

    history, penalties = [], []
    for step in [cfg.step_size] * cfg.max_iters + [cfg.settle_step_size] * cfg.settle_iters:
        objective, penalty, gradient = _objective_and_gradient(c, u, u_rows, x_flat, n,
                                                               cfg.penalty_weight)
        diverged = np.flatnonzero(~np.isfinite(objective))
        if diverged.size:
            raise DivergenceError(f"objective of image {diverged[0]} became non-finite; "
                                  "try a smaller step_size")
        history.append(objective)
        penalties.append(penalty)
        c = c + step * gradient

    delta = c @ u.T
    x_hat = x_flat + delta
    scrambled = x_hat.reshape(x.shape)
    clean_logits = np.stack([forward(net, xi).logits for xi in x])
    scrambled_logits = np.stack([forward(net, xi).logits for xi in scrambled])
    return PrivacyResult(
        image=scrambled,
        coefficients=c,
        mse=np.einsum("ij,ij->i", delta, delta) / n,
        max_bound_violation=np.maximum(0.0, np.maximum(-x_hat.min(axis=1),
                                                       x_hat.max(axis=1) - 1.0)),
        clean_logits=clean_logits,
        scrambled_logits=scrambled_logits,
        output_deviation=np.abs(scrambled_logits - clean_logits).max(axis=1),
        objective_history=np.array(history),
        penalty_history=np.array(penalties),
    )


def sample_reconstructions(x_hat: np.ndarray, basis: NullspaceBasis, k: int,
                           seed: int) -> np.ndarray:
    """k candidate originals x_hat - U @ c_j with seeded Gaussian c_j, as (k, C, H, W).

    Every candidate has the same network output as x_hat (their
    differences lie in the harmless subspace), which is exactly why the
    true original cannot be singled out from outputs alone once the
    subspace has dimension >= 2.
    """
    x_hat = np.asarray(x_hat, dtype=np.float64)
    if basis.dim == 0:
        raise EmptySubspaceError("harmless subspace is {0}; nothing to sample")
    if basis.ambient_dim != x_hat.size:
        raise ValueError(f"basis ambient dim {basis.ambient_dim} != image size {x_hat.size}")
    coeffs = np.random.default_rng(seed).standard_normal((k, basis.dim))
    return (x_hat.ravel() - coeffs @ basis.basis.T).reshape((k, *x_hat.shape))
