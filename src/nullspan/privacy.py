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

The ascent runs on the pixel offset y = U c instead of c: multiplying the
c step by U gives y <- y + step * ((2/n) * y - penalty_weight * P @ g)
with the harmless projector P = U U.T, so no iteration needs a product
with U. P is n x n (72 MiB at n = 3072); it is formed once per call by
one GEMM, because each of the 2,300 iterations of a default run reuses
it, and freed when the call returns. g is
nonzero only at out-of-box pixels, which after the first few iterations
are a handful per image, so P @ g of each image is the signed sum of the
rows of P at those pixels, added in ascending pixel order. A stack of B
images is scrambled in one ascent with a (B, n) offset, one row per
image; rows never interact, so batching changes only rounding.

In exact arithmetic y stays in span(U). Rounding leaves a tiny part
outside it that every iteration multiplies by 1 + 2 * step / n while
the penalty term, which lies inside span(U), never pulls it back, so y
is re-projected, y <- (y U) U.T, whenever the product of those growth
factors since the last projection reaches 2 (a schedule that depends
only on the step sizes and n). At the end c = y U and the
image is x + U c, which lies in x + span(U), so the network output
matches to floating-point accuracy.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .network import NetworkSpec, forward
from .subspace import EmptySubspaceError

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
        for name in ("max_iters", "settle_iters"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        for name in ("step_size", "penalty_weight", "settle_step_size", "init_coeff_scale"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
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

    image is x + U @ coefficients (unclamped, BCHW), where coefficients is
    y U for the final pixel offset y of the ascent; mse is the mean
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


def _objective_and_gradient(y, p, x_flat, n, penalty_weight):
    """Objective, penalty and gradient of every row of y, each shaped (B,) or (B, n).

    y is the (B, n) pixel offset and p the (n, n) harmless projector
    U U.T. The penalty gradient P @ g of image i is the signed sum of the
    rows of P at its out-of-box pixels (P is symmetric), added in ascending
    pixel order; g is zero almost everywhere once the ascent is under way,
    so this replaces a dense (B, n) @ (n, n) product. Only one image's
    gathered rows exist at a time.
    """
    # overflow here is caught by the caller's finiteness check
    with np.errstate(over="ignore", invalid="ignore"):
        x_hat = x_flat + y
        # NaN is in neither set; a NaN y still makes y . y NaN below
        image, pixel = np.divmod(np.flatnonzero((x_hat > 1.0) | (x_hat < 0.0)), n)
        value = x_hat[image, pixel]
        sign = np.where(value > 1.0, 1.0, -1.0)
        # bincount adds in input order; it returns int64 zeros when nothing is out of box
        penalty = np.bincount(image, weights=np.abs(value), minlength=len(y)).astype(np.float64)
        objective = np.einsum("ij,ij->i", y, y) / n - penalty_weight * penalty
        penalty_grad = np.zeros_like(y)
        bounds = np.searchsorted(image, np.arange(len(y) + 1)).tolist()
        for i, (lo, hi) in enumerate(zip(bounds[:-1], bounds[1:])):
            if lo < hi:
                signed = p.take(pixel[lo:hi], axis=0)
                signed *= sign[lo:hi, None]
                signed.sum(axis=0, out=penalty_grad[i])
        gradient = (2.0 / n) * y - penalty_weight * penalty_grad
    return objective, penalty, gradient


def maximize_dissimilarity(images: np.ndarray, u: np.ndarray, net: NetworkSpec,
                           cfg: PrivacyConfig, seeds: list[int]) -> PrivacyResult:
    """Scramble a stack of images (B, C, H, W) inside the harmless subspace
    of net's first linear layer, all in one ascent loop.

    u must be that layer's (n, d) harmless basis; every image must match
    the network input shape with values in [0, 1]. Image i starts from
    the coefficients cfg.init_coeff_scale * default_rng(seeds[i]).standard_normal(d).
    """
    x = np.asarray(images, dtype=np.float64)
    if x.ndim != 4 or x.shape[1:] != net.input_shape:
        raise ValueError(f"image shape {x.shape} != (B, *{net.input_shape})")
    b = x.shape[0]
    if b < 1 or len(seeds) != b:
        raise ValueError(f"need one seed for each of >= 1 images, got {len(seeds)} for {b}")
    n = x[0].size
    if u.shape[0] != n:
        raise ValueError(f"basis ambient dim {u.shape[0]} != image size {n}")
    if u.shape[1] == 0:
        raise EmptySubspaceError("harmless subspace is {0}; cannot scramble")
    if not np.all(np.isfinite(x)):
        raise ValueError("image values must be finite, got NaN or infinity")
    if x.min() < 0.0 or x.max() > 1.0:
        raise ValueError("image values must lie in [0, 1]")

    p = u @ u.T
    x_flat = x.reshape(b, n)
    c = cfg.init_coeff_scale * np.stack(
        [np.random.default_rng(seed).standard_normal(u.shape[1]) for seed in seeds])
    y = c @ u.T

    history, penalties = [], []
    growth = 1.0
    for step in [cfg.step_size] * cfg.max_iters + [cfg.settle_step_size] * cfg.settle_iters:
        objective, penalty, gradient = _objective_and_gradient(y, p, x_flat, n,
                                                               cfg.penalty_weight)
        diverged = np.flatnonzero(~np.isfinite(objective))
        if diverged.size:
            raise DivergenceError(f"objective of image {diverged[0]} became non-finite; "
                                  "try a smaller step_size")
        history.append(objective)
        penalties.append(penalty)
        y = y + step * gradient
        # the rounding-level part of y outside span(U) grows by this factor
        growth *= 1.0 + 2.0 * step / n
        if growth >= 2.0:
            y = (y @ u) @ u.T
            growth = 1.0

    c = y @ u
    delta = c @ u.T
    x_hat = x_flat + delta
    scrambled = x_hat.reshape(x.shape)
    clean_logits = forward(net, x).logits
    scrambled_logits = forward(net, scrambled).logits
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


def sample_reconstructions(x_hat: np.ndarray, u: np.ndarray, k: int,
                           seed: int) -> np.ndarray:
    """k candidate originals x_hat - U @ c_j with seeded Gaussian c_j, as (k, C, H, W).

    Every candidate has the same network output as x_hat (their
    differences lie in the harmless subspace), which is exactly why the
    true original cannot be singled out from outputs alone once the
    subspace has dimension >= 2.
    """
    x_hat = np.asarray(x_hat, dtype=np.float64)
    if u.shape[1] == 0:
        raise EmptySubspaceError("harmless subspace is {0}; nothing to sample")
    if u.shape[0] != x_hat.size:
        raise ValueError(f"basis ambient dim {u.shape[0]} != image size {x_hat.size}")
    coeffs = np.random.default_rng(seed).standard_normal((k, u.shape[1]))
    return (x_hat.ravel() - coeffs @ u.T).reshape((k, *x_hat.shape))
