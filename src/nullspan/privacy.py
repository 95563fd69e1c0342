"""Output-invariant image scrambling.

Given the harmless basis U of a network's first layer, the image
x_hat = x + U @ c has exactly the same network output as x for every
coefficient vector c. So the scramble is chosen from x and U alone: the
optimizer never runs the network, and the caller checks the output
invariance afterwards. Visual privacy comes from choosing c to maximize
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
c step by U gives y <- (1 + 2 * step / n) * y - step * penalty_weight * P @ g
with the harmless projector P = U U.T, so no iteration needs a product
with U. P is n x n (72 MiB at n = 3072); it is formed once per call by
one GEMM, because each of the 2,300 iterations of a default run reuses
it, and freed when the call returns. g is nonzero only at out-of-box
pixels, which after the first few iterations are a handful per image,
so the penalty gradients of all images are one product G @ P of the
sparse (B, n) sign matrix G with P: scipy's CSR kernel adds the rows of
P at each image's out-of-box pixels, times their signs, in ascending
pixel order, and each of those terms is exact. A stack of B images is
scrambled in one ascent with a (B, n) offset, one row per image; rows
never interact, so batching changes only rounding.

The growth factor lives in a scalar: y = scale * v, and an iteration
multiplies scale by 1 + 2 * step / n and subtracts
(step * penalty_weight / scale) * G @ P from v, which is the update above
in exact arithmetic. So an iteration makes three passes over a (B, n)
array fewer (forming (2/n) * y, scaling the gradient by step and adding
it to y), and calls no BLAS routine. That matters with several BLAS threads: the worker threads
spin after every threaded call (OpenBLAS 0.3.31 with 2 threads burned
about 0.13 s of a second core per re-projection), so a loop that
re-projected every ~0.15 s used two cores for one core's work.

In exact arithmetic y stays in span(U). Rounding leaves a tiny part
outside it that every iteration multiplies by 1 + 2 * step / n while
the penalty term, which lies inside span(U), never pulls it back, so v
is re-projected, v <- scale * ((v U) U.T) with scale reset to 1, once
scale reaches 1024 (a schedule that depends only on the step sizes and
n). The drift grows with the growth since the last projection: the
largest relative out-of-span part of the final, unprojected iterate of a
20-image batch read 2.1e-13 on the 3072-pixel default network, whose
default run grows by about 183 and never re-projects (2.0e-15 with a
projection at every growth of 2), 5.0e-15 there after 6,000 iterations,
and 1.2e-13 and 4.5e-14 at n = 192 after 2,000 and 20,000. Without the
projections the drift reached 6.5e-9 after 6,000 iterations at
n = 3072. At the end the image is x + (y U) U.T, which lies in
x + span(U), so the network output matches to floating-point accuracy.

Every random draw is a Gaussian z in pixel space projected by P: the
ascent starts from init_coeff_scale * z P, and a reconstruction is
x_hat - P z. That is the distribution of U c with c ~ N(0, I_d), but it
depends on span(U) only: any orthonormal basis of the same subspace (a
rotated one, or one from another factorization) gives the same results
up to rounding.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

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
    seeded Gaussian initial offset (0 starts exactly at x); the seed of
    each image is an argument of maximize_dissimilarity.
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

    image is x + (y U) U.T (unclamped, BCHW) for the final pixel offset y
    of the ascent; mse is the mean squared pixel difference to the
    original; max_bound_violation is the largest distance any pixel sits
    outside [0, 1].
    objective_history is every objective before every iteration, (iterations, B),
    and penalty_history the penalty sum |x_hat_i| over out-of-box pixels at
    the same iterates, so the MSE of iteration t is
    objective_history[t] + penalty_weight * penalty_history[t].
    """

    image: np.ndarray
    mse: np.ndarray
    max_bound_violation: np.ndarray
    objective_history: np.ndarray
    penalty_history: np.ndarray


def _ascent_terms(v, scale, x_flat, x_hat, p, penalty_weight):
    """Objective, penalty and penalty product G @ P of every row of the
    pixel offset y = scale * v, shaped (B,), (B,) and (B, n).

    v is (B, n), scale a float and p the (n, n) harmless projector U U.T;
    the preallocated (B, n) buffer x_hat receives x_flat + scale * v. Row i
    of G holds the sign g of image i at its out-of-box pixels, so row i of
    G @ P is the signed sum of the rows of P at those pixels (P is
    symmetric). scipy's CSR kernel adds them in ascending pixel order
    without gathering them; G is zero almost everywhere once the ascent is
    under way, so this replaces a dense (B, n) @ (n, n) product.
    """
    b, n = v.shape
    # overflow here is caught by the caller's finiteness check
    with np.errstate(over="ignore", invalid="ignore"):
        np.multiply(v, scale, out=x_hat)
        x_hat += x_flat
        # NaN is in neither set; a NaN v still makes v . v NaN below
        image, pixel = np.divmod(np.flatnonzero((x_hat > 1.0) | (x_hat < 0.0)), n)
        value = x_hat[image, pixel]
        sign = np.where(value > 1.0, 1.0, -1.0)
        # bincount adds in input order; it returns int64 zeros when nothing is out of box
        penalty = np.bincount(image, weights=np.abs(value), minlength=b).astype(np.float64)
        objective = scale * scale * np.einsum("ij,ij->i", v, v) / n - penalty_weight * penalty
        # image is sorted, so each image's signs form one row of G in pixel order
        g = sp.csr_array((sign, pixel, np.searchsorted(image, np.arange(b + 1))), shape=(b, n))
        return objective, penalty, g @ p


def _check_stack(x: np.ndarray, n: int, seeds: list[int]) -> int:
    """The number B of images in x, after checking that x is a (B, C, H, W)
    stack with C * H * W = n and that there is one seed per image."""
    if x.ndim != 4 or math.prod(x.shape[1:]) != n:
        raise ValueError(f"image shape {x.shape} != (B, C, H, W) with C * H * W = {n}, "
                         "the basis ambient dim")
    if len(x) < 1 or len(seeds) != len(x):
        raise ValueError(f"need one seed for each of >= 1 images, got {len(seeds)} for {len(x)}")
    return len(x)


def maximize_dissimilarity(images: np.ndarray, u: np.ndarray, cfg: PrivacyConfig,
                           seeds: list[int]) -> PrivacyResult:
    """Scramble a stack of images (B, C, H, W) inside span(u), all in one
    ascent loop.

    u is the (n, d) harmless basis of the first layer of the network
    whose output must not move; the network itself is not needed. Every
    image has n = C * H * W pixels with values in [0, 1]. Image i starts
    from the pixel offset cfg.init_coeff_scale * (z_i @ U U.T), with
    z_i = default_rng(seeds[i]).standard_normal(n).
    """
    x = np.asarray(images, dtype=np.float64)
    n = u.shape[0]
    b = _check_stack(x, n, seeds)
    if u.shape[1] == 0:
        raise EmptySubspaceError("harmless subspace is {0}; cannot scramble")
    if not np.all(np.isfinite(x)):
        raise ValueError("image values must be finite, got NaN or infinity")
    if x.min() < 0.0 or x.max() > 1.0:
        raise ValueError("image values must lie in [0, 1]")

    p = u @ u.T
    x_flat = x.reshape(b, n)
    z = np.stack([np.random.default_rng(seed).standard_normal(n) for seed in seeds])
    v = cfg.init_coeff_scale * (z @ p)

    history, penalties = [], []
    x_hat = np.empty_like(x_flat)
    scale = 1.0
    for step in [cfg.step_size] * cfg.max_iters + [cfg.settle_step_size] * cfg.settle_iters:
        objective, penalty, penalty_grad = _ascent_terms(v, scale, x_flat, x_hat, p,
                                                         cfg.penalty_weight)
        diverged = np.flatnonzero(~np.isfinite(objective))
        if diverged.size:
            raise DivergenceError(f"objective of image {diverged[0]} became non-finite; "
                                  "try a smaller step_size")
        history.append(objective)
        penalties.append(penalty)
        # y <- (1 + 2 step / n) y - step w P g, with the growth kept in scale
        scale *= 1.0 + 2.0 * step / n
        penalty_grad *= step * cfg.penalty_weight / scale
        v -= penalty_grad
        # the rounding-level part of y outside span(U) has grown by scale
        if scale >= 1024.0:
            v = scale * ((v @ u) @ u.T)
            scale = 1.0

    y = scale * v
    delta = (y @ u) @ u.T
    x_hat = x_flat + delta
    return PrivacyResult(
        image=x_hat.reshape(x.shape),
        mse=np.einsum("ij,ij->i", delta, delta) / n,
        max_bound_violation=np.maximum(0.0, np.maximum(-x_hat.min(axis=1),
                                                       x_hat.max(axis=1) - 1.0)),
        objective_history=np.array(history),
        penalty_history=np.array(penalties),
    )


def sample_reconstructions(x_hat: np.ndarray, u: np.ndarray, k: int,
                           seeds: list[int]) -> np.ndarray:
    """k candidate originals x_hat[i] - (z_ij U) U.T of each image of a
    (B, C, H, W) stack, as (B, k, C, H, W), with z_ij the rows of
    default_rng(seeds[i]).standard_normal((k, n)). All B * k candidates
    come from one product with U and one with U.T.

    Every candidate has the same network output as its x_hat[i] (their
    differences lie in the harmless subspace), which is exactly why the
    true original cannot be singled out from outputs alone once the
    subspace has dimension >= 2.
    """
    x_hat = np.asarray(x_hat, dtype=np.float64)
    n = u.shape[0]
    b = _check_stack(x_hat, n, seeds)
    if u.shape[1] == 0:
        raise EmptySubspaceError("harmless subspace is {0}; nothing to sample")
    z = np.concatenate([np.random.default_rng(seed).standard_normal((k, n)) for seed in seeds])
    offsets = ((z @ u) @ u.T).reshape(b, k, n)
    return (x_hat.reshape(b, 1, n) - offsets).reshape((b, k, *x_hat.shape[1:]))
