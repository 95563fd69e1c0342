"""Independent nullity oracle for the rank-sweep workload.

Usage:
    python3 bench/rank_oracle.py SEED

Prints a JSON list of [in_dim, out_dim, nullity], one per rank-sweep row.
Each geometry's matrix is rebuilt here without nullspan.layers (column j is
the convolution of the j-th unit input) from the kernels dim-sweep draws for
that seed, and its nullity comes straight from numpy's singular values with
the documented tolerance sigma_max * max(m, n) * eps.
"""

from __future__ import annotations

import json
import sys

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from nullspan.seeding import make_rng
from run import SWEEP_KERNEL, SWEEP_OUT_CHANNELS, SWEEP_PAD, SWEEP_SHAPE, SWEEP_STRIDE


def sweep_kernels(seed: int, index: int, c_out: int) -> np.ndarray:
    """The kernels dim-sweep draws for its index-th geometry."""
    return make_rng(seed, 20, index).standard_normal(
        (c_out, SWEEP_SHAPE[0], SWEEP_KERNEL, SWEEP_KERNEL))


def sweep_matrix(kernels: np.ndarray) -> np.ndarray:
    """Dense matrix of the bias-free convolution with these kernels."""
    n = int(np.prod(SWEEP_SHAPE))
    units = np.eye(n).reshape(n, *SWEEP_SHAPE)
    pad = SWEEP_PAD
    padded = np.pad(units, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    k = SWEEP_KERNEL
    windows = sliding_window_view(padded, (k, k), axis=(2, 3))
    windows = windows[:, :, ::SWEEP_STRIDE, ::SWEEP_STRIDE]
    out = np.tensordot(windows, kernels, axes=([1, 4, 5], [1, 2, 3]))  # (n, oh, ow, c_out)
    return out.transpose(0, 3, 1, 2).reshape(n, -1).T


def rank_oracle(seed: int) -> list[list[int]]:
    eps = np.finfo(np.float64).eps
    rows = []
    for index, c_out in enumerate(SWEEP_OUT_CHANNELS):
        a = sweep_matrix(sweep_kernels(seed, index, c_out))
        m, n = a.shape
        sv = np.linalg.svd(a, compute_uv=False)
        rank = int(np.count_nonzero(sv > sv[0] * max(m, n) * eps))
        rows.append([n, m, n - rank])
    return rows


if __name__ == "__main__":
    print(json.dumps(rank_oracle(int(sys.argv[1]))))
