"""Metamorphic laws of the lowering and the harmless subspace.

Two symmetries of a conv layer give exact expected answers:

- permuting the input channels (and the kernels' input axis with them)
  permutes the columns of the lowered matrix A;
- transposing H and W, with the kernels, permutes its rows and columns.

Either way the nullity is unchanged and the harmless subspace is the
permuted one. The span is compared by the sine of the largest principal
angle, ||(I - U U.T) U'||_2, after mapping U' back to the original pixel
order. A basis has no sign or order convention, so only spans are compared.
How long a permuted matrix takes is a benchmark matter, not tested here.
"""

from dataclasses import replace

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from nullspan.layers import ConvLayerSpec, build_equivalent
from nullspan.linalg import CERTIFIED_PATH, decide_rank, singular_values
from nullspan.verification import covering_selector_kernels

SPAN_SINE = 1e-12
EPS = float(np.finfo(np.float64).eps)


def pixel_index(channels, height, width):
    return np.arange(channels * height * width).reshape(channels, height, width)


def permute_channels(spec, perm):
    """The layer reading input channel perm[c] as channel c, and the
    column order of its lowering: A' = A[:, cols]."""
    permuted = replace(spec, kernels=spec.kernels[:, perm])
    cols = pixel_index(spec.in_channels, spec.in_height, spec.in_width)[perm].ravel()
    rows = np.arange(spec.output_dim)
    return permuted, rows, cols


def transpose_hw(spec):
    """The layer on transposed images, with transposed kernels, and the row
    and column orders of its lowering: A' = A[rows][:, cols]."""
    transposed = replace(spec, in_height=spec.in_width, in_width=spec.in_height,
                         kernel_h=spec.kernel_w, kernel_w=spec.kernel_h,
                         kernels=spec.kernels.transpose(0, 1, 3, 2))
    cols = pixel_index(spec.in_channels, spec.in_height,
                       spec.in_width).transpose(0, 2, 1).ravel()
    rows = pixel_index(spec.out_channels, spec.out_height,
                       spec.out_width).transpose(0, 2, 1).ravel()
    return transposed, rows, cols


def span_sine(u, v):
    """Sine of the largest principal angle between span(u) and span(v),
    both orthonormal with the same number of columns."""
    if u.shape[1] == 0:
        return 0.0
    return float(np.linalg.norm(v - u @ (u.T @ v), 2))


def conditioned_span_sine(a, rank):
    """SPAN_SINE plus the room Wedin's theorem gives an ill-conditioned
    layer: a backward error of c eps ||A|| moves N(A) by up to c eps
    sigma_1 / sigma_r, sigma_r the smallest nonzero singular value. Over
    6,000 transformed random draws the sine stayed below a fifth of this
    bound; one of them, with sigma_1 / sigma_r = 7,200, moved its span by
    1.2e-12, past SPAN_SINE alone."""
    if rank == 0:
        return SPAN_SINE
    sv = singular_values(a)
    return SPAN_SINE + 16 * EPS * sv[0] / sv[rank - 1]


def assert_law(spec, law, decision=None, compare_path=True, span_bound=SPAN_SINE):
    a = build_equivalent(spec)
    if decision is None:
        decision = decide_rank(a, with_basis=True)
    other, rows, cols = law(spec)
    a2 = build_equivalent(other)
    # the lowering of the transformed layer is the permuted lowering, entry for entry
    assert (a2 != a[rows][:, cols]).nnz == 0
    decision2 = decide_rank(a2, with_basis=True)
    assert decision2.nullity == decision.nullity
    if compare_path:
        assert decision2.path == decision.path
    back = np.empty_like(decision2.basis)
    back[cols] = decision2.basis
    assert span_sine(decision.basis, back) <= span_bound


def channel_law(seed):
    def law(spec):
        return permute_channels(spec, np.random.default_rng(seed).permutation(spec.in_channels))
    return law


@settings(max_examples=40, deadline=None)
@given(
    c_in=st.integers(1, 4),
    h_in=st.sampled_from([3, 5, 7, 9]),
    w_in=st.sampled_from([3, 5, 7, 9]),
    kernel_h=st.integers(1, 3),
    kernel_w=st.integers(1, 3),
    stride=st.integers(1, 2),
    pad=st.integers(0, 1),
    c_out=st.integers(1, 6),
    seed=st.integers(0, 2**32 - 1),
)
def test_symmetries_keep_the_nullity_and_the_span(c_in, h_in, w_in, kernel_h, kernel_w,
                                                  stride, pad, c_out, seed):
    # Gaussian kernels: some draws are ill-conditioned or drop rank, and the
    # certificate declines them, so their paths are not compared and their
    # spans only as closely as their conditioning allows.
    kernels = np.random.default_rng(seed).standard_normal((c_out, c_in, kernel_h, kernel_w))
    spec = ConvLayerSpec(c_in, h_in, w_in, c_out, kernel_h, kernel_w, stride=stride,
                         zero_padding=pad, kernels=kernels)
    a = build_equivalent(spec)
    decision = decide_rank(a, with_basis=True)
    bound = conditioned_span_sine(a, decision.rank)
    for law in (channel_law(seed), transpose_hw):
        assert_law(spec, law, decision, compare_path=False, span_bound=bound)


def test_well_conditioned_draws_keep_the_path():
    # Selector kernels keep every draw well conditioned, so the certificate
    # decides the layer and both transforms alike.
    rng = np.random.default_rng(41)
    for c_out in (4, 12, 16):
        spec = ConvLayerSpec(3, 9, 7, c_out, 3, 3, stride=2, zero_padding=1,
                             kernels=covering_selector_kernels(3, c_out, 3, 0.04, rng))
        assert decide_rank(build_equivalent(spec)).path == CERTIFIED_PATH
        for law in (channel_law(c_out), transpose_hw):
            assert_law(spec, law)


def test_default_first_layer(default_net, first_layer_a, first_layer_basis):
    spec = default_net.layers[0]
    decision = decide_rank(first_layer_a)
    assert decision.path == CERTIFIED_PATH
    decision = replace(decision, basis=first_layer_basis)
    for law in (channel_law(5), transpose_hw):
        assert_law(spec, law, decision)
