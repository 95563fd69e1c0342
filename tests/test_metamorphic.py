"""Metamorphic laws of the lowering and the harmless subspace.

Symmetries of a conv layer give exact expected answers:

- permuting the input channels (and the kernels' input axis with them)
  permutes the columns of the lowered matrix A;
- transposing H and W, with the kernels, permutes its rows and columns;
- flipping the width axis, with the kernels, reverses the columns of
  each input row and of each output row. This needs the sampling grid to
  be symmetric, (W + 2 pad - kernel_w) divisible by the stride: at stride
  2, W and kernel_w of equal parity, so an odd W for an odd kernel;
- permuting the rows or the columns of A itself.

Either way the nullity is unchanged and the harmless subspace is the
permuted one. The span is compared by the sine of the largest principal
angle, ||(I - U U.T) U'||_2, after mapping U' back to the original pixel
order. A basis has no sign or order convention, so only spans are compared.
Scaling the kernels by 2 scales every quantity the rank certificate
computes by a power of 2 without changing a rounding, so a certified draw
stays certified and its evidence doubles bit for bit. How long a permuted matrix takes is a benchmark matter, not
tested here.
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


def flip_width(spec):
    """The layer on images mirrored left to right, with mirrored kernels, and
    the row and column orders of its lowering: A' = A[rows][:, cols]."""
    flipped = replace(spec, kernels=spec.kernels[..., ::-1])
    cols = pixel_index(spec.in_channels, spec.in_height, spec.in_width)[..., ::-1].ravel()
    rows = pixel_index(spec.out_channels, spec.out_height, spec.out_width)[..., ::-1].ravel()
    return flipped, rows, cols


def flip_is_symmetry(spec):
    return (spec.in_width + 2 * spec.zero_padding - spec.kernel_w) % spec.stride == 0


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
    a2, rows, cols = law(spec, a)
    # the transformed matrix is the permuted lowering, entry for entry
    assert (a2 != a[rows][:, cols]).nnz == 0
    decision2 = decide_rank(a2, with_basis=True)
    assert decision2.nullity == decision.nullity
    if compare_path:
        assert decision2.path == decision.path
    back = np.empty_like(decision2.basis)
    back[cols] = decision2.basis
    assert span_sine(decision.basis, back) <= span_bound


def layer_law(transform):
    """A law on the layer: the transformed layer, lowered on its own."""
    def law(spec, a):
        other, rows, cols = transform(spec)
        return build_equivalent(other), rows, cols
    return law


def channel_law(seed):
    return layer_law(lambda spec: permute_channels(
        spec, np.random.default_rng(seed).permutation(spec.in_channels)))


def row_law(seed):
    """A law on the matrix: A with its rows permuted."""
    def law(spec, a):
        rows = np.random.default_rng(seed).permutation(a.shape[0])
        cols = np.arange(a.shape[1])
        return a[rows], rows, cols
    return law


def column_law(seed):
    """A law on the matrix: A with its columns permuted."""
    def law(spec, a):
        rows = np.arange(a.shape[0])
        cols = np.random.default_rng(seed).permutation(a.shape[1])
        return a[:, cols], rows, cols
    return law


def laws(spec, seed):
    out = [channel_law(seed), layer_law(transpose_hw), row_law(seed), column_law(seed)]
    if flip_is_symmetry(spec):
        out.append(layer_law(flip_width))
    return out


def assert_doubled_evidence(spec, decision):
    """Kernels times 2: the same decision, with its evidence doubled exactly."""
    doubled = decide_rank(build_equivalent(replace(spec, kernels=2.0 * spec.kernels)))
    assert (doubled.rank, doubled.nullity, doubled.path) == \
        (decision.rank, decision.nullity, decision.path)
    assert doubled.evidence == {k: 2.0 * v for k, v in decision.evidence.items()}


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
    for law in laws(spec, seed):
        assert_law(spec, law, decision, compare_path=False, span_bound=bound)
    if decision.path == CERTIFIED_PATH:
        assert_doubled_evidence(spec, decision)


def test_well_conditioned_draws_keep_the_path():
    # Selector kernels keep every draw well conditioned, so the certificate
    # decides the layer and both transforms alike.
    rng = np.random.default_rng(41)
    for c_out in (4, 12, 16):
        spec = ConvLayerSpec(3, 9, 7, c_out, 3, 3, stride=2, zero_padding=1,
                             kernels=covering_selector_kernels(3, c_out, 3, 0.04, rng))
        decision = decide_rank(build_equivalent(spec))
        assert decision.path == CERTIFIED_PATH
        assert flip_is_symmetry(spec)
        for law in laws(spec, c_out):
            assert_law(spec, law)
        assert_doubled_evidence(spec, decision)


def test_default_first_layer(default_net, first_layer_a, first_layer_basis):
    spec = default_net.layers[0]
    decision = decide_rank(first_layer_a)
    assert decision.path == CERTIFIED_PATH
    assert_doubled_evidence(spec, decision)
    decision = replace(decision, basis=first_layer_basis)
    for law in laws(spec, 5):
        assert_law(spec, law, decision)
    # 32 + 2 * 3 - 7 is odd, so at stride 2 the width flip is no symmetry
    # of this layer: its sampling grid would shift by one pixel. The same
    # kernels on a 31x31 input flip.
    assert not flip_is_symmetry(spec)
    odd = replace(spec, in_height=31, in_width=31)
    assert flip_is_symmetry(odd)
    assert_law(odd, layer_law(flip_width))
