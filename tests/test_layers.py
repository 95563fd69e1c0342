import json
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nullspan.layers import (
    AvgPool,
    ConvLayerSpec,
    FcLayerSpec,
    Flatten,
    Relu,
    build_conv_equivalent,
    build_equivalent,
    build_fc_equivalent,
    conv_forward,
    fc_forward,
    layer_from_json_dict,
    layer_to_json_dict,
    load_layer_json,
    predict_nullspace_dim,
    save_layer_json,
    verify_equivalence,
)
from nullspan.linalg import CERTIFIED_PATH, decide_rank, numerical_rank, singular_values, svd


def gf_rank(a_int, p=2147483647):
    """Exact rank of an integer matrix over GF(p); independent of any
    floating-point tolerance."""
    m = np.array(a_int % p, dtype=np.int64)
    rows, cols = m.shape
    r = 0
    for c in range(cols):
        piv = next((i for i in range(r, rows) if m[i, c] % p), None)
        if piv is None:
            continue
        m[[r, piv]] = m[[piv, r]]
        m[r] = (m[r] * pow(int(m[r, c]), p - 2, p)) % p
        col = m[r + 1:, c].copy()
        nz = col != 0
        if nz.any():
            m[r + 1:][nz] = (m[r + 1:][nz] - col[nz, None] * m[r][None, :]) % p
        r += 1
        if r == rows:
            break
    return r


class TestConvLowering:
    def test_identity_1x1(self):
        spec = ConvLayerSpec(1, 4, 4, 1, 1, 1, kernels=np.ones((1, 1, 1, 1)))
        eq = build_conv_equivalent(spec)
        np.testing.assert_array_equal(eq.toarray(), np.eye(16))

    def test_hand_computed_2x2(self):
        spec = ConvLayerSpec(1, 3, 3, 1, 2, 2,
                             kernels=np.array([[[[1.0, 2.0], [3.0, 4.0]]]]))
        eq = build_conv_equivalent(spec)
        x = np.arange(1.0, 10.0).reshape(1, 3, 3)
        np.testing.assert_allclose(eq @ x.ravel(), [37.0, 47.0, 67.0, 77.0],
                                   rtol=0, atol=0)

    def test_cifar_first_layer_shape_and_nullity(self, first_layer_a, first_layer_basis):
        assert first_layer_a.shape == (2560, 3072)
        assert first_layer_basis.shape[1] == 512

    def test_row_nnz_bound(self):
        rng = np.random.default_rng(8)
        spec = ConvLayerSpec(3, 10, 10, 4, 3, 3, stride=2, zero_padding=1,
                             kernels=rng.standard_normal((4, 3, 3, 3)))
        eq = build_conv_equivalent(spec)
        assert eq.shape[0] == spec.output_dim
        assert np.max(np.diff(eq.indptr)) <= 3 * 3 * 3

    def test_output_channel_major_order(self):
        kernels = np.array([[[[1.0]]], [[[2.0]]]])  # two 1x1 kernels on 1 channel
        spec = ConvLayerSpec(1, 2, 2, 2, 1, 1, kernels=kernels)
        dense = build_conv_equivalent(spec).toarray()
        np.testing.assert_array_equal(dense[:4], np.eye(4))
        np.testing.assert_array_equal(dense[4:], 2.0 * np.eye(4))

    def test_input_channel_major_order(self):
        kernels = np.array([[[[5.0]], [[7.0]]]])  # one 1x1 kernel on 2 channels
        spec = ConvLayerSpec(2, 2, 2, 1, 1, 1, kernels=kernels)
        dense = build_conv_equivalent(spec).toarray()
        np.testing.assert_array_equal(dense, np.hstack([5.0 * np.eye(4), 7.0 * np.eye(4)]))

    def test_geometry_error_names_dimension(self):
        with pytest.raises(ValueError, match="out_height"):
            ConvLayerSpec(1, 2, 8, 1, 3, 3, stride=2, zero_padding=0)

    def test_missing_kernels_rejected(self):
        with pytest.raises(ValueError, match="kernels"):
            build_conv_equivalent(ConvLayerSpec(1, 4, 4, 1, 3, 3, zero_padding=1))

    def test_kernel_shape_validated(self):
        with pytest.raises(ValueError, match="kernels shape"):
            ConvLayerSpec(1, 4, 4, 2, 3, 3, kernels=np.ones((1, 1, 3, 3)))


class TestFcLowering:
    def test_identity(self):
        eq = build_fc_equivalent(FcLayerSpec(3, 3, weight=np.eye(3)))
        np.testing.assert_array_equal(eq.toarray(), np.eye(3))

    def test_square_784(self):
        rng = np.random.default_rng(12)
        eq = build_fc_equivalent(FcLayerSpec(784, 784, weight=rng.standard_normal((784, 784))))
        assert decide_rank(eq).nullity == 0

    def test_seeded_20_to_12(self):
        rng = np.random.default_rng(4)
        spec = FcLayerSpec(20, 12, weight=rng.standard_normal((20, 12)))
        eq = build_fc_equivalent(spec)
        assert eq.shape == (12, 20)
        res = svd(eq.toarray())
        assert 20 - numerical_rank(res.singular_values, 12, 20) == 8

    def test_transpose_convention(self):
        w = np.arange(6.0).reshape(3, 2)
        eq = build_fc_equivalent(FcLayerSpec(3, 2, weight=w))
        np.testing.assert_array_equal(eq.toarray(), w.T)


class TestVerifyEquivalence:
    def test_identity_exact(self):
        spec = ConvLayerSpec(1, 4, 4, 1, 1, 1, kernels=np.ones((1, 1, 1, 1)))
        assert verify_equivalence(build_conv_equivalent(spec), spec, samples=5, seed=0) == 0.0

    def test_hand_example(self):
        spec = ConvLayerSpec(1, 3, 3, 1, 2, 2,
                             kernels=np.array([[[[1.0, 2.0], [3.0, 4.0]]]]))
        assert verify_equivalence(build_conv_equivalent(spec), spec, samples=20, seed=1) <= 1e-12

    def test_strided_padded_cifar_shape(self, default_net, first_layer_a):
        residual = verify_equivalence(first_layer_a, default_net.layers[0],
                                      samples=100, seed=3)
        assert residual <= 1e-12

    def test_fc(self):
        rng = np.random.default_rng(14)
        spec = FcLayerSpec(30, 12, weight=rng.standard_normal((30, 12)))
        assert verify_equivalence(build_fc_equivalent(spec), spec, samples=50, seed=2) <= 1e-12

    def test_equals_per_sample_reference(self, default_net, first_layer_a):
        # One (samples, C, H, W) draw gives the values of one draw per sample.
        spec = default_net.layers[0]
        rng = np.random.default_rng(5)
        worst = 0.0
        for _ in range(7):
            x = rng.standard_normal(spec.input_shape)
            direct = conv_forward(spec, x[None], include_bias=False).ravel()
            worst = max(worst, float(np.max(np.abs(direct - first_layer_a @ x.ravel()))))
        assert verify_equivalence(first_layer_a, spec, samples=7, seed=5) == worst


@settings(max_examples=20, deadline=None)
@given(
    c_in=st.integers(1, 3),
    h_in=st.integers(4, 9),
    w_in=st.integers(4, 9),
    kernel=st.integers(1, 3),
    stride=st.integers(1, 3),
    pad=st.integers(0, 2),
    c_out=st.integers(1, 5),
    seed=st.integers(0, 2**32 - 1),
)
def test_lowering_matches_direct_convolution(c_in, h_in, w_in, kernel, stride, pad,
                                             c_out, seed):
    if h_in - kernel + 2 * pad < 0 or w_in - kernel + 2 * pad < 0:
        return
    rng = np.random.default_rng(seed)
    spec = ConvLayerSpec(c_in, h_in, w_in, c_out, kernel, kernel, stride=stride,
                         zero_padding=pad,
                         kernels=rng.standard_normal((c_out, c_in, kernel, kernel)))
    eq = build_conv_equivalent(spec)
    assert verify_equivalence(eq, spec, samples=10, seed=seed) <= 1e-12


class TestBiasHandling:
    def test_conv_bias_excluded_from_matrix_but_cancels(self):
        rng = np.random.default_rng(33)
        spec = ConvLayerSpec(2, 6, 6, 3, 3, 3, stride=1, zero_padding=1,
                             kernels=rng.standard_normal((3, 2, 3, 3)),
                             bias=rng.standard_normal(3))
        eq = build_conv_equivalent(spec)
        x = rng.standard_normal((2, 6, 6))
        delta = rng.standard_normal((2, 6, 6))
        change = conv_forward(spec, (x + delta)[None]) - conv_forward(spec, x[None])
        np.testing.assert_allclose(change.ravel(), eq @ delta.ravel(), atol=1e-12)

    def test_fc_bias_cancels(self):
        rng = np.random.default_rng(34)
        spec = FcLayerSpec(10, 4, weight=rng.standard_normal((10, 4)),
                           bias=rng.standard_normal(4))
        eq = build_fc_equivalent(spec)
        z = rng.standard_normal(10)
        delta = rng.standard_normal(10)
        change = fc_forward(spec, (z + delta)[None]) - fc_forward(spec, z[None])
        np.testing.assert_allclose(change[0], eq @ delta, atol=1e-12)


class TestDimPrediction:
    """predict_nullspace_dim is the formula max(0, n - m). A test named
    "unguaranteed" holds a geometry where the formula need not hold, and
    checks what the rank decision measures there."""

    def test_cited_conv_values(self):
        big = ConvLayerSpec(3, 32, 32, 10, 7, 7, stride=2, zero_padding=3)
        assert predict_nullspace_dim(big) == 512
        same = ConvLayerSpec(3, 32, 32, 12, 3, 3, stride=2, zero_padding=1)
        assert predict_nullspace_dim(same) == 0
        interior = ConvLayerSpec(64, 8, 8, 128, 3, 3, stride=2, zero_padding=1)
        assert predict_nullspace_dim(interior) == 2048

    def test_fc_values(self):
        assert predict_nullspace_dim(FcLayerSpec(3072, 3072)) == 0
        assert predict_nullspace_dim(FcLayerSpec(784, 98)) == 686

    def test_kernel_smaller_than_stride_unguaranteed(self):
        # a 1x1 kernel at stride 2 reads 16 of the 64 inputs
        spec = ConvLayerSpec(1, 8, 8, 1, 1, 1, stride=2, kernels=np.ones((1, 1, 1, 1)))
        assert predict_nullspace_dim(spec) == 64 - 16
        assert decide_rank(build_conv_equivalent(spec)).nullity == 64 - 16

    def test_uncovered_inputs_unguaranteed_and_detected(self):
        # (H - k) % stride != 0 with no padding leaves trailing columns unread
        rng = np.random.default_rng(44)
        spec = ConvLayerSpec(4, 9, 10, 23, 2, 4, stride=2, zero_padding=0,
                             kernels=rng.standard_normal((23, 4, 2, 4)))
        assert decide_rank(build_conv_equivalent(spec)).nullity > predict_nullspace_dim(spec)

    def test_starved_boundary_unguaranteed_and_detected(self):
        # padding-dominated corner windows read fewer real units than kernels
        rng = np.random.default_rng(45)
        spec = ConvLayerSpec(4, 6, 7, 5, 3, 3, stride=2, zero_padding=2,
                             kernels=rng.standard_normal((5, 4, 3, 3)))
        assert decide_rank(build_conv_equivalent(spec)).nullity > predict_nullspace_dim(spec)

    def test_near_equal_channels_common_roots_unguaranteed_and_structural(self):
        # One in-channel feeding two kernels admits geometric-pattern
        # nullvectors even with no padding: the formula says 0 but the
        # matrix is rank-deficient, confirmed in exact arithmetic.
        rng = np.random.default_rng(46)
        kernels = rng.integers(-9, 10, size=(2, 1, 3, 2)).astype(float)
        spec = ConvLayerSpec(1, 6, 9, 2, 3, 2, stride=1, zero_padding=0,
                             kernels=kernels)
        assert predict_nullspace_dim(spec) == 0
        eq = build_conv_equivalent(spec)
        float_nullity = decide_rank(eq).nullity
        exact_nullity = eq.shape[1] - gf_rank(np.rint(eq.toarray()).astype(np.int64))
        assert exact_nullity > 0
        assert float_nullity == exact_nullity

    def test_generic_rank_drop_3x9x9_to_5x7x7_detected(self):
        # 243 inputs, 245 outputs, so the formula gives 0, yet every kernel
        # of this shape drops rank by 3: integer kernels give rank 240 over
        # GF(p), and Gaussian kernels leave 3 singular values near 1e-17
        # relative with the next near 1e-3. Root seed 1010146033 draws
        # this geometry in seeded_geometries, which resamples it because
        # the rank certificate declines.
        kernels = np.random.default_rng(47).integers(-9, 10, size=(5, 3, 3, 3)).astype(float)
        spec = ConvLayerSpec(3, 9, 9, 5, 3, 3, stride=1, zero_padding=0, kernels=kernels)
        assert predict_nullspace_dim(spec) == 0
        eq = build_conv_equivalent(spec)
        exact_nullity = eq.shape[1] - gf_rank(np.rint(eq.toarray()).astype(np.int64))
        decision = decide_rank(eq)
        assert exact_nullity == 3
        assert decision.path != CERTIFIED_PATH
        assert decision.nullity == exact_nullity

    def test_polyphase_square_geometry_numerically_deficient_despite_full_rank(self):
        # Stride-2 multi-channel geometry whose kernel count equals the
        # polyphase channel count: full rank in exact arithmetic, yet the
        # singular values decay exponentially, so 64-bit precision
        # reports extra nullity for generic kernels. The rank certificate
        # declines here; the numerical nullity is what the layer
        # effectively has at this precision.
        rng = np.random.default_rng(1603)
        kernels = rng.integers(-9, 10, size=(12, 3, 3, 3)).astype(float)
        spec = ConvLayerSpec(3, 16, 16, 12, 3, 3, stride=2, zero_padding=1,
                             kernels=kernels)
        assert predict_nullspace_dim(spec) == 0
        eq = build_conv_equivalent(spec)
        exact_nullity = eq.shape[1] - gf_rank(np.rint(eq.toarray()).astype(np.int64))
        assert exact_nullity == 0
        assert decide_rank(eq).nullity > 0
        sv = singular_values(eq)
        assert sv[-1] <= 1e-13 * sv[0]


@settings(max_examples=30, deadline=None)
@given(
    c_in=st.integers(1, 3),
    h_in=st.integers(4, 9),
    w_in=st.integers(4, 9),
    kernel_h=st.integers(1, 3),
    kernel_w=st.integers(1, 3),
    stride=st.integers(1, 3),
    pad=st.integers(0, 2),
    c_out=st.integers(1, 6),
    seed=st.integers(0, 2**32 - 1),
)
def test_certified_rank_proves_the_dimension_formula(c_in, h_in, w_in, kernel_h, kernel_w,
                                                     stride, pad, c_out, seed):
    # A certified rank decision is full rank, so the exact nullity of the
    # integer-kernel instance is the formula's max(0, n - m).
    if h_in - kernel_h + 2 * pad < 0 or w_in - kernel_w + 2 * pad < 0:
        return
    kernels = np.random.default_rng(seed).integers(-9, 10, size=(c_out, c_in, kernel_h, kernel_w))
    spec = ConvLayerSpec(c_in, h_in, w_in, c_out, kernel_h, kernel_w, stride=stride,
                         zero_padding=pad, kernels=kernels.astype(float))
    eq = build_conv_equivalent(spec)
    if decide_rank(eq).path != CERTIFIED_PATH:
        return
    exact_nullity = eq.shape[1] - gf_rank(np.rint(eq.toarray()).astype(np.int64))
    assert exact_nullity == predict_nullspace_dim(spec)


class TestLayerJson:
    def test_conv_roundtrip(self, tmp_path):
        rng = np.random.default_rng(55)
        spec = ConvLayerSpec(2, 5, 6, 3, 2, 3, stride=1, zero_padding=1,
                             kernels=rng.standard_normal((3, 2, 2, 3)),
                             bias=rng.standard_normal(3))
        path = tmp_path / "layer.json"
        save_layer_json(spec, path)
        back = load_layer_json(path)
        assert isinstance(back, ConvLayerSpec)
        np.testing.assert_array_equal(back.kernels, spec.kernels)
        np.testing.assert_array_equal(back.bias, spec.bias)
        assert back.stride == 1 and back.zero_padding == 1

    def test_fc_roundtrip_geometry_only(self):
        doc = layer_to_json_dict(FcLayerSpec(7, 3))
        assert doc == {"kind": "fc", "in_features": 7, "out_features": 3,
                       "weight": None, "bias": None}
        back = layer_from_json_dict(doc)
        assert back.in_features == 7 and back.weight is None

    def test_field_names_frozen(self, tmp_path):
        spec = ConvLayerSpec(1, 4, 4, 1, 2, 2, kernels=np.ones((1, 1, 2, 2)))
        path = tmp_path / "layer.json"
        save_layer_json(spec, path)
        doc = json.loads(path.read_text())
        assert set(doc) == {"kind", "in_channels", "in_height", "in_width",
                            "out_channels", "kernel_h", "kernel_w", "stride",
                            "zero_padding", "kernels", "bias"}

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown layer kind"):
            layer_from_json_dict({"kind": "pool"})

    def test_key_order_is_the_documented_one(self):
        # The README's "File formats" section lists each kind's keys in order.
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
        section = readme.split("## File formats", 1)[1].split("\n## ", 1)[0]
        documented = {kind: ["kind", *re.findall(r'"(\w+)"', rest)] for kind, rest
                      in re.findall(r'\{"kind":\s+"(\w+)"([^}]*)\}', section)}
        layers = [ConvLayerSpec(1, 4, 4, 1, 2, 2, kernels=np.ones((1, 1, 2, 2))),
                  FcLayerSpec(7, 3), Relu(), AvgPool(window=2, stride=2), Flatten()]
        written = {doc["kind"]: list(doc) for doc in map(layer_to_json_dict, layers)}
        assert written == documented

    def test_layer_file_must_hold_a_linear_layer(self, tmp_path):
        path = tmp_path / "relu.json"
        path.write_text('{"kind": "relu"}')
        with pytest.raises(ValueError, match="'relu'"):
            load_layer_json(path)
