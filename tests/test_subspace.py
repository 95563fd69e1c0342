import struct
from contextlib import nullcontext

import numpy as np
import pytest

from nullspan.layers import (
    ConvLayerSpec,
    FcLayerSpec,
    build_conv_equivalent,
    build_equivalent,
    build_fc_equivalent,
)
from nullspan.linalg import singular_values
from nullspan.subspace import (
    DIFFERENT_OUTPUT,
    IDENTICAL_OUTPUT,
    PROPORTIONAL,
    EmptySubspaceError,
    classify_pair,
    harmless_basis,
    least_harmful,
    load_basis,
    orthogonal_decompose,
    sample_harmless,
    save_basis,
)

from conftest import rotated_basis


@pytest.fixture(scope="module")
def fc_a():
    rng = np.random.default_rng(100)
    spec = FcLayerSpec(20, 12, weight=rng.standard_normal((20, 12)))
    return build_fc_equivalent(spec)


@pytest.fixture(scope="module")
def fc_basis(fc_a):
    return harmless_basis(fc_a)


class TestHarmlessBasis:
    def test_identity_fc_empty(self):
        eq = build_fc_equivalent(FcLayerSpec(3, 3, weight=np.eye(3)))
        basis = harmless_basis(eq)
        assert basis.shape == (3, 0)

    def test_seeded_fc(self, fc_a, fc_basis):
        assert fc_basis.shape[1] == 8
        u = fc_basis
        assert np.max(np.abs(u.T @ u - np.eye(8))) <= 1e-12
        sigma_max = singular_values(fc_a.toarray())[0]
        assert np.max(np.abs(fc_a @ u)) <= 1e-10 * sigma_max

    def test_cifar_conv_residual(self, first_layer_a, first_layer_basis,
                                 first_layer_sigma_max):
        assert first_layer_basis.shape[1] == 512
        residual = np.max(np.abs(first_layer_a @ first_layer_basis))
        assert residual <= 1e-10 * first_layer_sigma_max


class TestOrthogonalDecompose:
    def test_inside_subspace(self, fc_basis):
        rng = np.random.default_rng(1)
        delta = fc_basis @ rng.standard_normal(fc_basis.shape[1])
        dec = orthogonal_decompose(fc_basis, delta)
        assert np.linalg.norm(dec.orthogonal) <= 1e-12 * np.linalg.norm(delta)
        np.testing.assert_allclose(dec.parallel, delta, atol=1e-12)

    def test_orthogonal_to_subspace(self, fc_a, fc_basis):
        rng = np.random.default_rng(2)
        delta = rng.standard_normal(20)
        orth = orthogonal_decompose(fc_basis, delta).orthogonal
        dec2 = orthogonal_decompose(fc_basis, orth)
        assert np.linalg.norm(dec2.parallel) <= 1e-12 * np.linalg.norm(orth)

    def test_layer_sees_only_orthogonal_part(self, fc_a, fc_basis):
        rng = np.random.default_rng(3)
        for i in range(100):
            delta = rng.standard_normal(20)
            dec = orthogonal_decompose(fc_basis, delta)
            out = fc_a @ delta
            assert np.max(np.abs(out - fc_a @ dec.orthogonal)) <= 1e-10 * np.linalg.norm(out)
            assert np.max(np.abs(fc_basis.T @ dec.orthogonal)) <= 1e-10
            recon = dec.parallel + dec.orthogonal
            assert np.linalg.norm(recon - delta) <= 1e-12 * np.linalg.norm(delta)

    def test_arbitrary_split_equivalence(self, fc_a, fc_basis):
        rng = np.random.default_rng(4)
        for i in range(100):
            delta = rng.standard_normal(20)
            harmless = fc_basis @ rng.standard_normal(8)
            out = fc_a @ delta
            assert np.max(np.abs(fc_a @ (delta - harmless) - out)) <= 1e-10 * np.linalg.norm(out)

    def test_basis_independence(self, fc_basis):
        rng = np.random.default_rng(5)
        q, _ = np.linalg.qr(rng.standard_normal((8, 8)))
        perm = rng.permutation(8)
        other = (fc_basis @ q)[:, perm]
        for i in range(50):
            delta = rng.standard_normal(20)
            o1 = orthogonal_decompose(fc_basis, delta).orthogonal
            o2 = orthogonal_decompose(other, delta).orthogonal
            assert np.linalg.norm(o1 - o2) <= 1e-10 * np.linalg.norm(delta)

    def test_minimal_norm(self, fc_basis):
        rng = np.random.default_rng(6)
        for i in range(100):
            delta = rng.standard_normal(20)
            orth = orthogonal_decompose(fc_basis, delta).orthogonal
            h = fc_basis @ rng.standard_normal(8)
            assert np.linalg.norm(orth) <= np.linalg.norm(orth + h) * (1 + 1e-12)

    def test_dimension_mismatch(self, fc_basis):
        with pytest.raises(ValueError, match="ambient"):
            orthogonal_decompose(fc_basis, np.zeros(21))


class TestSampleHarmless:
    def test_linf_target(self, fc_basis):
        delta = sample_harmless(fc_basis, seed=9, target_norm=8 / 255)
        assert abs(np.max(np.abs(delta)) - 8 / 255) <= 1e-12

    def test_harmless_at_all_scales(self, first_layer_a, first_layer_basis,
                                    first_layer_sigma_max):
        delta = sample_harmless(first_layer_basis, seed=10, target_norm=8 / 255)
        for scale in [2.0 ** k for k in range(9)]:
            residual = np.max(np.abs(first_layer_a @ (scale * delta)))
            assert residual <= 1e-10 * first_layer_sigma_max

    def test_depends_on_the_span_only(self, first_layer_basis):
        # The draw is projected onto span(U) in pixel space, so a rotated,
        # column-permuted basis of the same subspace gives the same vector.
        delta = sample_harmless(first_layer_basis, 10, 8 / 255)
        delta_other = sample_harmless(rotated_basis(first_layer_basis, 7), 10, 8 / 255)
        assert np.linalg.norm(delta_other - delta) <= 1e-12 * np.linalg.norm(delta)

    def test_empty_subspace(self):
        eq = build_fc_equivalent(FcLayerSpec(3, 3, weight=np.eye(3)))
        with pytest.raises(EmptySubspaceError):
            sample_harmless(harmless_basis(eq), seed=0, target_norm=1.0)

    def test_bad_arguments(self, fc_basis):
        with pytest.raises(ValueError, match="positive"):
            sample_harmless(fc_basis, seed=0, target_norm=0.0)


class TestLeastHarmful:
    def test_diagonal(self):
        eq = build_fc_equivalent(FcLayerSpec(2, 2, weight=np.diag([3.0, 1.0])))
        lh = least_harmful(eq)
        assert lh.residual == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(lh.direction, [0.0, 1.0], atol=1e-12)
        assert not lh.in_nullspace

    def test_orthonormal_columns_tie(self):
        rng = np.random.default_rng(20)
        q, _ = np.linalg.qr(rng.standard_normal((7, 4)))
        eq = build_fc_equivalent(FcLayerSpec(4, 7, weight=q.T))
        lh = least_harmful(eq)
        assert lh.residual == pytest.approx(1.0, abs=1e-12)
        lh2 = least_harmful(eq)
        assert lh.direction.tobytes() == lh2.direction.tobytes()

    def test_conv_shaped_sampling_oracle(self):
        rng = np.random.default_rng(21)
        spec = ConvLayerSpec(8, 8, 8, 32, 3, 3, stride=1, zero_padding=1,
                             kernels=rng.standard_normal((32, 8, 3, 3)))
        a = build_conv_equivalent(spec)
        assert a.shape == (2048, 512)
        lh = least_harmful(a)
        assert not lh.in_nullspace
        best = float(np.linalg.norm(a @ lh.direction))
        deltas = rng.standard_normal((512, 10_000))
        deltas /= np.linalg.norm(deltas, axis=0)
        energies = np.linalg.norm(a @ deltas, axis=0)
        assert np.all(energies + 1e-10 >= best)

    def test_nullspace_present_flagged(self, fc_a):
        lh = least_harmful(fc_a)
        assert lh.in_nullspace
        assert lh.residual <= 1e-20

    @pytest.mark.parametrize("k", [0, -540, 520])
    def test_verdict_holds_at_every_scale(self, fc_a, k):
        # ||A v|| against the tolerance, not squared: at 2^-540 both squares
        # underflowed to 0 and a full-rank tall layer read as harmless.
        scale = np.ldexp(1.0, k)
        tall = scale * np.random.default_rng(22).standard_normal((50, 30))
        # At 2^520 lambda_min, about 2^1041, is past float64: the residual
        # rounds to inf, and numpy warns of that product.
        with pytest.warns(RuntimeWarning, match="overflow") if k == 520 else nullcontext():
            assert not least_harmful(tall).in_nullspace
        assert least_harmful(scale * fc_a).in_nullspace

    def test_zero_matrix_is_harmless(self):
        lh = least_harmful(np.zeros((4, 3)))
        assert lh.in_nullspace and lh.residual == 0.0


class TestClassifyPair:
    def test_identical_after_harmless_shift(self, fc_a, fc_basis):
        rng = np.random.default_rng(30)
        delta = rng.standard_normal(20)
        delta_hat = delta + fc_basis @ rng.standard_normal(8)
        verdict = classify_pair(fc_basis, delta, delta_hat)
        assert verdict.kind == IDENTICAL_OUTPUT

    def test_proportional_alpha_three(self, fc_a, fc_basis):
        rng = np.random.default_rng(31)
        base = orthogonal_decompose(fc_basis, rng.standard_normal(20)).orthogonal
        delta = 3.0 * base + fc_basis @ rng.standard_normal(8)
        delta_hat = base + fc_basis @ rng.standard_normal(8)
        verdict = classify_pair(fc_basis, delta, delta_hat)
        assert verdict.kind == PROPORTIONAL
        assert verdict.alpha == pytest.approx(3.0, abs=1e-9)
        out = fc_a @ delta_hat
        assert np.max(np.abs(fc_a @ delta - 3.0 * out)) <= 1e-9 * np.linalg.norm(out)

    def test_general_position_different(self, fc_a, fc_basis):
        rng = np.random.default_rng(32)
        verdict = classify_pair(fc_basis, rng.standard_normal(20),
                                rng.standard_normal(20))
        assert verdict.kind == DIFFERENT_OUTPUT

    def test_zero_against_nonzero(self, fc_a, fc_basis):
        rng = np.random.default_rng(33)
        harmless = fc_basis @ rng.standard_normal(8)
        delta = rng.standard_normal(20)
        verdict = classify_pair(fc_basis, delta, harmless)
        assert verdict.kind == DIFFERENT_OUTPUT

    def test_both_harmless_identical(self, fc_a, fc_basis):
        rng = np.random.default_rng(34)
        h1 = fc_basis @ rng.standard_normal(8)
        h2 = fc_basis @ rng.standard_normal(8)
        verdict = classify_pair(fc_basis, h1, h2)
        assert verdict.kind == IDENTICAL_OUTPUT


class TestZeroNullityInjective:
    def test_distinct_outputs(self):
        rng = np.random.default_rng(40)
        eq = build_fc_equivalent(FcLayerSpec(20, 28, weight=rng.standard_normal((20, 28))))
        assert harmless_basis(eq).shape[1] == 0
        d1 = rng.standard_normal((20, 1000))
        d2 = rng.standard_normal((20, 1000))
        deviations = np.max(np.abs(eq @ d1 - eq @ d2), axis=0)
        assert np.min(deviations) > 1e-6


class TestBasisFile:
    def test_roundtrip_exact(self, fc_basis, tmp_path):
        path = tmp_path / "basis.nspb"
        save_basis(fc_basis, path)
        back = load_basis(path)
        assert back.tobytes() == fc_basis.tobytes()
        assert back.shape == (20, 8)

    def test_frozen_layout(self, tmp_path):
        basis = np.array([[1.5], [-2.5]])
        path = tmp_path / "tiny.nspb"
        save_basis(basis, path)
        blob = path.read_bytes()
        name = b"basis"
        header_size = 12 + (4 + len(name) + 4 + 2 * 4 + 8)
        expected = (b"NSPW" + struct.pack("<II", 1, 1)
                    + struct.pack("<I", len(name)) + name
                    + struct.pack("<I", 2) + struct.pack("<2I", 2, 1)
                    + struct.pack("<Q", header_size)
                    + struct.pack("<2d", 1.5, -2.5))
        assert blob == expected

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.nspb"
        path.write_bytes(b"XXXX" + b"\x00" * 12)
        with pytest.raises(ValueError, match="magic"):
            load_basis(path)

    def test_truncated(self, tmp_path):
        basis = np.eye(3)[:, :2]
        path = tmp_path / "trunc.nspb"
        save_basis(basis, path)
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(ValueError, match="truncated"):
            load_basis(path)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_entry(self, tmp_path, bad):
        basis = np.eye(3)[:, :2]
        basis[1, 0] = bad
        path = tmp_path / "bad.nspb"
        save_basis(basis, path)
        with pytest.raises(ValueError, match="basis contains non-finite values"):
            load_basis(path)
