import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nullspan import tensorio
from nullspan.imaging import (
    read_ppm,
    save_float_image,
    ssim,
    synthetic_image,
    write_ppm,
)

# Recorded once from a brute-force double-loop reference implementation
# (8x8 windows, stride 1, biased window statistics, C1=1e-4, C2=9e-4).
GOLDEN_SSIM = -0.2792917758216363
GOLDEN_PAIR = (synthetic_image(11, (3, 16, 16)), synthetic_image(12, (3, 16, 16)))


class TestSsim:
    def test_self_similarity_exactly_one(self):
        x = synthetic_image(3, (3, 12, 12))
        assert ssim(x, x) == 1.0

    def test_symmetry(self):
        a, b = GOLDEN_PAIR
        assert abs(ssim(a, b) - ssim(b, a)) <= 1e-12

    def test_golden_value(self):
        a, b = GOLDEN_PAIR
        assert ssim(a, b) == pytest.approx(GOLDEN_SSIM, abs=1e-12)

    def test_zeros_vs_ones_near_zero(self):
        zeros = np.zeros((1, 10, 10))
        ones = np.ones((1, 10, 10))
        value = ssim(zeros, ones)
        assert 0.0 < value < 0.01

    def test_range_bound(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            a = rng.uniform(0, 1, (2, 9, 9))
            b = rng.uniform(0, 1, (2, 9, 9))
            assert abs(ssim(a, b)) <= 1.0

    def test_2d_input_allowed(self):
        x = synthetic_image(4, (1, 9, 9))[0]
        assert ssim(x, x) == 1.0

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="shape mismatch"):
            ssim(np.zeros((1, 9, 9)), np.zeros((1, 9, 8)))

    def test_image_smaller_than_window(self):
        with pytest.raises(ValueError, match="window"):
            ssim(np.zeros((1, 7, 9)), np.zeros((1, 7, 9)))


class TestPpm:
    def test_roundtrip_quantized(self, tmp_path):
        img = synthetic_image(6, (3, 5, 7))
        path = tmp_path / "img.ppm"
        write_ppm(path, img)
        back = read_ppm(path)
        assert back.shape == (3, 5, 7)
        assert np.max(np.abs(back - img)) <= 0.5 / 255 + 1e-12

    def test_golden_bytes(self, tmp_path):
        img = np.zeros((3, 1, 2))
        img[:, 0, 0] = [0.0, 0.5, 1.0]
        img[:, 0, 1] = [1.0, 0.0, 2.0]  # 2.0 clamps to 1.0
        path = tmp_path / "tiny.ppm"
        write_ppm(path, img)
        assert path.read_bytes() == b"P6\n2 1\n255\n" + bytes([0, 128, 255, 255, 0, 255])

    def test_header_with_comment(self, tmp_path):
        path = tmp_path / "c.ppm"
        path.write_bytes(b"P6\n# a comment\n1 1\n255\n\x10\x20\x30")
        img = read_ppm(path)
        np.testing.assert_allclose(img[:, 0, 0], np.array([0x10, 0x20, 0x30]) / 255.0)

    def test_rejects_wrong_magic(self, tmp_path):
        path = tmp_path / "bad.ppm"
        path.write_bytes(b"P5\n1 1\n255\n\x00")
        with pytest.raises(ValueError, match="binary PPM"):
            read_ppm(path)

    def test_rejects_wrong_maxval(self, tmp_path):
        path = tmp_path / "bad16.ppm"
        path.write_bytes(b"P6\n1 1\n65535\n\x00\x00\x00\x00\x00\x00")
        with pytest.raises(ValueError, match="maxval"):
            read_ppm(path)

    def test_rejects_non_rgb(self, tmp_path):
        with pytest.raises(ValueError, match=r"\(3, H, W\)"):
            write_ppm(tmp_path / "x.ppm", np.zeros((1, 4, 4)))

    @pytest.mark.parametrize("blob, cause", [
        (b"P6", "truncated PPM header"),
        (b"P6\n2 1\n255", "truncated PPM header"),
        (b"P6\n# comment without end", "truncated PPM header"),
        (b"P6\n2 x1\n255\n", "not a non-negative integer"),
        (b"P6\n-2 1\n255\n", "not a non-negative integer"),
        (b"P6\n0 1\n255\n", "must be positive"),
        (b"P6\n2 0\n255\n", "must be positive"),
        (b"P6\n2 1\n255\n\x00\x00\x00\x00\x00", "short PPM pixel data"),
        (b"P6\n99999999 99999999\n255\n\x00", "short PPM pixel data"),
    ])
    def test_named_causes(self, tmp_path, blob, cause):
        path = tmp_path / "bad.ppm"
        path.write_bytes(blob)
        with pytest.raises(ValueError, match=cause):
            read_ppm(path)


def _ppm_bytes(path) -> bytes:
    write_ppm(path, synthetic_image(14, (3, 3, 4)))
    return path.read_bytes()


class TestPpmFuzz:
    def test_every_truncation_rejected(self, tmp_path):
        path = tmp_path / "img.ppm"
        blob = _ppm_bytes(path)
        for cut in range(len(blob)):
            path.write_bytes(blob[:cut])
            with pytest.raises(ValueError):
                read_ppm(path)

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_mutations_rejected_or_read(self, tmp_path_factory, data):
        path = tmp_path_factory.mktemp("ppm") / "mutated.ppm"
        blob = bytearray(_ppm_bytes(path))
        header = len(blob) - 3 * 3 * 4
        # edits concentrate on the header, where the parser's decisions are
        edits = data.draw(st.lists(st.tuples(st.integers(0, header + 3), st.integers(0, 255)),
                                   min_size=1, max_size=4))
        for pos, value in edits:
            blob[pos] = value
        cut = data.draw(st.integers(0, len(blob)))
        path.write_bytes(bytes(blob[:cut]))
        try:
            img = read_ppm(path)
        except ValueError:
            return
        assert img.ndim == 3 and img.shape[0] == 3
        assert img.min() >= 0.0 and img.max() <= 1.0


class TestFloatImage:
    def test_roundtrip_exact_bits(self, tmp_path):
        img = synthetic_image(8, (3, 6, 6)) + 1e-17
        path = tmp_path / "img.f64"
        save_float_image(path, img)
        name, back = tensorio.read_tensor(path)
        assert name == "image"
        assert back.tobytes() == img.tobytes()
        assert back.shape == img.shape


class TestSyntheticImage:
    def test_deterministic(self):
        a = synthetic_image(9, (3, 8, 8))
        b = synthetic_image(9, (3, 8, 8))
        assert a.tobytes() == b.tobytes()

    def test_range_and_shape(self):
        img = synthetic_image(10, (2, 5, 9))
        assert img.shape == (2, 5, 9)
        assert img.min() >= 0.02 - 1e-12 and img.max() <= 0.98 + 1e-12

    @pytest.mark.parametrize("shape", [(3, 1, 1), (1, 1, 1)])
    def test_constant_channel_is_mid_range(self, shape):
        # a 1x1 plane has no range to rescale: 0.5, not 0 / 0
        assert synthetic_image(5, shape).tolist() == np.full(shape, 0.5).tolist()

    def test_seed_variation(self):
        assert not np.array_equal(synthetic_image(1), synthetic_image(2))
