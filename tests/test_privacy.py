import ast
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from nullspan.imaging import synthetic_image
from nullspan.layers import ConvLayerSpec, FcLayerSpec, Flatten, Relu, build_equivalent
from nullspan.network import NetworkSpec, forward, init_network
from nullspan.privacy import (
    DivergenceError,
    PrivacyConfig,
    _ascent_terms,
    maximize_dissimilarity,
    sample_reconstructions,
)
from nullspan.subspace import EmptySubspaceError, harmless_basis, orthogonal_decompose
from nullspan.verification import privacy_battery

from conftest import raw_qr_basis

PRIVACY_PY = Path(__file__).resolve().parents[1] / "src" / "nullspan" / "privacy.py"


def test_optimizer_never_imports_the_network():
    # A scramble is chosen in x + span(U) from U alone; output invariance is
    # the caller's check. Read the imports without importing the module.
    imported = set()
    for node in ast.walk(ast.parse(PRIVACY_PY.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            package = "nullspan" if node.level else ""
            module = ".".join(p for p in (package, node.module) if p)
            imported.add(module)
            imported.update(f"{module}.{alias.name}" for alias in node.names)
    assert imported, "no imports found"
    assert not [m for m in imported
                if m == "nullspan.network" or m.startswith("nullspan.network.")], imported


@pytest.fixture(scope="module")
def small_net():
    spec = NetworkSpec(
        input_shape=(3, 8, 8),
        layers=(
            ConvLayerSpec(3, 8, 8, 2, 3, 3, stride=1, zero_padding=1),
            Relu(),
            Flatten(),
            FcLayerSpec(128, 6),
        ),
    )
    return init_network(spec, 77)


@pytest.fixture(scope="module")
def small_basis(small_net):
    return harmless_basis(build_equivalent(small_net.layers[0]))


@pytest.fixture(scope="module")
def image():
    return synthetic_image(50, (3, 8, 8))


class TestConfig:
    def test_defaults_positive(self):
        cfg = PrivacyConfig()
        assert cfg.max_iters >= 1 and cfg.step_size > 0 and cfg.penalty_weight >= 0

    def test_validation(self):
        with pytest.raises(ValueError, match="max_iters"):
            PrivacyConfig(max_iters=0)
        with pytest.raises(ValueError, match="step"):
            PrivacyConfig(step_size=-1.0)
        with pytest.raises(ValueError, match="penalty_weight"):
            PrivacyConfig(penalty_weight=-0.1)
        for field, value, cause in [
            ("max_iters", 2.5, "max_iters must be an integer"),
            ("max_iters", True, "max_iters must be an integer"),
            ("settle_iters", 10.0, "settle_iters must be an integer"),
            ("step_size", np.nan, "step_size must be finite"),
            ("step_size", np.inf, "step_size must be finite"),
            ("penalty_weight", np.nan, "penalty_weight must be finite"),
            ("settle_step_size", np.inf, "settle_step_size must be finite"),
            ("init_coeff_scale", np.inf, "init_coeff_scale must be finite"),
        ]:
            with pytest.raises(ValueError, match=cause):
                PrivacyConfig(**{field: value})

    def test_numpy_integers_accepted(self):
        cfg = PrivacyConfig(max_iters=np.int64(5), settle_iters=np.int32(0))
        assert cfg.max_iters == 5


def scramble(x, basis, cfg, seed):
    """One image as a batch of one."""
    return maximize_dissimilarity(x[None], basis, cfg, [seed])


def output_deviation(net, originals, scrambled):
    """Largest logit change per image, the clean and the scrambled batch run
    as two calls of the same batch size, as privacy_battery runs them."""
    return np.abs(forward(net, scrambled) - forward(net, originals)).max(axis=1)


class TestMaximizeDissimilarity:
    def test_zero_init_is_identity(self, small_net, small_basis, image):
        cfg = PrivacyConfig(max_iters=10, settle_iters=0, init_coeff_scale=0.0)
        res = scramble(image, small_basis, cfg, 1)
        assert res.mse.tolist() == [0.0]
        assert res.image.tobytes() == image.tobytes()
        assert output_deviation(small_net, image[None], res.image).tolist() == [0.0]

    def test_objective_monotone_before_penalty(self, small_basis, image):
        # tiny init and few iterations: no pixel can reach a bound, so the
        # objective is the pure quadratic and ascent is non-decreasing
        cfg = PrivacyConfig(max_iters=50, step_size=0.1, settle_iters=0,
                            init_coeff_scale=0.005)
        res = scramble(image, small_basis, cfg, 2)
        assert res.objective_history.shape == (50, 1)
        assert res.penalty_history.shape == (50, 1)
        assert res.penalty_history.dtype == np.float64
        assert np.all(res.penalty_history == 0.0)
        assert res.max_bound_violation[0] == 0.0
        diffs = np.diff(res.objective_history[:, 0])
        assert np.all(diffs >= -1e-18)
        assert res.mse[0] > res.objective_history[1, 0]

    def test_default_run_contract(self, small_net, small_basis, image):
        res = scramble(image, small_basis, PrivacyConfig(), 3)
        assert res.image.shape == (1, 3, 8, 8)
        assert res.penalty_history.shape == res.objective_history.shape
        assert np.all(res.penalty_history >= 0.0) and res.penalty_history.max() > 0.0
        assert res.mse[0] >= 0.05
        assert res.max_bound_violation[0] <= 0.01
        assert output_deviation(small_net, image[None], res.image)[0] <= 1e-9
        # the perturbation never leaves the harmless subspace
        delta = (res.image[0] - image).ravel()
        leak = orthogonal_decompose(small_basis, delta).orthogonal
        assert np.linalg.norm(leak) <= 1e-10 * np.linalg.norm(delta)

    def test_argmax_preserved_over_seeds(self, small_net, small_basis):
        xs = np.stack([synthetic_image(900 + i, (3, 8, 8)) for i in range(20)])
        res = maximize_dissimilarity(xs, small_basis,
                                     PrivacyConfig(max_iters=300, settle_iters=100),
                                     list(range(20)))
        clean = forward(small_net, xs)
        scrambled = forward(small_net, res.image)
        np.testing.assert_array_equal(clean.argmax(axis=1), scrambled.argmax(axis=1))
        assert np.all(output_deviation(small_net, xs, res.image) <= 1e-9)

    def test_penalty_history_recovers_mse(self, small_basis, image):
        # the objective of iteration t plus the weighted penalty is the MSE of
        # the iterate after t steps, which a run of t steps reports as mse
        w = PrivacyConfig().penalty_weight
        for steps in (1, 40, 400):
            short = scramble(image, small_basis,
                             PrivacyConfig(max_iters=steps, settle_iters=0), 3)
            longer = scramble(image, small_basis,
                              PrivacyConfig(max_iters=steps + 1, settle_iters=0), 3)
            mse = longer.objective_history[steps] + w * longer.penalty_history[steps]
            np.testing.assert_allclose(mse, short.mse, rtol=1e-12, atol=0)

    def test_penalty_disabled_violations_grow(self, small_basis, image):
        def run(iters):
            cfg = PrivacyConfig(max_iters=iters, step_size=4.0, penalty_weight=0.0,
                                settle_iters=0, init_coeff_scale=0.8)
            return scramble(image, small_basis, cfg, 4)

        early = run(200).max_bound_violation[0]
        late = run(1500).max_bound_violation[0]
        assert 0.0 < early < late

    def test_divergent_step_raises(self, small_basis, image):
        cfg = PrivacyConfig(max_iters=400, step_size=1e9, penalty_weight=0.0,
                            settle_iters=0, init_coeff_scale=0.1)
        with pytest.raises(DivergenceError, match="smaller step"):
            scramble(image, small_basis, cfg, 5)

    def test_divergent_image_in_batch_is_named(self, small_basis, image):
        # With no penalty, the first objective of image i is ||y_i||^2 / n,
        # and y_i = scale * z_i P. Pick the scale so that the sum of squares
        # overflows for the largest ||z_i P|| alone.
        seeds = [11, 12, 13]
        p = small_basis @ small_basis.T
        sq = [float(np.sum((np.random.default_rng(s).standard_normal(p.shape[0]) @ p) ** 2))
              for s in seeds]
        order = np.argsort(sq)
        assert sq[order[-1]] > 1.05 * sq[order[-2]]
        scale = np.sqrt(np.finfo(np.float64).max / (0.5 * (sq[order[-1]] + sq[order[-2]])))
        cfg = PrivacyConfig(max_iters=1, settle_iters=0, penalty_weight=0.0,
                            init_coeff_scale=scale)
        with pytest.raises(DivergenceError, match=f"image {order[-1]} "):
            maximize_dissimilarity(np.stack([image] * 3), small_basis, cfg, seeds)
        scramble(image, small_basis, cfg, seeds[order[-2]])

    def test_batch_matches_single_image_runs(self, small_net, small_basis):
        xs = np.stack([synthetic_image(700 + i, (3, 8, 8)) for i in range(5)])
        seeds = [31, 32, 33, 34, 35]
        # Each iteration scales c by 1 + 2 * step_size / n before the penalty
        # acts. At the default step and n = 192 that factor is so large that
        # the sign pattern of g turns chaotic and a last-bit difference
        # reaches O(1) within ~250 iterations. step_size = 0.25 gives the
        # growth per iteration of the default step on the 3072-pixel default
        # network, where batched and single runs agree to rounding.
        cfg = PrivacyConfig(step_size=0.25)
        batch = maximize_dissimilarity(xs, small_basis, cfg, seeds)
        assert batch.objective_history.shape == (cfg.max_iters + cfg.settle_iters, 5)
        for i, (x, seed) in enumerate(zip(xs, seeds)):
            single = scramble(x, small_basis, cfg, seed)
            np.testing.assert_allclose(batch.mse[i], single.mse[0], rtol=1e-10, atol=0)
            # The violation is a pixel value minus 1, so its rounding error
            # is absolute: it also gets a floor far below its bound (0.01).
            np.testing.assert_allclose(batch.max_bound_violation[i],
                                       single.max_bound_violation[0], rtol=1e-10, atol=1e-12)
            # The output deviation is rounding noise: absolute, far below 1e-9.
            np.testing.assert_allclose(output_deviation(small_net, xs, batch.image)[i],
                                       output_deviation(small_net, x[None], single.image)[0],
                                       rtol=1e-10, atol=1e-12)
            column, ref = batch.objective_history[:, i], single.objective_history[:, 0]
            assert np.max(np.abs(column - ref)) <= 1e-10 * np.max(np.abs(ref))

    def test_seed_count_must_match_batch(self, small_basis, image):
        with pytest.raises(ValueError, match="one seed"):
            maximize_dissimilarity(np.stack([image] * 2), small_basis, PrivacyConfig(), [1])

    def test_empty_subspace_rejected(self, image):
        spec = NetworkSpec(input_shape=(3, 8, 8), layers=(FcLayerSpec(192, 192),))
        net = init_network(spec, 6)
        basis = harmless_basis(build_equivalent(net.layers[0]))
        with pytest.raises(EmptySubspaceError):
            scramble(image, basis, PrivacyConfig(), 0)

    def test_out_of_range_image_rejected(self, small_basis):
        bad = np.full((3, 8, 8), 1.5)
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            scramble(bad, small_basis, PrivacyConfig(), 0)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_image_rejected(self, small_basis, image, value):
        bad = np.stack([image, image])
        bad[1, 2, 3, 4] = value
        with pytest.raises(ValueError, match="finite"):
            maximize_dissimilarity(bad, small_basis, PrivacyConfig(), [0, 1])

    def test_wrong_shape_rejected(self, small_basis, image):
        with pytest.raises(ValueError, match="image shape"):
            scramble(np.zeros((3, 4, 4)), small_basis, PrivacyConfig(), 0)
        with pytest.raises(ValueError, match="image shape"):
            maximize_dissimilarity(image, small_basis, PrivacyConfig(), [0])


def dense_terms(y, p, x_flat, n, penalty_weight):
    """Reference: the penalty term as the dense product of the sign matrix G and P."""
    x_hat = x_flat + y
    g = (x_hat > 1.0).astype(np.float64) - (x_hat < 0.0)
    penalty = np.einsum("ij,ij->i", x_hat, g)
    objective = np.einsum("ij,ij->i", y, y) / n - penalty_weight * penalty
    return objective, penalty, g @ p, g, x_hat


def ascent_terms(y, p, x, w):
    """_ascent_terms of the offset y itself (scale 1, so x_hat is x + y)."""
    return _ascent_terms(y, 1.0, x, np.empty_like(x), p, w)


class TestSparsePenaltyGradient:
    N, D, W = 96, 24, 0.15
    KINDS = ("inside", "few", "all", "bounds")
    FEW = (3, 1, 0, 2)

    def case(self, kind, b):
        """Pixel offsets y = C U.T, the projector-like P = U U.T and images
        with a chosen out-of-box pattern."""
        rng = np.random.default_rng([self.KINDS.index(kind), b])
        u = np.asfortranarray(rng.standard_normal((self.N, self.D)) / np.sqrt(self.N))
        x = np.full((b, self.N), 0.5)
        if kind == "few":
            # 3, 1, 0, 2 pixels out of the box in images 0, 1, 2, 3
            for i, k in enumerate(self.FEW[:b]):
                x[i, rng.choice(self.N, k, replace=False)] = [-0.4, 1.3, 1.7][:k]
        elif kind == "all":
            x[:, ::2], x[:, 1::2] = -1.0, 2.0
        elif kind == "bounds":
            # zero rows keep x_hat at exactly 0 and 1 there, where g = 0
            u[:8] = 0.0
            x[:, :4], x[:, 4:8] = 0.0, 1.0
            x[:, 8], x[:, 9] = -0.2, 1.2
        c = 1e-2 * rng.standard_normal((b, self.D))
        return c @ u.T, u @ u.T, x

    @pytest.mark.parametrize("b", [1, 4])
    @pytest.mark.parametrize("kind", KINDS)
    def test_matches_dense_formula(self, kind, b):
        y, p, x = self.case(kind, b)
        n, w = self.N, self.W
        objective, penalty, penalty_grad = ascent_terms(y, p, x, w)
        ref_obj, ref_pen, ref_grad, g, x_hat = dense_terms(y, p, x, n, w)
        out = np.count_nonzero(g, axis=1)
        expected_out = {"inside": [0] * b, "few": list(self.FEW[:b]), "all": [n] * b,
                        "bounds": [2] * b}[kind]
        assert out.tolist() == expected_out
        if kind == "bounds":
            assert np.all(x_hat[:, :4] == 0.0) and np.all(x_hat[:, 4:8] == 1.0)
        # Both sides sum the same n terms (n-term sums of |g_j| |p_jk| and
        # |x_hat_j g_j|) in different orders: each is within gamma_n * sum|terms|
        # of the exact value, plus one rounding of every final operation.
        eps = np.finfo(np.float64).eps
        gamma = n * eps / (1 - n * eps)
        pen_tol = 2 * gamma * np.einsum("ij,ij->i", np.abs(x_hat), np.abs(g))
        assert np.all(np.abs(penalty - ref_pen) <= pen_tol)
        grad_tol = 2 * gamma * (np.abs(g) @ np.abs(p))
        assert np.all(np.abs(penalty_grad - ref_grad) <= grad_tol)
        obj_tol = w * pen_tol + 4 * eps * (np.abs(ref_obj) + w * ref_pen)
        assert np.all(np.abs(objective - ref_obj) <= obj_tol)
        if kind == "inside":
            assert np.array_equal(penalty_grad, ref_grad) and np.all(penalty == 0.0)

    @pytest.mark.parametrize("b", [1, 4])
    @pytest.mark.parametrize("kind", KINDS)
    def test_matches_per_image_sum_exactly(self, kind, b):
        # Every term of G @ P is +-1 times an entry of P, so summing the same
        # terms in the same (ascending pixel) order gives the same bits.
        y, p, x = self.case(kind, b)
        x_hat = x + y
        penalty_grad = np.zeros_like(y)
        for i, row in enumerate(x_hat):
            pixel = np.flatnonzero((row > 1.0) | (row < 0.0))
            if pixel.size:
                signed = p[pixel] * np.where(row[pixel] > 1.0, 1.0, -1.0)[:, None]
                penalty_grad[i] = signed.sum(axis=0)
        _, _, got = ascent_terms(y, p, x, self.W)
        assert np.array_equal(got, penalty_grad)

    def test_no_gather_of_out_of_box_rows(self):
        # Every pixel of 8 images out of the box: gathering their rows of P
        # would take 8 * 768 * 768 * 8 bytes = 37.7 MB.
        b, n = 8, 768
        rng = np.random.default_rng(41)
        u = np.linalg.qr(rng.standard_normal((n, 64)))[0]
        p = u @ u.T
        x = np.empty((b, n))
        x[:, ::2], x[:, 1::2] = -1.0, 2.0
        y = 1e-3 * rng.standard_normal((b, 64)) @ u.T
        x_hat = np.empty_like(x)
        tracemalloc.start()
        try:
            _, penalty, _ = _ascent_terms(y, 1.0, x, x_hat, p, self.W)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.all(penalty > 0)
        assert peak < 2 * 1024 * 1024

    def test_overflow_stays_non_finite(self):
        y, p, x = self.case("few", 2)
        y[1] = 1e300
        objective, _, _ = ascent_terms(y, p, x, self.W)
        assert np.isfinite(objective[0]) and not np.isfinite(objective[1])


def coefficient_ascent(x_flat, u, cfg, seeds):
    """Reference: the ascent on the coefficients c with dense products against U,
    from the coefficients of the pixel-space start scale * z P."""
    n, w = x_flat.shape[1], cfg.penalty_weight
    c = cfg.init_coeff_scale * np.stack(
        [np.random.default_rng(seed).standard_normal(n) for seed in seeds]) @ u
    history, penalties = [], []
    for step in [cfg.step_size] * cfg.max_iters + [cfg.settle_step_size] * cfg.settle_iters:
        uc = c @ u.T
        x_hat = x_flat + uc
        g = (x_hat > 1.0).astype(np.float64) - (x_hat < 0.0)
        penalty = np.einsum("ij,ij->i", x_hat, g)
        history.append(np.einsum("ij,ij->i", uc, uc) / n - w * penalty)
        penalties.append(penalty)
        c = c + step * ((2.0 / n) * c - w * (g @ u))
    delta = c @ u.T
    return np.array(history), np.array(penalties), np.einsum("ij,ij->i", delta, delta) / n


class TestPixelSpaceAscent:
    def test_matches_coefficient_ascent(self, small_basis):
        # step_size = 0.25 keeps the ascent on small_net out of its chaotic
        # regime (see test_batch_matches_single_image_runs), so the two
        # orders of rounding stay within 1e-10 of each other.
        xs = np.stack([synthetic_image(600 + i, (3, 8, 8)) for i in range(3)])
        seeds = [41, 42, 43]
        cfg = PrivacyConfig(step_size=0.25)
        res = maximize_dissimilarity(xs, small_basis, cfg, seeds)
        history, penalties, mse = coefficient_ascent(xs.reshape(3, -1), small_basis,
                                                     cfg, seeds)
        assert penalties.max() > 0.0
        # A penalty entry can be a single pixel a hair below 0, so the
        # histories are compared relative to each image's largest value.
        for got, ref in ((res.objective_history, history), (res.penalty_history, penalties)):
            assert np.all(np.abs(got - ref).max(axis=0) <= 1e-10 * np.abs(ref).max(axis=0))
        np.testing.assert_allclose(res.mse, mse, rtol=1e-10, atol=0)

    def test_iterate_stays_in_span_at_default_step(self, small_basis, image):
        # At n = 192 the default step multiplies the part of the pixel offset
        # outside span(U) by ~e^82 over the run unless it is re-projected; the
        # last objective comes from the unprojected iterate and must still
        # agree with the MSE of a run one settle step shorter.
        cfg = PrivacyConfig()
        res = scramble(image, small_basis, cfg, 3)
        shorter = scramble(image, small_basis,
                           PrivacyConfig(settle_iters=cfg.settle_iters - 1), 3)
        mse = res.objective_history[-1] + cfg.penalty_weight * res.penalty_history[-1]
        np.testing.assert_allclose(mse, shorter.mse, rtol=1e-12, atol=0)
        delta = (res.image[0] - image).ravel()
        leak = orthogonal_decompose(small_basis, delta).orthogonal
        assert np.linalg.norm(leak) <= 1e-12 * np.linalg.norm(delta)


def counting_basis(u):
    """u as an ndarray subclass whose matrix products, its transpose's
    included, are recorded: the returned list gets the left operand of each."""
    left_operands = []

    class CountingBasis(np.ndarray):
        def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
            plain = [a.view(np.ndarray) if isinstance(a, CountingBasis) else a for a in inputs]
            if ufunc is np.matmul:
                left_operands.append(plain[0])
            return getattr(ufunc, method)(*plain, **kwargs)

    return u.view(CountingBasis), left_operands


def out_of_span(u, y):
    """The largest relative part of a row of y outside span(u)."""
    return np.max(np.linalg.norm(y - (y @ u) @ u.T, axis=1) / np.linalg.norm(y, axis=1))


class TestScaledIterate:
    def test_default_run_makes_only_the_start_and_end_products(self, first_layer_basis):
        # Products with U: P = U U.T, then (y U) U.T at the end, and two more
        # per re-projection. The default run on the 3072-pixel first layer
        # grows by (1 + 8/3072)^2000 (1 + 0.1/3072)^300, about 183, in all,
        # so its loop makes none.
        u, products = counting_basis(first_layer_basis)
        scramble(synthetic_image(10, (3, 32, 32)), u, PrivacyConfig(), 3)
        assert len(products) == 3
        assert out_of_span(first_layer_basis, products[-2]) <= 1e-12

    def test_small_net_reprojects_once_per_growth_of_1024(self, small_basis, image):
        # At n = 192 the default step grows y by 1 + 8/192 per iteration, so
        # the growth reaches 1024 every 170 iterations: 11 times in the 2000
        # growth iterations, and the remaining growth of e^(130 * 0.0408)
        # times the settle phase's 1.17 stays below 1024.
        u, products = counting_basis(small_basis)
        scramble(image, u, PrivacyConfig(), 3)
        assert len(products) == 3 + 2 * 11
        assert out_of_span(small_basis, products[-2]) <= 1e-12

    def test_long_run_stays_finite_and_in_span(self, small_basis, image):
        # 20,000 growth iterations at n = 192 grow y by about e^816 in all:
        # without the re-projections its out-of-span part explodes, and a
        # scale never folded back into v overflows after about 17,400.
        u, products = counting_basis(small_basis)
        res = scramble(image, u, PrivacyConfig(max_iters=20_000), 3)
        assert np.all(np.isfinite(res.objective_history))
        assert np.all(np.isfinite(res.penalty_history))
        assert res.max_bound_violation[0] <= 0.01
        # the unprojected final iterate, and the offset of the result
        assert out_of_span(small_basis, products[-2]) <= 1e-12
        assert out_of_span(small_basis, (res.image - image).reshape(1, -1)) <= 1e-12


class TestSpanOnly:
    def test_results_depend_on_the_span_only(self, default_net, first_layer_a,
                                             first_layer_basis):
        # The default 3x32x32 network, where the ascent is stable (on
        # small_net it is chaotic, see test_batch_matches_single_image_runs).
        # Three orthonormal bases of the first layer's nullspace: the band
        # route's, LAPACK's geqrf/ormqr basis of the dense A.T (another
        # factorization: other bytes, spans 1e-14 apart) and a rotated,
        # permuted copy of the first (the same span up to rounding).
        net, band = default_net, first_layer_basis
        lapack = raw_qr_basis(first_layer_a)
        assert lapack.tobytes() != band.tobytes()
        rng = np.random.default_rng(5)
        d = band.shape[1]
        rotated = (band @ np.linalg.qr(rng.standard_normal((d, d)))[0])[:, rng.permutation(d)]
        xs = np.stack([synthetic_image(10 + i, (3, 32, 32)) for i in range(2)])
        ref = maximize_dissimilarity(xs, band, PrivacyConfig(), [3, 4])
        ref_dev = output_deviation(net, xs, ref.image)
        ref_recons = sample_reconstructions(ref.image[:1], band, 3, seeds=[9])
        for u in (lapack, rotated):
            res = maximize_dissimilarity(xs, u, PrivacyConfig(), [3, 4])
            np.testing.assert_allclose(res.mse, ref.mse, rtol=1e-12, atol=0)
            for field in ("objective_history", "penalty_history"):
                got, want = getattr(res, field), getattr(ref, field)
                assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
            # The ascent carries a 1e-14 difference of the projectors into
            # pixels of up to 1.5e-12, so images compare in norm.
            assert np.linalg.norm(res.image - ref.image) <= 1e-12 * np.linalg.norm(ref.image)
            np.testing.assert_allclose(res.max_bound_violation, ref.max_bound_violation,
                                       rtol=1e-12, atol=1e-12)
            np.testing.assert_allclose(output_deviation(net, xs, res.image), ref_dev,
                                       rtol=1e-12, atol=1e-12)
            recons = sample_reconstructions(ref.image[:1], u, 3, seeds=[9])
            assert np.linalg.norm(recons - ref_recons) <= 1e-12 * np.linalg.norm(ref_recons)


class TestSampleReconstructions:
    def test_known_coefficients_invert_exactly(self, small_basis, image):
        # whoever knows the offset's coefficients in U recovers the original
        res = scramble(image, small_basis, PrivacyConfig(), 7)
        coefficients = small_basis.T @ (res.image[0] - image).ravel()
        recovered = res.image[0].ravel() - small_basis @ coefficients
        assert np.max(np.abs(recovered - image.ravel())) <= 1e-10

    def test_outputs_identical_and_distinct(self, small_net, small_basis, image):
        res = scramble(image, small_basis, PrivacyConfig(), 8)
        recons = sample_reconstructions(res.image, small_basis, 16, seeds=[9])[0]
        assert recons.shape == (16, 3, 8, 8)
        ref = forward(small_net, res.image[:1])
        for r in recons:
            assert np.max(np.abs(forward(small_net, r[None]) - ref)) <= 1e-9
        for i in range(16):
            for j in range(i + 1, 16):
                assert np.linalg.norm(recons[i] - recons[j]) > 0.0

    def test_batched_draw_matches_one_draw_per_candidate(self, small_basis, image):
        recons = sample_reconstructions(image[None], small_basis, 4, seeds=[9])
        assert recons.shape == (1, 4, 3, 8, 8)
        rng = np.random.default_rng(9)
        for r in recons[0]:
            ref = image.ravel() - small_basis @ (rng.standard_normal(image.size) @ small_basis)
            np.testing.assert_allclose(r.ravel(), ref, rtol=0, atol=1e-14)
        # a stack of images, one seed each, is bit for bit one call per image
        stack = np.stack([image, 1.0 - image, image[:, ::-1]])
        seeds = [9, 10, 11]
        recons = sample_reconstructions(stack, small_basis, 4, seeds)
        assert recons.shape == (3, 4, 3, 8, 8)
        for x, seed, got in zip(stack, seeds, recons):
            assert np.array_equal(got, sample_reconstructions(x[None], small_basis, 4, [seed])[0])

    def test_empty_subspace(self, image):
        empty = np.zeros((192, 0))
        with pytest.raises(EmptySubspaceError):
            sample_reconstructions(image[None], empty, 4, seeds=[0])

    def test_ambient_mismatch(self, small_basis):
        with pytest.raises(ValueError, match="ambient"):
            sample_reconstructions(np.zeros((1, 3, 4, 4)), small_basis, 2, seeds=[0])


class TestPrivacyBattery:
    @pytest.mark.parametrize("kwargs, cause", [
        ({"n_images": 0}, "at least 1 image"),
        ({"images": []}, "at least 1 image"),
        ({"n_recon": 1}, "at least 2 reconstructions"),
        ({"n_recon": 0}, "at least 2 reconstructions"),
    ])
    def test_degenerate_counts_rejected(self, small_net, small_basis, kwargs, cause):
        with pytest.raises(ValueError, match=cause):
            privacy_battery(small_net, small_basis, 1, **kwargs)
