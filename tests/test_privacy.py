import numpy as np
import pytest

from nullspan.imaging import synthetic_image
from nullspan.layers import ConvLayerSpec, FcLayerSpec, Flatten, Relu, build_equivalent
from nullspan.network import NetworkSpec, forward, init_network
from nullspan.privacy import (
    DivergenceError,
    PrivacyConfig,
    _objective_and_gradient,
    maximize_dissimilarity,
    sample_reconstructions,
)
from nullspan.subspace import EmptySubspaceError, harmless_basis, orthogonal_decompose
from nullspan.verification import privacy_battery


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


def scramble(x, basis, net, cfg, seed):
    """One image as a batch of one."""
    return maximize_dissimilarity(x[None], basis, net, cfg, [seed])


class TestMaximizeDissimilarity:
    def test_zero_init_is_identity(self, small_net, small_basis, image):
        cfg = PrivacyConfig(max_iters=10, settle_iters=0, init_coeff_scale=0.0)
        res = scramble(image, small_basis, small_net, cfg, 1)
        assert res.mse.tolist() == [0.0]
        assert res.image.tobytes() == image.tobytes()
        assert res.output_deviation.tolist() == [0.0]

    def test_objective_monotone_before_penalty(self, small_net, small_basis, image):
        # tiny init and few iterations: no pixel can reach a bound, so the
        # objective is the pure quadratic and ascent is non-decreasing
        cfg = PrivacyConfig(max_iters=50, step_size=0.1, settle_iters=0,
                            init_coeff_scale=0.005)
        res = scramble(image, small_basis, small_net, cfg, 2)
        assert res.objective_history.shape == (50, 1)
        assert res.penalty_history.shape == (50, 1)
        assert res.penalty_history.dtype == np.float64
        assert np.all(res.penalty_history == 0.0)
        assert res.max_bound_violation[0] == 0.0
        diffs = np.diff(res.objective_history[:, 0])
        assert np.all(diffs >= -1e-18)
        assert res.mse[0] > res.objective_history[1, 0]

    def test_default_run_contract(self, small_net, small_basis, image):
        res = scramble(image, small_basis, small_net, PrivacyConfig(), 3)
        assert res.image.shape == (1, 3, 8, 8)
        assert res.penalty_history.shape == res.objective_history.shape
        assert np.all(res.penalty_history >= 0.0) and res.penalty_history.max() > 0.0
        assert res.mse[0] >= 0.05
        assert res.max_bound_violation[0] <= 0.01
        assert res.output_deviation[0] <= 1e-9
        # the perturbation never leaves the harmless subspace
        delta = (res.image[0] - image).ravel()
        leak = orthogonal_decompose(small_basis, delta).orthogonal
        assert np.linalg.norm(leak) <= 1e-10 * np.linalg.norm(delta)

    def test_argmax_preserved_over_seeds(self, small_net, small_basis):
        xs = np.stack([synthetic_image(900 + i, (3, 8, 8)) for i in range(20)])
        res = maximize_dissimilarity(xs, small_basis, small_net,
                                     PrivacyConfig(max_iters=300, settle_iters=100),
                                     list(range(20)))
        clean = forward(small_net, xs).logits
        scrambled = forward(small_net, res.image).logits
        np.testing.assert_array_equal(clean.argmax(axis=1), scrambled.argmax(axis=1))
        np.testing.assert_array_equal(res.clean_logits, clean)
        np.testing.assert_array_equal(res.scrambled_logits, scrambled)
        assert np.all(res.output_deviation <= 1e-9)

    def test_penalty_history_recovers_mse(self, small_net, small_basis, image):
        # the objective of iteration t plus the weighted penalty is the MSE of
        # the iterate after t steps, which a run of t steps reports as mse
        w = PrivacyConfig().penalty_weight
        for steps in (1, 40, 400):
            short = scramble(image, small_basis, small_net,
                             PrivacyConfig(max_iters=steps, settle_iters=0), 3)
            longer = scramble(image, small_basis, small_net,
                              PrivacyConfig(max_iters=steps + 1, settle_iters=0), 3)
            mse = longer.objective_history[steps] + w * longer.penalty_history[steps]
            np.testing.assert_allclose(mse, short.mse, rtol=1e-12, atol=0)

    def test_penalty_disabled_violations_grow(self, small_net, small_basis, image):
        def run(iters):
            cfg = PrivacyConfig(max_iters=iters, step_size=4.0, penalty_weight=0.0,
                                settle_iters=0, init_coeff_scale=0.8)
            return scramble(image, small_basis, small_net, cfg, 4)

        early = run(200).max_bound_violation[0]
        late = run(1500).max_bound_violation[0]
        assert 0.0 < early < late

    def test_divergent_step_raises(self, small_net, small_basis, image):
        cfg = PrivacyConfig(max_iters=400, step_size=1e9, penalty_weight=0.0,
                            settle_iters=0, init_coeff_scale=0.1)
        with pytest.raises(DivergenceError, match="smaller step"):
            scramble(image, small_basis, small_net, cfg, 5)

    def test_divergent_image_in_batch_is_named(self, small_net, small_basis, image):
        # With no penalty, the first objective of image i is ||c_i||^2 / n
        # (U is orthonormal), and c_i = scale * z_i. Pick the scale so that
        # the sum of squares overflows for the largest ||z_i|| alone.
        seeds = [11, 12, 13]
        sq = [float(np.sum(np.random.default_rng(s).standard_normal(small_basis.shape[1]) ** 2))
              for s in seeds]
        order = np.argsort(sq)
        assert sq[order[-1]] > 1.05 * sq[order[-2]]
        scale = np.sqrt(np.finfo(np.float64).max / (0.5 * (sq[order[-1]] + sq[order[-2]])))
        cfg = PrivacyConfig(max_iters=1, settle_iters=0, penalty_weight=0.0,
                            init_coeff_scale=scale)
        with pytest.raises(DivergenceError, match=f"image {order[-1]} "):
            maximize_dissimilarity(np.stack([image] * 3), small_basis, small_net, cfg, seeds)
        scramble(image, small_basis, small_net, cfg, seeds[order[-2]])

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
        batch = maximize_dissimilarity(xs, small_basis, small_net, cfg, seeds)
        assert batch.objective_history.shape == (cfg.max_iters + cfg.settle_iters, 5)
        for i, (x, seed) in enumerate(zip(xs, seeds)):
            single = scramble(x, small_basis, small_net, cfg, seed)
            np.testing.assert_allclose(batch.mse[i], single.mse[0], rtol=1e-10, atol=0)
            # The violation is a pixel value minus 1 and the deviation is
            # rounding noise, so their rounding error is absolute: both also
            # get a floor far below their bounds (0.01 and 1e-9).
            for field in ("max_bound_violation", "output_deviation"):
                np.testing.assert_allclose(getattr(batch, field)[i], getattr(single, field)[0],
                                           rtol=1e-10, atol=1e-12)
            column, ref = batch.objective_history[:, i], single.objective_history[:, 0]
            assert np.max(np.abs(column - ref)) <= 1e-10 * np.max(np.abs(ref))

    def test_seed_count_must_match_batch(self, small_net, small_basis, image):
        with pytest.raises(ValueError, match="one seed"):
            maximize_dissimilarity(np.stack([image] * 2), small_basis, small_net,
                                   PrivacyConfig(), [1])

    def test_empty_subspace_rejected(self, image):
        spec = NetworkSpec(
            input_shape=(3, 8, 8),
            layers=(Flatten(), FcLayerSpec(192, 192)),
        )
        net = init_network(spec, 6)
        basis = harmless_basis(build_equivalent(net.layers[1]))
        with pytest.raises(EmptySubspaceError):
            scramble(image, basis, net, PrivacyConfig(), 0)

    def test_out_of_range_image_rejected(self, small_net, small_basis):
        bad = np.full((3, 8, 8), 1.5)
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            scramble(bad, small_basis, small_net, PrivacyConfig(), 0)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_image_rejected(self, small_net, small_basis, image, value):
        bad = np.stack([image, image])
        bad[1, 2, 3, 4] = value
        with pytest.raises(ValueError, match="finite"):
            maximize_dissimilarity(bad, small_basis, small_net, PrivacyConfig(), [0, 1])

    def test_wrong_shape_rejected(self, small_net, small_basis, image):
        with pytest.raises(ValueError, match="image shape"):
            scramble(np.zeros((3, 4, 4)), small_basis, small_net, PrivacyConfig(), 0)
        with pytest.raises(ValueError, match="image shape"):
            maximize_dissimilarity(image, small_basis, small_net, PrivacyConfig(), [0])


def dense_objective_and_gradient(y, p, x_flat, n, penalty_weight):
    """Reference: the penalty term as the dense product of the sign matrix G and P."""
    x_hat = x_flat + y
    g = (x_hat > 1.0).astype(np.float64) - (x_hat < 0.0)
    penalty = np.einsum("ij,ij->i", x_hat, g)
    objective = np.einsum("ij,ij->i", y, y) / n - penalty_weight * penalty
    gradient = (2.0 / n) * y - penalty_weight * (g @ p)
    return objective, penalty, gradient, g, x_hat


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
        objective, penalty, gradient = _objective_and_gradient(y, p, x, n, w)
        ref_obj, ref_pen, ref_grad, g, x_hat = dense_objective_and_gradient(y, p, x, n, w)
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
        grad_terms = np.abs(g) @ np.abs(p)
        grad_tol = (2 * gamma * w * grad_terms
                    + 4 * eps * (np.abs(2.0 / n * y) + w * grad_terms))
        assert np.all(np.abs(gradient - ref_grad) <= grad_tol)
        obj_tol = w * pen_tol + 4 * eps * (np.abs(ref_obj) + w * ref_pen)
        assert np.all(np.abs(objective - ref_obj) <= obj_tol)
        if kind == "inside":
            assert np.array_equal(gradient, ref_grad) and np.all(penalty == 0.0)

    def test_overflow_stays_non_finite(self):
        y, p, x = self.case("few", 2)
        y[1] = 1e300
        objective, _, _ = _objective_and_gradient(y, p, x, self.N, self.W)
        assert np.isfinite(objective[0]) and not np.isfinite(objective[1])


def coefficient_ascent(x_flat, u, cfg, seeds):
    """Reference: the ascent on the coefficients c with dense products against U."""
    n, w = x_flat.shape[1], cfg.penalty_weight
    c = cfg.init_coeff_scale * np.stack(
        [np.random.default_rng(seed).standard_normal(u.shape[1]) for seed in seeds])
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
    def test_matches_coefficient_ascent(self, small_net, small_basis):
        # step_size = 0.25 keeps the ascent on small_net out of its chaotic
        # regime (see test_batch_matches_single_image_runs), so the two
        # orders of rounding stay within 1e-10 of each other.
        xs = np.stack([synthetic_image(600 + i, (3, 8, 8)) for i in range(3)])
        seeds = [41, 42, 43]
        cfg = PrivacyConfig(step_size=0.25)
        res = maximize_dissimilarity(xs, small_basis, small_net, cfg, seeds)
        history, penalties, mse = coefficient_ascent(xs.reshape(3, -1), small_basis,
                                                     cfg, seeds)
        assert penalties.max() > 0.0
        # A penalty entry can be a single pixel a hair below 0, so the
        # histories are compared relative to each image's largest value.
        for got, ref in ((res.objective_history, history), (res.penalty_history, penalties)):
            assert np.all(np.abs(got - ref).max(axis=0) <= 1e-10 * np.abs(ref).max(axis=0))
        np.testing.assert_allclose(res.mse, mse, rtol=1e-10, atol=0)

    def test_iterate_stays_in_span_at_default_step(self, small_net, small_basis, image):
        # At n = 192 the default step multiplies the part of the pixel offset
        # outside span(U) by ~e^82 over the run unless it is re-projected; the
        # last objective comes from the unprojected iterate and must still
        # agree with the MSE of a run one settle step shorter.
        cfg = PrivacyConfig()
        res = scramble(image, small_basis, small_net, cfg, 3)
        shorter = scramble(image, small_basis, small_net,
                           PrivacyConfig(settle_iters=cfg.settle_iters - 1), 3)
        mse = res.objective_history[-1] + cfg.penalty_weight * res.penalty_history[-1]
        np.testing.assert_allclose(mse, shorter.mse, rtol=1e-12, atol=0)
        delta = (res.image[0] - image).ravel()
        leak = orthogonal_decompose(small_basis, delta).orthogonal
        assert np.linalg.norm(leak) <= 1e-12 * np.linalg.norm(delta)


class TestSampleReconstructions:
    def test_known_coefficients_invert_exactly(self, small_net, small_basis, image):
        res = scramble(image, small_basis, small_net, PrivacyConfig(), 7)
        recovered = (res.image[0].ravel() - small_basis @ res.coefficients[0])
        assert np.max(np.abs(recovered - image.ravel())) <= 1e-10

    def test_outputs_identical_and_distinct(self, small_net, small_basis, image):
        res = scramble(image, small_basis, small_net, PrivacyConfig(), 8)
        recons = sample_reconstructions(res.image[0], small_basis, 16, seed=9)
        assert recons.shape == (16, 3, 8, 8)
        ref = forward(small_net, res.image[:1]).logits
        for r in recons:
            assert np.max(np.abs(forward(small_net, r[None]).logits - ref)) <= 1e-9
        for i in range(16):
            for j in range(i + 1, 16):
                assert np.linalg.norm(recons[i] - recons[j]) > 0.0

    def test_batched_draw_matches_one_draw_per_candidate(self, small_basis, image):
        recons = sample_reconstructions(image, small_basis, 4, seed=9)
        rng = np.random.default_rng(9)
        for r in recons:
            ref = image.ravel() - small_basis @ rng.standard_normal(small_basis.shape[1])
            np.testing.assert_allclose(r.ravel(), ref, rtol=0, atol=1e-14)

    def test_empty_subspace(self, image):
        empty = np.zeros((192, 0))
        with pytest.raises(EmptySubspaceError):
            sample_reconstructions(image, empty, 4, seed=0)

    def test_ambient_mismatch(self, small_basis):
        with pytest.raises(ValueError, match="ambient"):
            sample_reconstructions(np.zeros((3, 4, 4)), small_basis, 2, seed=0)


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
