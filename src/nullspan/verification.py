"""Reproducible invariant batteries.

Every battery derives its randomness from a root seed through
seeding.subseed, returns CheckResult records (measured value vs
tolerance), and is a pure function of its arguments, so repeated runs
produce identical reports. The CLI's verify command is a thin wrapper
over full_battery; the acceptance tests call the same functions.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field

import numpy as np

from .imaging import ssim, synthetic_image
from .layers import (
    AvgPool,
    ConvLayerSpec,
    FcLayerSpec,
    Flatten,
    Relu,
    build_equivalent,
    predict_nullspace_dim,
    verify_equivalence,
)
from .linalg import certified_rank, decide_rank, sigma_max_bound, singular_values
from .network import (
    NetworkSpec,
    forward,
    init_network,
    rmse_report,
)
from .privacy import PrivacyConfig, PrivacyResult, maximize_dissimilarity, sample_reconstructions
from .seeding import make_rng, subseed
from .subspace import (
    DIFFERENT_OUTPUT,
    IDENTICAL_OUTPUT,
    PROPORTIONAL,
    EmptySubspaceError,
    LeastHarmful,
    classify_pair,
    harmless_basis,
    least_harmful,
    orthogonal_decompose,
    relate_outputs,
    sample_harmless,
)

__all__ = [
    "CheckResult",
    "VerificationReport",
    "PrivacyBatteryResult",
    "default_network_spec",
    "seeded_network",
    "cited_geometries",
    "seeded_geometries",
    "seeded_conv",
    "seeded_fc",
    "with_rank",
    "nullity_row",
    "dimension_agreement",
    "lowering_residuals",
    "basis_integrity",
    "rmse_table",
    "least_harmful_minimality",
    "decomposition_laws",
    "build_contour",
    "contour_checks",
    "full_battery",
    "privacy_battery",
]

RMSE_SCALES = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0)
DIM_SWEEP_HEADER = ("in_dim", "out_dim", "predicted", "numerical", "agree")
BASE_LINF = 8.0 / 255.0


_BOUNDS = {"<=": operator.le, "<": operator.lt, ">=": operator.ge, ">": operator.gt}


@dataclass(frozen=True)
class CheckResult:
    """One named invariant: measured value against its tolerance.

    bound is the comparison that passes, measured bound tolerance: "<="
    (the default, an upper bound; an exact count measures its misses
    against 0), "<", ">=" or ">" (lower bounds, which detail names).
    passed is computed from these, so a check cannot report one bound and
    test another. Raises ValueError on any other bound.
    """

    name: str
    measured: float
    tolerance: float
    detail: str = ""
    bound: str = "<="

    def __post_init__(self):
        if self.bound not in _BOUNDS:
            raise ValueError(f"bound must be one of {sorted(_BOUNDS)}, got {self.bound!r}")

    @property
    def passed(self) -> bool:
        return bool(_BOUNDS[self.bound](self.measured, self.tolerance))


def default_network_spec() -> NetworkSpec:
    """Canonical desk-scale network: 3x32x32 input, four weighted layers.

    The first convolution (10 kernels, 7x7, stride 2, padding 3) has a
    512-dimensional harmless subspace; the second (16 kernels, 3x3,
    stride 1, padding 1) has none, making it the least-harmful probe
    point; the first fully-connected layer (1024 -> 64) gives an
    interior harmless subspace of dimension 960.
    """
    return NetworkSpec(
        input_shape=(3, 32, 32),
        layers=(
            ConvLayerSpec(in_channels=3, in_height=32, in_width=32, out_channels=10,
                          kernel_h=7, kernel_w=7, stride=2, zero_padding=3),
            Relu(),
            ConvLayerSpec(in_channels=10, in_height=16, in_width=16, out_channels=16,
                          kernel_h=3, kernel_w=3, stride=1, zero_padding=1),
            Relu(),
            AvgPool(window=2, stride=2),
            Flatten(),
            FcLayerSpec(in_features=1024, out_features=64),
            Relu(),
            FcLayerSpec(in_features=64, out_features=10),
        ),
    )


def seeded_network(root_seed: int, spec: NetworkSpec | None) -> NetworkSpec:
    """The network under analysis: spec, or default_network_spec() when it
    is None, with its weights drawn from seed path 8 of root_seed."""
    return init_network(spec or default_network_spec(), subseed(root_seed, 8))


def seeded_conv(rng, **kw) -> ConvLayerSpec:
    """The conv geometry kw with standard normal kernels drawn from rng,
    after the geometry is validated."""
    spec = ConvLayerSpec(**kw)
    kernels = rng.standard_normal(
        (spec.out_channels, spec.in_channels, spec.kernel_h, spec.kernel_w))
    return ConvLayerSpec(**{**kw, "kernels": kernels})


def seeded_fc(rng, in_features: int, out_features: int) -> FcLayerSpec:
    """A fully-connected layer with a standard normal weight drawn from rng."""
    return FcLayerSpec(in_features=in_features, out_features=out_features,
                       weight=rng.standard_normal((in_features, out_features)))


def covering_selector_kernels(c_in: int, c_out: int, kernel: int,
                              noise_scale: float, rng) -> np.ndarray:
    """Seeded kernels built as one selector tap per kernel plus Gaussian
    noise. The taps jointly cover every (channel, row parity, column
    parity) class, so at stride 2 the noise-free part of the lowered
    matrix is a permutation and the full matrix stays well conditioned.

    Purpose: strided multi-channel convolutions whose output dimension
    matches their input are algebraically full rank for generic kernels,
    but with plain Gaussian kernels the singular values decay
    exponentially below the 64-bit noise floor, so no finite-precision
    rank test can certify the dimension formula (see the layer tests for
    a demonstration). These kernels give a seeded instance of the same
    geometry on which the formula's hypotheses hold numerically, not
    just generically.
    """
    if kernel < 2:
        raise ValueError("selector kernels need kernel >= 2")
    kernels = noise_scale * rng.standard_normal((c_out, c_in, kernel, kernel))
    taps = [(c, dy, dx) for c in range(c_in) for dy in (1, 2) for dx in (1, 2)]
    for j in range(c_out):
        c, dy, dx = taps[j % len(taps)]
        kernels[j, c, dy % kernel, dx % kernel] += 1.0
    return kernels


def with_rank(spec):
    """A sweep geometry: the spec, its lowered matrix A and A's rank decision."""
    a = build_equivalent(spec)
    return spec, a, decide_rank(a)


def cited_geometries(root_seed: int):
    """The three anchor (spec, A, RankDecision) geometries: the 512-dim
    first-layer conv, the square 784 fully-connected layer, and the
    stride-2 conv whose output dimension matches its input (instantiated
    with well-conditioned seeded kernels; see covering_selector_kernels)."""
    return [with_rank(spec) for spec in (
        seeded_conv(make_rng(root_seed, 1, 0), in_channels=3, in_height=32,
                    in_width=32, out_channels=10, kernel_h=7, kernel_w=7,
                    stride=2, zero_padding=3),
        seeded_fc(make_rng(root_seed, 1, 1), 784, 784),
        ConvLayerSpec(in_channels=3, in_height=32, in_width=32, out_channels=12,
                      kernel_h=3, kernel_w=3, stride=2, zero_padding=1,
                      kernels=covering_selector_kernels(
                          3, 12, 3, 0.04, make_rng(root_seed, 1, 2))),
    )]


def seeded_geometries(root_seed: int, count: int = 50):
    """Random desk-scale layer geometries with seeded weights, as
    (spec, A, RankDecision) triples.

    Convolutions are resampled until certified_rank certifies the drawn
    kernels' full rank; that decision is the triple's, and a certified full
    rank proves the nullity max(0, n - m). The sweep asks the certificate
    alone, so no SVD runs for a draw it resamples. The certificate
    declines on ill-conditioned draws and on shapes that drop rank for
    every kernel, such as conv 3x9x9 -> 5x7x7 k3 s1 p0 (rank 240 of 243
    over GF(p) for integer kernels), which root seed 1010146033 draws;
    hence up to 100 attempts per geometry. Fully-connected draws are taken
    as drawn, with decide_rank's decision.
    """
    out = []
    for i in range(count):
        if i % 2 == 0:
            for attempt in range(100):
                rng = make_rng(root_seed, 2, i, attempt)
                c_in = int(rng.integers(1, 5))
                h_in = int(rng.integers(6, 13))
                w_in = int(rng.integers(6, 13))
                kh = int(rng.integers(1, min(5, h_in + 1)))
                kw = int(rng.integers(1, min(5, w_in + 1)))
                stride = int(rng.integers(1, min(kh, kw) + 1))
                pad = int(rng.integers(0, min(kh, kw)))
                probe = ConvLayerSpec(in_channels=c_in, in_height=h_in, in_width=w_in,
                                      out_channels=1, kernel_h=kh, kernel_w=kw,
                                      stride=stride, zero_padding=pad)
                plane_out = probe.out_height * probe.out_width
                c_out_cap = min(c_in * kh * kw,
                                max(1, (c_in * h_in * w_in) // plane_out + 2))
                c_out = int(rng.integers(1, c_out_cap + 1))
                spec = seeded_conv(
                    rng, in_channels=c_in, in_height=h_in, in_width=w_in,
                    out_channels=c_out, kernel_h=kh, kernel_w=kw,
                    stride=stride, zero_padding=pad)
                a = build_equivalent(spec)
                decision = certified_rank(a)
                if decision is not None:
                    out.append((spec, a, decision))
                    break
            else:
                raise RuntimeError("no conv geometry drawn in 100 attempts had a certified rank")
        else:
            rng = make_rng(root_seed, 2, i)
            n_in = int(rng.integers(8, 120))
            n_out = int(rng.integers(4, 160))
            out.append(with_rank(seeded_fc(rng, n_in, n_out)))
    return out


def nullity_row(spec, decision) -> list:
    """One dim-sweep row for a layer geometry and its RankDecision: input and
    output dimensions, predicted and numerical nullity, and whether they agree."""
    predicted = predict_nullspace_dim(spec)
    return [spec.input_dim, spec.output_dim, predicted, decision.nullity,
            decision.nullity == predicted]


def _describe(spec) -> str:
    if isinstance(spec, ConvLayerSpec):
        return (f"conv {spec.in_channels}x{spec.in_height}x{spec.in_width}"
                f"->{spec.out_channels}x{spec.out_height}x{spec.out_width}"
                f" k{spec.kernel_h}x{spec.kernel_w} s{spec.stride} p{spec.zero_padding}")
    return f"fc {spec.in_features}->{spec.out_features}"


def dimension_agreement(geometries) -> tuple[list[dict], CheckResult]:
    """Numerical nullity versus the geometric prediction, per geometry.

    geometries are (spec, A, RankDecision) triples. Returns the per-geometry
    rows (for the dim-sweep CSV) and one summary check requiring exact
    integer agreement everywhere.
    """
    rows = [{"description": _describe(spec),
             **dict(zip(DIM_SWEEP_HEADER, nullity_row(spec, decision)))}
            for spec, _, decision in geometries]
    disagreements = sum(not r["agree"] for r in rows)
    return rows, CheckResult(
        "dimension-agreement", float(disagreements), 0.0,
        detail=f"{len(rows) - disagreements}/{len(rows)} geometries agree exactly")


def lowering_residuals(geometries, root_seed: int) -> CheckResult:
    """Max deviation between direct layer evaluation and the lowered
    matrix A over 100 seeded inputs, across all (spec, A, RankDecision)
    geometries: the A each rank decision was made on."""
    worst = 0.0
    for i, (spec, a, _) in enumerate(geometries):
        worst = max(worst, verify_equivalence(a, spec, samples=100,
                                              seed=subseed(root_seed, 3, i)))
    return CheckResult("lowering-residual", worst, 1e-12,
                       detail=f"{len(geometries)} geometries x 100 inputs")


def basis_integrity(a, u: np.ndarray, nullity: int) -> list[CheckResult]:
    """Orthonormality of the (n, d) basis u, annihilation by the layer
    matrix a, and d equal to a's nullity. Together they make span(u) =
    N(a): any orthonormal basis of N(a) passes, a proper subspace fails.

    Fails loudly on a tampered basis; used by the verify command when a
    basis file is supplied instead of being recomputed.
    """
    d = u.shape[1]
    ortho = 0.0 if d == 0 else float(np.max(np.abs(u.T @ u - np.eye(d))))
    sigma_bound = sigma_max_bound(a)
    residual = 0.0 if d == 0 else float(np.max(np.abs(a @ u)))
    return [
        CheckResult("basis-orthonormality", ortho, 1e-12, detail=f"d={d}"),
        CheckResult("basis-annihilation", residual, 1e-10 * sigma_bound,
                    detail="max |A u| against 1e-10 * sigma_max bound"),
        CheckResult("basis-dimension", float(abs(d - nullity)), 0.0,
                    detail=f"d={d} against the layer's nullity {nullity}"),
    ]


def _least_harmful_probe(net) -> tuple[int, LeastHarmful] | None:
    # First interior linear layer predicted to have no harmless subspace
    # whose least-harmful direction is not outright harmless, with that
    # direction.
    for idx in net.linear_layer_indices()[1:]:
        if predict_nullspace_dim(net.layers[idx]) == 0:
            lh = least_harmful(build_equivalent(net.layers[idx]))
            if not lh.in_nullspace:
                return idx, lh
    return None


def rmse_table(net, u: np.ndarray, root_seed: int) -> tuple[dict, list[CheckResult]]:
    """Logit RMSE for four perturbation kinds over 8 seeded images, as
    {kind: array of one RMSE per RMSE_SCALES entry}, plus their checks; u
    is the (n, d) harmless basis of the first layer.

    Input-level rows (injection before layer 0): a harmless direction
    and a Gaussian direction, both at base linf norm 8/255. Feature
    rows (injection at the first interior linear layer with predicted
    nullity 0 whose least harmful direction is not outright harmless):
    that unit direction and a Gaussian unit direction. The feature rows
    are omitted when the network has no such layer. Each injection point
    is one rmse_report call, and argmax-invariance reads the top-1
    changes of the harmless row of the first.
    """
    in_shape = net.input_shape
    images = np.stack([synthetic_image(subseed(root_seed, 4, i), in_shape) for i in range(8)])
    harmless = sample_harmless(u, subseed(root_seed, 4, 100), BASE_LINF).reshape(in_shape)
    g_rng = make_rng(root_seed, 4, 101)
    gaussian = g_rng.standard_normal(in_shape)
    gaussian *= BASE_LINF / np.max(np.abs(gaussian))

    input_rmse, flipped = rmse_report(net, images, np.stack([harmless, gaussian]), RMSE_SCALES, 0)
    rmse = {"harmless": input_rmse[0], "gaussian": input_rmse[1]}

    probe = _least_harmful_probe(net)
    if probe is not None:
        zcl, lh = probe
        feat_shape = net.activation_shapes()[zcl]
        gf_rng = make_rng(root_seed, 4, 102)
        gaussian_feat = gf_rng.standard_normal(feat_shape)
        gaussian_feat /= np.linalg.norm(gaussian_feat)
        feature_rmse, _ = rmse_report(net, images, np.stack(
            [lh.direction.reshape(feat_shape), gaussian_feat]), RMSE_SCALES, zcl)
        rmse["least-harmful"], rmse["gaussian-feature"] = feature_rmse

    checks = [
        CheckResult("rmse-harmless", float(rmse["harmless"].max()), 1e-10,
                    detail=f"max over scales {RMSE_SCALES}"),
        # the first RMSE and each step up from it: all positive
        CheckResult("rmse-gaussian-positive-growing",
                    float(np.diff(rmse["gaussian"], prepend=0.0).min()), 0.0,
                    detail="lower bound: every value positive, strictly increasing",
                    bound=">"),
    ]
    if probe is not None:
        lh = rmse["least-harmful"]
        checks.extend([
            CheckResult("rmse-least-harmful-growing", float(np.diff(lh).min()), 0.0,
                        detail="lower bound: strictly increasing with scale", bound=">"),
            CheckResult("rmse-least-harmful-below-gaussian",
                        float((lh / rmse["gaussian-feature"]).max()), 1.0,
                        detail="ratio to matched-norm Gaussian at same injection point",
                        bound="<"),
        ])

    changed, total = int(flipped[0].sum()), flipped[0].size * len(images)
    checks.append(CheckResult("argmax-invariance", float(changed), 0.0,
                              detail=f"{total - changed}/{total} class predictions unchanged"))
    return rmse, checks


def least_harmful_minimality(root_seed: int) -> list[CheckResult]:
    """Residual consistency and empirical minimality of the least
    harmful direction on 10 seeded full-column-rank matrices, each against
    10,000 sampled unit directions."""
    worst_rel = 0.0
    worst_margin = np.inf
    for i in range(10):
        rng = make_rng(root_seed, 5, i)
        n = int(rng.integers(15, 41))
        m = n + int(rng.integers(1, 31))
        a = rng.standard_normal((m, n))
        lh = least_harmful(a)
        av = a @ lh.direction
        rel = abs(float(av @ av) - lh.residual) / max(lh.residual, 1e-300)
        worst_rel = max(worst_rel, rel)
        deltas = rng.standard_normal((n, 10_000))
        deltas /= np.linalg.norm(deltas, axis=0)
        energies = np.sum((a @ deltas) ** 2, axis=0)
        worst_margin = min(worst_margin, float(energies.min() - lh.residual))
    return [
        CheckResult("least-harmful-residual", worst_rel, 1e-10, detail="10 seeded matrices"),
        CheckResult("least-harmful-minimality", worst_margin, -1e-10,
                    detail="lower bound: min sampled energy minus residual, "
                           "10000 unit directions per matrix", bound=">="),
    ]


def decomposition_laws(root_seed: int, trials: int = 1000) -> list[CheckResult]:
    """Decomposition and family-equivalence laws on a seeded
    fully-connected layer with a 16-dimensional harmless subspace, plus
    the injectivity law on a zero-nullity layer. Harmless perturbations
    are pixel-space normals projected onto span(u), so every measured
    value depends on the subspace, not on the basis u that spans it."""
    rng = make_rng(root_seed, 6, 0)
    n_in = 40
    lowered = build_equivalent(seeded_fc(rng, n_in, 24))
    u = harmless_basis(lowered)
    a = lowered.toarray()
    d = u.shape[1]
    checks = []

    def project(z):
        return u @ (u.T @ z)

    deltas = rng.standard_normal((n_in, trials))
    a_deltas = a @ deltas
    out_norms = np.linalg.norm(a_deltas, axis=0)

    harmless_parts = project(rng.standard_normal((n_in, trials)))
    resid = np.linalg.norm(a @ (deltas - harmless_parts) - a_deltas, axis=0)
    measured = float(np.max(resid / out_norms))
    checks.append(CheckResult("law-arbitrary-split", measured, 1e-9, detail=f"{trials} trials"))

    par = project(deltas)
    orth = deltas - par
    resid = np.linalg.norm(a @ orth - a_deltas, axis=0)
    measured = float(np.max(resid / out_norms))
    checks.append(CheckResult("law-orthogonal-output", measured, 1e-9, detail=f"{trials} trials"))

    recon = np.linalg.norm(par + orth - deltas, axis=0) / np.linalg.norm(deltas, axis=0)
    measured = float(np.max(recon))
    checks.append(CheckResult("law-reconstruction", measured, 1e-12, detail=f"{trials} trials"))

    q, _ = np.linalg.qr(rng.standard_normal((d, d)))
    perm = rng.permutation(d)
    u2 = (u @ q)[:, perm]
    orth2 = deltas - u2 @ (u2.T @ deltas)
    measured = float(np.max(np.linalg.norm(orth - orth2, axis=0)
                            / np.linalg.norm(deltas, axis=0)))
    checks.append(CheckResult("law-basis-independence", measured, 1e-9,
                              detail="orthogonal component with a rotated, permuted basis"))

    sigma_max = float(singular_values(a)[0])
    measured = float(np.max(np.abs(a @ u)))
    checks.append(CheckResult("law-harmless-zero-output", measured, 1e-10 * sigma_max,
                              detail="max |A u| over basis columns"))

    h = project(rng.standard_normal((n_in, trials)))
    ratio = np.linalg.norm(orth, axis=0) / np.linalg.norm(orth + h, axis=0)
    measured = float(np.max(ratio))
    checks.append(CheckResult("law-minimal-norm", measured, 1.0 + 1e-9,
                              detail="||d_orth|| <= ||d_orth + harmless||"))

    agree = 0
    total = 0
    for t in range(trials):
        trng = make_rng(root_seed, 6, 1, t)
        kind = t % 3
        delta = trng.standard_normal(n_in)
        if kind == 0:
            delta_hat = delta + project(trng.standard_normal(n_in))
            expected = IDENTICAL_OUTPUT
        elif kind == 1:
            o = orthogonal_decompose(u, trng.standard_normal(n_in)).orthogonal
            alpha = float(trng.uniform(1.5, 3.0)) * float(trng.choice([-1.0, 1.0]))
            delta = alpha * o + project(trng.standard_normal(n_in))
            delta_hat = o + project(trng.standard_normal(n_in))
            expected = PROPORTIONAL
        else:
            delta_hat = trng.standard_normal(n_in)
            expected = DIFFERENT_OUTPUT
        verdict = classify_pair(u, delta, delta_hat)
        direct = relate_outputs(a @ delta, a @ delta_hat)
        ok = verdict.kind == expected and direct.kind == verdict.kind
        if verdict.kind == PROPORTIONAL and ok:
            ok = abs(verdict.alpha - direct.alpha) <= 1e-6 * max(1.0, abs(verdict.alpha))
        agree += int(ok)
        total += 1
    checks.append(CheckResult("law-pair-classification", float(total - agree), 0.0,
                              detail=f"{agree}/{total} verdicts match direct output comparison"))

    rng0 = make_rng(root_seed, 6, 2)
    a0 = build_equivalent(seeded_fc(rng0, 20, 28)).toarray()
    d1 = rng0.standard_normal((20, trials))
    d2 = rng0.standard_normal((20, trials))
    measured = float(np.min(np.max(np.abs(a0 @ d1 - a0 @ d2), axis=0)))
    checks.append(CheckResult("law-zero-nullity-injective", measured, 1e-6,
                              detail=f"lower bound: {trials} seeded pairs on a "
                                     f"zero-nullity layer give distinct outputs",
                              bound=">"))
    return checks


def build_contour(a, u: np.ndarray, root_seed: int, axis: np.ndarray) -> np.ndarray:
    """Layer-output norms ||A (a * d_orth + b * d_par)||_2 on the grid
    (a, b) = (axis[i], axis[j]), as values[i, j], for the orthogonal and
    parallel components of one seeded perturbation; A is the matrix `a`.

    Rows (fixed a) are constant because the parallel component never
    reaches the output; values scale linearly in a. Each grid point is
    evaluated by a full product of the combined vector (no factored
    shortcut), so the grid genuinely measures the layer; all combined
    vectors are the columns of one sparse product."""
    n, d = u.shape
    if d == 0:
        raise EmptySubspaceError("contour needs a layer with a nontrivial harmless subspace")
    axis = np.asarray(axis, dtype=np.float64)
    dec = orthogonal_decompose(u, make_rng(root_seed, 7).standard_normal(n))
    combined = (dec.orthogonal[:, None, None] * axis[:, None]
                + dec.parallel[:, None, None] * axis).reshape(n, -1)
    return np.linalg.norm(a @ combined, axis=0).reshape(axis.size, axis.size)


def contour_checks(axis: np.ndarray, values: np.ndarray) -> list[CheckResult]:
    """Row constancy, linear column scaling, and the zero row at a = 0 of
    the build_contour values over axis. The a = 0 row is numerically zero
    and is checked against the grid scale rather than against itself."""
    vmax = float(values.max())
    checks = []

    worst = 0.0
    for row in values:
        scale = max(float(row.mean()), 1e-3 * vmax)
        worst = max(worst, float(row.max() - row.min()) / scale)
    checks.append(CheckResult("contour-row-constancy", worst, 1e-9,
                              detail="(max - min) / row scale, every fixed-a row"))

    worst = 0.0
    pairs = 0
    for i, av in enumerate(axis):
        if av <= 0:
            continue
        hits = np.flatnonzero(np.abs(axis - 2.0 * av) <= 1e-12 * max(1.0, 2.0 * av))
        for k in hits:
            pairs += 1
            num = np.abs(values[k] - 2.0 * values[i])
            worst = max(worst, float(np.max(num / values[i])))
    checks.append(CheckResult("contour-column-linearity", worst, 1e-9,
                              detail=f"|v(2a, b) - 2 v(a, b)| / v(a, b) over {pairs} doubling pairs"))

    zero_rows = np.flatnonzero(axis == 0.0)
    measured = float(max((values[i].max() for i in zero_rows), default=0.0))
    checks.append(CheckResult("contour-zero-row", measured, 1e-9 * max(vmax, 1.0),
                              detail="a = 0 row against the grid scale"))
    return checks


@dataclass
class VerificationReport:
    checks: list = field(default_factory=list)
    dim_rows: list = field(default_factory=list)
    rmse: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


def full_battery(root_seed: int, net_spec: NetworkSpec | None = None,
                 basis: np.ndarray | None = None,
                 geometry_count: int = 50, trials: int = 1000,
                 include_geometry_sweep: bool = True) -> VerificationReport:
    """Run every invariant battery and collect one report.

    When the (n, d) `basis` is given it is used (after integrity checks) as
    the first layer's harmless basis instead of being recomputed,
    which lets a stored basis file be validated against the network. One
    decide_rank call gives the nullity those checks hold d to and, when
    no basis is given, the basis.
    """
    report = VerificationReport()

    if include_geometry_sweep:
        geometries = cited_geometries(root_seed) + seeded_geometries(root_seed, geometry_count)
        rows, check = dimension_agreement(geometries)
        report.dim_rows = rows
        report.checks.append(check)
        report.checks.append(lowering_residuals(geometries, root_seed))
        # release the sweep's lowerings before the first layer is factored
        del geometries

    net = seeded_network(root_seed, net_spec)
    a1 = build_equivalent(net.layers[0])
    decision = decide_rank(a1, with_basis=basis is None)
    if basis is None:
        basis = decision.basis
    report.checks.extend(basis_integrity(a1, basis, decision.nullity))

    if all(c.passed for c in report.checks[-3:]) and basis.shape[1] > 0:
        report.rmse, rmse_checks = rmse_table(net, basis, root_seed)
        report.checks.extend(rmse_checks)

        axis = np.linspace(0.0, 2.0, 21)
        report.checks.extend(contour_checks(axis, build_contour(a1, basis, root_seed, axis)))

    report.checks.extend(least_harmful_minimality(root_seed))
    report.checks.extend(decomposition_laws(root_seed, trials=trials))
    return report


@dataclass
class PrivacyBatteryResult:
    rows: list
    result: PrivacyResult
    reconstructions: np.ndarray  # (B, n_recon, *input_shape)
    originals: np.ndarray
    checks: list

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


def privacy_battery(net, u: np.ndarray, root_seed: int,
                    n_images: int = 20, n_recon: int = 16,
                    images: list | None = None) -> PrivacyBatteryResult:
    """Scramble seeded images inside span(u), u the (n, d) harmless basis
    of net's first layer, and verify the output-invariance contract.

    All images are scrambled in one batched ascent, which never runs the
    network; the clean and the scrambled batch then run through it as
    two forward calls of B images each. Per image: argmax
    agreement, output deviation <= 1e-9, bound violation <= 0.01, mse >=
    0.05, and n_recon >= 2 sampled reconstructions that all share
    the scrambled image's output while being pairwise distinct. SSIM
    against the original and against a Gaussian-noised image of matched
    l2 distortion is recorded for reporting, not asserted.
    """
    if images is None:
        images = [synthetic_image(subseed(root_seed, 9, i), net.input_shape)
                  for i in range(n_images)]
    if len(images) < 1:
        raise ValueError(f"the privacy battery needs at least 1 image, got {len(images)}")
    if n_recon < 2:
        raise ValueError("the privacy battery needs at least 2 reconstructions per image "
                         f"to compare, got {n_recon}")
    originals = np.asarray(images, dtype=np.float64)
    clean_logits = forward(net, originals)
    res = maximize_dissimilarity(originals, u, PrivacyConfig(),
                                 [subseed(root_seed, 9, i, 1) for i in range(len(originals))])
    scrambled_logits = forward(net, res.image)
    output_deviation = np.abs(scrambled_logits - clean_logits).max(axis=1)
    agree = scrambled_logits.argmax(axis=1) == clean_logits.argmax(axis=1)
    argmax_bad = len(agree) - int(agree.sum())
    reconstructions = sample_reconstructions(
        res.image, u, n_recon, [subseed(root_seed, 9, i, 3) for i in range(len(originals))])
    pairs = np.triu_indices(n_recon, 1)
    rows = []
    recon_min_dist = np.inf
    for i, (x, x_hat, recons) in enumerate(zip(originals, res.image, reconstructions)):
        score = ssim(x, x_hat)
        noise = make_rng(root_seed, 9, i, 2).standard_normal(x.shape)
        noise *= np.linalg.norm(x_hat - x) / np.linalg.norm(noise)
        gauss_score = ssim(x, x + noise)

        gaps = (recons[pairs[0]] - recons[pairs[1]]).reshape(len(pairs[0]), -1)
        recon_min_dist = min(recon_min_dist, float(np.linalg.norm(gaps, axis=1).min()))

        rows.append({
            "image": i,
            "mse": float(res.mse[i]),
            "ssim": score,
            "ssim_gaussian_matched": gauss_score,
            "output_deviation": float(output_deviation[i]),
            "max_bound_violation": float(res.max_bound_violation[i]),
            "argmax_agree": bool(agree[i]),
        })

    recon_logits = forward(net, reconstructions.reshape(-1, *net.input_shape))
    recon_dev = float(np.abs(recon_logits.reshape(len(originals), n_recon, -1)
                             - scrambled_logits[:, None]).max())
    worst_dev = float(output_deviation.max())
    worst_viol = float(res.max_bound_violation.max())
    min_mse = float(res.mse.min())
    checks = [
        CheckResult("privacy-argmax-agreement", float(argmax_bad), 0.0,
                    detail=f"{len(images) - argmax_bad}/{len(images)} images keep their class"),
        CheckResult("privacy-output-deviation", worst_dev, 1e-9),
        CheckResult("privacy-bound-violation", worst_viol, 0.01),
        CheckResult("privacy-mse-floor", min_mse, 0.05,
                    detail="lower bound: scrambling must move pixels", bound=">="),
        CheckResult("privacy-reconstruction-invariance", recon_dev, 1e-9,
                    detail=f"{n_recon} reconstructions per image share the scrambled output"),
        CheckResult("privacy-reconstruction-distinct", recon_min_dist, 0.0,
                    detail="lower bound: pairwise l2 distance between reconstructions",
                    bound=">"),
    ]
    return PrivacyBatteryResult(rows=rows, result=res, reconstructions=reconstructions,
                                originals=originals, checks=checks)
