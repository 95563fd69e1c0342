"""Acceptance criteria, one test per criterion.

Each test prints a single PASS/FAIL line (visible with pytest -s) and
asserts the criterion at its stated tolerance. The same checks run from
the command line via `nullspan verify` (criteria 1-6) and
`nullspan privacy` (criterion 7) with the same root seed.
"""

import time

import numpy as np
import pytest

from nullspan import linalg, network, verification
from nullspan.imaging import ssim, synthetic_image
from nullspan.layers import ConvLayerSpec, FcLayerSpec, Flatten, Relu, build_equivalent
from nullspan.linalg import CERTIFIED_PATH, RankDecision, certified_rank, rank_tolerance_bound
from nullspan.network import NetworkSpec, forward_from_layer, rmse_report
from nullspan.seeding import make_rng
from nullspan.subspace import EmptySubspaceError, classify_pair, harmless_basis
from nullspan.verification import (
    RMSE_SCALES,
    CheckResult,
    build_contour,
    cited_geometries,
    contour_checks,
    decomposition_laws,
    dimension_agreement,
    least_harmful_minimality,
    lowering_residuals,
    privacy_battery,
    rmse_table,
    seeded_geometries,
)

from conftest import ROOT_SEED, rotated_basis

GOLDEN_SSIM = -0.2792917758216363


def report(number, label, checks):
    failed = [c for c in checks if not c.passed]
    status = "PASS" if not failed else "FAIL"
    print(f"\nACCEPTANCE {number} ({label}): {status}", flush=True)
    for c in failed:
        print(f"  failed: {c.name} measured={c.measured!r} tolerance={c.tolerance!r} "
              f"{c.detail}", flush=True)
    assert not failed, f"criterion {number} violated: {[c.name for c in failed]}"


def test_check_result_passes_by_its_stated_bound():
    # passed is measured `bound` tolerance, so a check cannot test one bound
    # and report another.
    at = {b: CheckResult("c", 1.0, 1.0, bound=b).passed for b in ("<=", "<", ">=", ">")}
    assert at == {"<=": True, "<": False, ">=": True, ">": False}
    assert CheckResult("c", 0.5, 1.0).passed and not CheckResult("c", 2.0, 1.0).passed
    assert not CheckResult("c", float("nan"), 1.0).passed
    with pytest.raises(ValueError, match="bound"):
        CheckResult("c", 0.0, 1.0, bound="=<")


@pytest.fixture(scope="module")
def timed_geometries():
    # The samplers make each geometry's rank decision, so building the
    # geometries is part of the sweep's time budget.
    t0 = time.monotonic()
    geometries = cited_geometries(ROOT_SEED) + seeded_geometries(ROOT_SEED, 50)
    return geometries, time.monotonic() - t0


@pytest.fixture(scope="module")
def geometries(timed_geometries):
    return timed_geometries[0]


@pytest.fixture(scope="module")
def sweep(timed_geometries):
    geometries, elapsed = timed_geometries
    t0 = time.monotonic()
    rows, check = dimension_agreement(geometries)
    elapsed += time.monotonic() - t0
    return rows, check, elapsed


def test_criterion_1_rank_nullity_sweep(sweep):
    rows, check, elapsed = sweep
    checks = [check]
    assert len(rows) >= 50
    cites = {(r["in_dim"], r["out_dim"]): r for r in rows[:3]}
    assert cites[(3072, 2560)]["predicted"] == 512
    assert cites[(3072, 2560)]["numerical"] == 512
    assert cites[(784, 784)]["numerical"] == 0
    assert cites[(3072, 3072)]["predicted"] == 0
    assert cites[(3072, 3072)]["numerical"] == 0
    assert elapsed <= 60.0, f"sweep took {elapsed:.1f}s, budget 60s"
    report(1, "rank-nullity dimension sweep", checks)


def test_criterion_1_detail_is_deterministic(sweep):
    # The report must be byte-stable across runs, so no timing in the detail.
    _, check, _ = sweep
    assert check.detail == "53/53 geometries agree exactly"


def test_criterion_1_at_a_seed_that_drew_an_ill_conditioned_conv():
    # This seed draws conv 3x9x9->5x7x7 k3x3 s1 p0, with predicted nullity
    # 0, yet every kernel of that shape drops rank by 3: not
    # ill-conditioning but a generic rank drop (see test_layers.py's
    # test_generic_rank_drop_3x9x9_to_5x7x7_detected). The rank
    # certificate declines there, so the sampler resamples the draw.
    _, check = dimension_agreement(seeded_geometries(1010146033))
    assert check.passed, check.detail


@pytest.mark.parametrize("seed", [ROOT_SEED, 7])
def test_every_conv_draw_is_certified(seed, monkeypatch):
    conv = [(s, d) for s, _, d in seeded_geometries(seed) if isinstance(s, ConvLayerSpec)]
    assert len(conv) == 25
    assert all(d.path == CERTIFIED_PATH for _, d in conv)

    # With every draw certified, no other rule resamples a conv draw: each
    # conv index takes its attempt-0 generator.
    attempts = []

    def recording_make_rng(*key):
        if key[1] == 2 and len(key) == 4:
            attempts.append(key[2:])
        return make_rng(*key)

    monkeypatch.setattr(verification, "make_rng", recording_make_rng)
    monkeypatch.setattr(verification, "certified_rank",
                        lambda m: RankDecision(0, 0, CERTIFIED_PATH, {}))
    seeded_geometries(seed)
    assert attempts == [(i, 0) for i in range(0, 50, 2)]


def counted_svds(monkeypatch) -> list:
    """Shapes of the matrices that reach LAPACK's SVD from now on."""
    shapes = []
    lapack_svd = linalg._lapack_svd

    def counted(m, **kw):
        shapes.append(m.shape)
        return lapack_svd(m, **kw)

    monkeypatch.setattr(linalg, "_lapack_svd", counted)
    return shapes


@pytest.mark.parametrize("seed, resampled", [(ROOT_SEED, 1), (7, 4)])
def test_resampled_conv_draws_run_no_svd(seed, resampled, monkeypatch):
    # The sweep asks the certificate alone, so a conv draw it resamples
    # costs no SVD. Every fc draw at these seeds certifies, so none runs.
    svds = counted_svds(monkeypatch)
    declined = []

    def recording_certified_rank(m):
        decision = certified_rank(m)
        if decision is None:
            declined.append(m.shape)
        return decision

    monkeypatch.setattr(verification, "certified_rank", recording_certified_rank)
    seeded_geometries(seed)
    assert len(declined) == resampled
    assert svds == []


def test_every_conv_draw_declined_raises_without_svd(monkeypatch):
    svds = counted_svds(monkeypatch)
    draws = []

    def declined(m):
        draws.append(m.shape)
        return None

    monkeypatch.setattr(verification, "certified_rank", declined)
    with pytest.raises(RuntimeError,
                       match="no conv geometry drawn in 100 attempts had a certified rank"):
        seeded_geometries(ROOT_SEED, count=1)
    assert len(draws) == 100
    assert svds == []


def test_certificate_evidence_is_the_tolerance_bound(geometries):
    # tau_ub is rank_tolerance_bound of the lowered matrix bit for bit, and
    # sigma_min_lower its margin multiple, on every sweep geometry.
    assert all(decision.path == CERTIFIED_PATH for _, _, decision in geometries)
    for spec, a, decision in geometries:
        assert (a != build_equivalent(spec)).nnz == 0
        tau_ub = rank_tolerance_bound(a)
        p = min(a.shape)
        assert decision.evidence == {"sigma_min_lower": (2.0 + 2.0 * p * np.sqrt(p)) * tau_ub,
                                     "tau_ub": tau_ub}


def test_criterion_2_lowering_oracle(geometries):
    check = lowering_residuals(geometries, ROOT_SEED)
    report(2, "lowering equivalence <= 1e-12", [check])


def test_full_battery_lowers_each_geometry_once(monkeypatch):
    # The sweep checks the very matrix its rank decision was made on, so no
    # layer spec is lowered twice in a whole battery.
    lowered = []

    def recording_build_equivalent(spec):
        lowered.append(spec)  # keeps every spec alive, so ids stay distinct
        return build_equivalent(spec)

    monkeypatch.setattr(verification, "build_equivalent", recording_build_equivalent)
    net = NetworkSpec(input_shape=(3, 8, 8),
                      layers=(ConvLayerSpec(3, 8, 8, 2, 3, 3, stride=1, zero_padding=1),
                              Relu(), Flatten(), FcLayerSpec(128, 6)))
    report = verification.full_battery(ROOT_SEED, net_spec=net, geometry_count=4, trials=10)
    assert len(report.dim_rows) == 7
    ids = [id(spec) for spec in lowered]
    assert len(ids) >= 7 and len(set(ids)) == len(ids)


def test_criterion_3_harmless_invariance(default_net, first_layer_basis):
    rmse, checks = rmse_table(default_net, first_layer_basis, ROOT_SEED)
    assert rmse["harmless"].shape == (len(RMSE_SCALES),)
    assert np.all(rmse["harmless"] <= 1e-10)
    # One measured value covers both halves: the first Gaussian RMSE is
    # positive and every step up from it is.
    growing = next(c for c in checks if c.name == "rmse-gaussian-positive-growing")
    gaussian = rmse["gaussian"]
    assert growing.measured == min(gaussian[0], np.diff(gaussian).min())
    report(3, "harmless/gaussian/least-harmful logit RMSE", checks)


def test_rmse_table_runs_one_forward_call_per_injection_point(monkeypatch, default_net,
                                                             first_layer_basis):
    # The clean rows of each injection point share a call with every
    # perturbed row they are compared with, so both were rounded at one
    # batch size: layer 0 (harmless and gaussian), then the probe layer
    # (least-harmful and gaussian-feature). argmax-invariance reads the
    # first call, not a forward pass of its own.
    calls = []

    def recording_forward_from_layer(net, layer_index, z):
        calls.append((layer_index, len(z)))
        return forward_from_layer(net, layer_index, z)

    def no_forward(*args, **kwargs):
        raise AssertionError("rmse_table ran forward")

    monkeypatch.setattr(network, "forward_from_layer", recording_forward_from_layer)
    monkeypatch.setattr(network, "forward", no_forward)
    monkeypatch.setattr(verification, "forward", no_forward)
    rmse_table(default_net, first_layer_basis, ROOT_SEED)
    rows = 8 * (1 + 2 * len(RMSE_SCALES))
    assert calls == [(0, rows), (2, rows)]


def test_argmax_invariance_reads_the_harmless_rows(monkeypatch, default_net,
                                                   first_layer_basis):
    # With the harmless direction swapped for a large Gaussian one, the
    # check counts that direction's top-1 changes: the rows it reads are
    # the harmless ones, not the Gaussian or the clean ones.
    def gaussian_instead(u, seed, target_norm):
        z = np.random.default_rng(seed).standard_normal(u.shape[0])
        return z * (100 * target_norm / np.max(np.abs(z)))

    reports = []

    def recording_rmse_report(*args):
        reports.append(rmse_report(*args))
        return reports[-1]

    monkeypatch.setattr(verification, "sample_harmless", gaussian_instead)
    monkeypatch.setattr(verification, "rmse_report", recording_rmse_report)
    _, checks = rmse_table(default_net, first_layer_basis, ROOT_SEED)
    argmax = next(c for c in checks if c.name == "argmax-invariance")
    harmless_flips, gaussian_flips = reports[0][1].sum(axis=1)
    assert not argmax.passed and argmax.measured == harmless_flips
    assert harmless_flips > gaussian_flips
    total = 8 * len(RMSE_SCALES)
    assert argmax.detail == f"{total - harmless_flips}/{total} class predictions unchanged"


def test_criterion_4_least_harmful(root_seed):
    checks = least_harmful_minimality(root_seed)
    report(4, "least harmful residual and minimality", checks)


def test_criterion_5_decomposition_laws(root_seed):
    checks = decomposition_laws(root_seed, trials=1000)
    report(5, "decomposition and family laws, 1000 trials each", checks)


def test_decomposition_laws_depend_on_the_span_only(root_seed, monkeypatch):
    # Harmless perturbations are drawn in pixel space and projected, so a
    # rotated, column-permuted basis of the same subspace gives the same
    # perturbation pairs to classify, the same law-minimal-norm and the
    # same verdicts. (law-minimal-norm alone cannot tell: ||U c|| = ||c||
    # for any orthonormal U, so it never depended on the basis.)
    def run():
        pairs = []

        def recording_classify_pair(u, delta, delta_hat):
            pairs.append(np.concatenate([delta, delta_hat]))
            return classify_pair(u, delta, delta_hat)

        with monkeypatch.context() as m:
            m.setattr(verification, "classify_pair", recording_classify_pair)
            return decomposition_laws(root_seed, trials=200), np.array(pairs)

    reference, reference_pairs = run()
    monkeypatch.setattr(verification, "harmless_basis",
                        lambda a: rotated_basis(harmless_basis(a), 3))
    rotated, rotated_pairs = run()
    assert [(c.name, c.passed, c.detail) for c in rotated] == \
        [(c.name, c.passed, c.detail) for c in reference]
    ref, rot = (next(c.measured for c in checks if c.name == "law-minimal-norm")
                for checks in (reference, rotated))
    assert abs(rot - ref) <= 1e-12 * ref
    gaps = np.linalg.norm(rotated_pairs - reference_pairs, axis=1)
    assert np.all(gaps <= 1e-12 * np.linalg.norm(reference_pairs, axis=1))


def test_criterion_6_contour(first_layer_a, first_layer_basis):
    axis = np.linspace(0.0, 2.0, 21)
    values = build_contour(first_layer_a, first_layer_basis, ROOT_SEED, axis)
    assert values.shape == (21, 21)
    report(6, "contour row constancy and linearity", contour_checks(axis, values))


def test_contour_of_an_empty_subspace_raises_empty_subspace_error():
    a = build_equivalent(FcLayerSpec(3, 3, weight=np.eye(3)))
    with pytest.raises(EmptySubspaceError, match="nontrivial harmless subspace"):
        build_contour(a, np.zeros((3, 0)), ROOT_SEED, np.linspace(0.0, 2.0, 3))


def test_criterion_7_privacy(default_net, first_layer_basis):
    battery = privacy_battery(default_net, first_layer_basis, ROOT_SEED,
                              n_images=20, n_recon=16)
    assert len(battery.rows) == 20
    report(7, "output-invariant scrambling on 20 images", battery.checks)


def test_criterion_8_ssim():
    x = synthetic_image(11, (3, 16, 16))
    y = synthetic_image(12, (3, 16, 16))
    ok_self = ssim(x, x) == 1.0
    ok_sym = abs(ssim(x, y) - ssim(y, x)) <= 1e-12
    ok_golden = abs(ssim(x, y) - GOLDEN_SSIM) <= 1e-12
    status = "PASS" if (ok_self and ok_sym and ok_golden) else "FAIL"
    print(f"\nACCEPTANCE 8 (ssim exactness, symmetry, golden value): {status}",
          flush=True)
    assert ok_self and ok_sym and ok_golden
