"""Acceptance criteria, one test per criterion.

Each test prints a single PASS/FAIL line (visible with pytest -s) and
asserts the criterion at its stated tolerance. The same checks run from
the command line via `nullspan verify` (criteria 1-6) and
`nullspan privacy` (criterion 7) with the same root seed.
"""

import time

import numpy as np
import pytest

from nullspan import verification
from nullspan.imaging import ssim, synthetic_image
from nullspan.layers import ConvLayerSpec, build_equivalent
from nullspan.linalg import CERTIFIED_PATH, RankDecision, rank_tolerance_bound
from nullspan.seeding import make_rng
from nullspan.subspace import classify_pair, harmless_basis
from nullspan.verification import (
    RMSE_SCALES,
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
    conv = [(s, d) for s, d in seeded_geometries(seed) if isinstance(s, ConvLayerSpec)]
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
    monkeypatch.setattr(verification, "decide_rank",
                        lambda m: RankDecision(0, 0, CERTIFIED_PATH, {}))
    seeded_geometries(seed)
    assert attempts == [(i, 0) for i in range(0, 50, 2)]


def test_certificate_evidence_is_the_tolerance_bound(geometries):
    # tau_ub is rank_tolerance_bound of the lowered matrix bit for bit, and
    # sigma_min_lower its margin multiple, on every sweep geometry.
    assert all(decision.path == CERTIFIED_PATH for _, decision in geometries)
    for spec, decision in geometries:
        a = build_equivalent(spec)
        tau_ub = rank_tolerance_bound(a)
        p = min(a.shape)
        assert decision.evidence == {"sigma_min_lower": (2.0 + 2.0 * p * np.sqrt(p)) * tau_ub,
                                     "tau_ub": tau_ub}


def test_criterion_2_lowering_oracle(geometries):
    check = lowering_residuals(geometries, ROOT_SEED)
    report(2, "lowering equivalence <= 1e-12", [check])


def test_criterion_3_harmless_invariance(default_net, first_layer_basis):
    rmse, checks = rmse_table(default_net, first_layer_basis, ROOT_SEED)
    assert rmse["harmless"].shape == (len(RMSE_SCALES),)
    assert np.all(rmse["harmless"] <= 1e-10)
    report(3, "harmless/gaussian/least-harmful logit RMSE", checks)


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
