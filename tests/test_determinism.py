"""The determinism contract across BLAS thread counts and across bases.

Reports are byte-identical for one provenance (machine, BLAS library and
BLAS thread count). Under another BLAS thread count the check names,
verdicts, details and integers stay identical and floats move only by
rounding, within the per-field bounds below. The same bounds hold
between the computed first-layer basis and any other orthonormal basis
of its span given to verify --basis.

Measured between OPENBLAS_NUM_THREADS=1 and =2 at seed 1234 (OpenBLAS
0.3.31, 2-core x86-64): the staircase QR's GEMMs add in a thread-dependent
order, so the first layer's basis differs in its last bits. Only rounding
residuals of verify_report.json move, with and without the sweep, and in
privacy_report.json the ascent fields (MSE 7.8e-14 relative; 1.6e-13
while the ascent re-projected through the BLAS every ~266 iterations) and
the output deviations. Before the least-harmful direction of the sparse
second conv came from SuperLU and ARPACK instead of a dense eigh, its six
RMSE rows and the rmse-least-harmful-* checks differed by up to 8.1e-15
relative. The six runs take about 15 s on 2 cores, 6.7 s of them the two
full verify runs.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from nullspan.cli import main
from nullspan.subspace import save_basis

from conftest import rotated_basis

REPO = Path(__file__).resolve().parents[1]

RUNS = {
    "verify": (["verify", "--skip-sweep", "--trials", "10"], "verify_report.json"),
    "verify-full": (["verify"], "verify_report.json"),
    "privacy": (["privacy", "--images", "2", "--recon", "2"], "privacy_report.json"),
}

# Relative bound of every float not listed below; largest difference
# measured: 0 (8.1e-15 in the least-harmful fields while a dense eigh
# computed that direction).
RELATIVE = 1e-12
# Fields the 2,300-iteration privacy ascent produces, where rounding
# compounds; measured: 7.8e-14 (an earlier coefficient-space ascent moved
# the MSE by 3.3e-10 and the bound violation by 4.3e-5 relative).
ASCENT_RELATIVE = {"mse": 1e-9, "ssim": 1e-9, "ssim_gaussian_matched": 1e-9,
                   "privacy-mse-floor": 1e-9, "privacy-reconstruction-distinct": 1e-9,
                   "max_bound_violation": 1e-3, "privacy-bound-violation": 1e-3}
# Rounding residuals, zero in exact arithmetic, where a relative bound
# means nothing: each may move by a thousandth of its check's tolerance.
# Largest value measured: 5.6e-13 (contour-row-constancy, tolerance 1e-9).
NOISE_CHECKS = {"basis-orthonormality", "basis-annihilation", "rmse-harmless",
                "contour-row-constancy", "contour-column-linearity", "contour-zero-row",
                "least-harmful-residual", "law-arbitrary-split", "law-orthogonal-output",
                "law-reconstruction", "law-basis-independence", "law-harmless-zero-output",
                "privacy-output-deviation", "privacy-reconstruction-invariance"}
# The same residuals per row: harmless RMSE (rmse-harmless tolerance 1e-10)
# and per-image output deviation (privacy-output-deviation tolerance 1e-9).
NOISE_ROWS = {"harmless": 1e-13, "output_deviation": 1e-12}


def run(command, threads, out):
    args, report = RUNS[command]
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads))
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(REPO / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", "nullspan.cli", *args, "--seed", "1234",
         "--format", "json", "--out", str(out)],
        env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads((out / report).read_text())


def bounds(field, row):
    """(relative bound, absolute floor) of one float; field is the check
    name, RMSE kind or row key the float belongs to."""
    if field in NOISE_CHECKS:
        return 0.0, 1e-3 * row["tolerance"]
    if field in NOISE_ROWS:
        return 0.0, NOISE_ROWS[field]
    return ASCENT_RELATIVE.get(field, RELATIVE), 0.0


def assert_same(x, y, path, field=None, row=None):
    assert type(x) is type(y), f"{path}: {x!r} vs {y!r}"
    if isinstance(x, dict):
        assert list(x) == list(y), path
        for key in x:
            # a check's measured value and an RMSE row's value take the
            # bound of the check or kind; every other float its own key's
            owner = x.get("name", x.get("kind")) if key in ("measured", "rmse") else key
            assert_same(x[key], y[key], f"{path}.{key}", owner, x)
    elif isinstance(x, list):
        assert len(x) == len(y), path
        for i, (a, b) in enumerate(zip(x, y)):
            assert_same(a, b, f"{path}[{i}]", field, row)
    elif isinstance(x, float):
        rel, floor = bounds(field, row)
        assert abs(x - y) <= rel * max(abs(x), abs(y)) + floor, f"{path}: {x!r} vs {y!r}"
    else:
        assert x == y, f"{path}: {x!r} vs {y!r}"


@pytest.mark.parametrize("command", list(RUNS))
def test_reports_agree_across_blas_thread_counts(command, tmp_path):
    one = run(command, 1, tmp_path / "one")
    two = run(command, 2, tmp_path / "two")
    assert one["passed"]
    assert_same(one, two, command)


def test_verify_depends_on_the_span_of_the_basis_only(first_layer_basis, tmp_path):
    # verify --basis with a rotated, column-permuted copy of the computed
    # basis draws the same harmless perturbations up to rounding, so its
    # report agrees with the computed basis's within the bounds above.
    save_basis(rotated_basis(first_layer_basis, 3), tmp_path / "rotated.nspb")
    args = ["verify", "--skip-sweep", "--trials", "10", "--seed", "1234", "--format", "json"]
    assert main([*args, "--out", str(tmp_path / "computed")]) == 0
    assert main([*args, "--basis", str(tmp_path / "rotated.nspb"),
                 "--out", str(tmp_path / "rotated")]) == 0
    computed, rotated = (json.loads((tmp_path / name / "verify_report.json").read_text())
                         for name in ("computed", "rotated"))
    assert_same(computed, rotated, "verify")
