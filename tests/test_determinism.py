"""The determinism contract across BLAS thread counts and across bases.

Every command runs at a BLAS thread count fixed in code (one thread, two
for the SVD fallback; linalg._blas_threads), so the files it writes are
byte-identical under OPENBLAS_NUM_THREADS=1 and =2. OpenBLAS 0.3.31 does
not clamp the pin to the count it started with: under
OPENBLAS_NUM_THREADS=1 a 1728 x 1728 SVD pinned to 2 threads ran at CPU
above wall and returned the bits of the same SVD at the default 2.

Another orthonormal basis of the harmless span, given to verify --basis,
gives the same check names, verdicts, details and integers, and floats
that agree within the per-field bounds below: it draws the same harmless
perturbations up to rounding. The six CLI runs take about 15 s on
2 cores, 6 s of them the two full verify runs.
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
    "verify": ["verify", "--skip-sweep", "--trials", "10"],
    "verify-full": ["verify"],
    "privacy": ["privacy", "--images", "2", "--recon", "2"],
}

# Relative bound of every float not listed below; largest difference
# measured for the rotated basis at seed 1234: 0.
RELATIVE = 1e-12
# Rounding residuals, zero in exact arithmetic, where a relative bound
# means nothing: each may move by a thousandth of its check's tolerance.
# Largest difference measured: 4.4e-16 (basis-orthonormality, tolerance
# 1e-12).
NOISE_CHECKS = {"basis-orthonormality", "basis-annihilation", "rmse-harmless",
                "contour-row-constancy", "contour-column-linearity", "contour-zero-row",
                "least-harmful-residual", "law-arbitrary-split", "law-orthogonal-output",
                "law-reconstruction", "law-basis-independence", "law-harmless-zero-output"}
# The same residuals per row: harmless RMSE (rmse-harmless tolerance 1e-10).
NOISE_ROWS = {"harmless": 1e-13}


def run(command, threads, out):
    """Every file one CLI run writes under OPENBLAS_NUM_THREADS=threads,
    by name."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads))
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(REPO / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", "nullspan.cli", *RUNS[command], "--seed", "1234",
         "--format", "json", "--out", str(out)],
        env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    return {p.name: p.read_bytes() for p in sorted(out.iterdir())}


def bounds(field, row):
    """(relative bound, absolute floor) of one float; field is the check
    name, RMSE kind or row key the float belongs to."""
    if field in NOISE_CHECKS:
        return 0.0, 1e-3 * row["tolerance"]
    if field in NOISE_ROWS:
        return 0.0, NOISE_ROWS[field]
    return RELATIVE, 0.0


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
    report = "privacy_report.json" if command == "privacy" else "verify_report.json"
    assert json.loads(one[report])["passed"]
    assert list(one) == list(two)
    assert [name for name in one if one[name] != two[name]] == []


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
