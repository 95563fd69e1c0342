"""nullspan benchmark: three CLI workloads, end-to-end metrics, traced layer timings.

Usage, from the root of a source checkout (the package is run from ``src/``,
nothing needs installing):

    python3 bench/run.py --workload {verify,privacy,rank-sweep}
                         [--seed 1234] [--seconds 5] [--trace 0|1]

Each execution of a workload is a fresh ``python -m nullspan.cli ...``
subprocess; executions run one at a time, back to back, until ``--seconds``
have passed (at least one), with BLAS at the machine's default thread count.
Every execution's report is checked by an oracle (see NOTES.md).

``--trace 0`` reports the end-to-end metrics: wall time, set-up time, child
CPU time, child peak RSS, the share of operations that passed and the mean
scrambling MSE. ``--trace 1`` measures untraced executions as usual, then runs
the same command once more under bench/traced_cli.py and reports per-layer
call counts and self times, with the tracing overhead and coverage.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
print every metric with its unit and the provenance of the run.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TRACED_CLI = Path(__file__).resolve().parent / "traced_cli.py"
RANK_ORACLE = Path(__file__).resolve().parent / "rank_oracle.py"

# Set-up is sampled half before and half after the executions, so that one
# burst of load on the machine does not decide the median.
SETUP_REPEATS = 10
# Every child still running this long after the run starts is killed, so that
# a run ends within 180 s even when the program hangs.
RUN_DEADLINE_S = 170.0

VERIFY_CHECKS = (
    "dimension-agreement", "lowering-residual", "basis-orthonormality",
    "basis-annihilation", "rmse-harmless", "rmse-gaussian-positive-growing",
    "rmse-least-harmful-growing", "rmse-least-harmful-below-gaussian",
    "argmax-invariance", "contour-row-constancy", "contour-column-linearity",
    "contour-zero-row", "least-harmful-residual", "least-harmful-minimality",
    "law-arbitrary-split", "law-orthogonal-output", "law-reconstruction",
    "law-basis-independence", "law-harmless-zero-output", "law-minimal-norm",
    "law-pair-classification", "law-zero-nullity-injective",
)
PRIVACY_CHECKS = (
    "privacy-argmax-agreement", "privacy-output-deviation", "privacy-bound-violation",
    "privacy-mse-floor", "privacy-reconstruction-invariance",
    "privacy-reconstruction-distinct",
)
PRIVACY_IMAGES = 20

# rank-sweep geometry: stride-2 3x3 convolutions with padding 1 on a
# 3x24x24 input. 11-13 kernels sit next to the polyphase count 3*2*2 = 12
# and 14/16 kernels starve the boundary windows, so 5 of the 9 rows lie
# outside the regime where the dimension formula is guaranteed.
SWEEP_SHAPE = (3, 24, 24)
SWEEP_STRIDE = 2
SWEEP_KERNEL = 3
SWEEP_PAD = 1
SWEEP_OUT_CHANNELS = (2, 4, 8, 10, 11, 12, 13, 14, 16)

WORKLOAD_ARGS = {
    "verify": ["verify"],
    "privacy": ["privacy"],
    "rank-sweep": [
        "dim-sweep", "--kind", "conv",
        "--in-shape", ",".join(map(str, SWEEP_SHAPE)),
        "--strides", str(SWEEP_STRIDE), "--kernel", str(SWEEP_KERNEL),
        "--pad", str(SWEEP_PAD),
        "--out-channels", ",".join(map(str, SWEEP_OUT_CHANNELS)),
    ],
}

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "cpu_s": "s", "peak_rss_mb": "MB",
                    "passed_frac": "ratio", "mse_mean": "ratio"}

# Traced functions reported one by one, and whether their call count is too.
REPORTED_FUNCTIONS = (
    ("linalg.singular_values", True),
    ("linalg.svd", True),
    ("linalg.orthonormal_nullspace", False),
    ("linalg.smallest_eigenpair_gram", True),
    ("layers.build_equivalent", True),
    ("layers.verify_equivalence", False),
    ("layers.conv_forward", True),
    ("subspace.harmless_basis", False),
    ("subspace.least_harmful", False),
    ("subspace.classify_pair", True),
    ("network.forward", True),
    ("network.forward_from_layer", True),
    ("privacy.maximize_dissimilarity", True),
    ("privacy.sample_reconstructions", False),
    ("imaging.ssim", True),
    ("imaging.write_ppm", True),
    ("verification.dimension_agreement", False),
    ("verification.lowering_residuals", False),
    ("verification.rmse_table", False),
    ("verification.least_harmful_minimality", False),
    ("verification.decomposition_laws", False),
    ("verification.build_contour", False),
    ("verification.privacy_battery", False),
)
# build_equivalent only dispatches to the two lowering routines, so its busy
# time includes theirs.
BUSY_INCLUDES = {"layers.build_equivalent": ("layers.build_conv_equivalent",
                                             "layers.build_fc_equivalent")}
LAYERS = ("linalg", "layers", "subspace", "network", "privacy", "imaging", "verification")


@dataclass
class Execution:
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    attempted: int
    failed: int
    mse_mean: float | None
    out_bytes: int


# --- oracles ---------------------------------------------------------------

def _load_json(path: Path):
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return None


def _failed_checks(doc, names) -> list[str]:
    """Expected checks that are missing or not passed in a report, each as
    its name and the report's detail."""
    checks = doc.get("checks") if isinstance(doc, dict) else None
    if not isinstance(checks, list):
        return [f"{name}: no report" for name in names]
    found = {c.get("name"): c for c in checks if isinstance(c, dict)}
    return [f"{name}: {found[name].get('detail') if name in found else 'missing'}"
            for name in names if found.get(name, {}).get("passed") is not True]


def check_verify(out: Path, expected) -> tuple[int, list[str], float | None]:
    return len(VERIFY_CHECKS), _failed_checks(_load_json(out / "verify_report.json"),
                                              VERIFY_CHECKS), None


def check_privacy(out: Path, expected) -> tuple[int, list[str], float | None]:
    doc = _load_json(out / "privacy_report.json")
    images = doc.get("images") if isinstance(doc, dict) else None
    try:
        mses = [float(row["mse"]) for row in images]
    except (TypeError, KeyError, ValueError):
        mses = []
    if len(mses) != PRIVACY_IMAGES:
        return len(PRIVACY_CHECKS), [f"{name}: report does not list {PRIVACY_IMAGES} images"
                                     for name in PRIVACY_CHECKS], None
    return len(PRIVACY_CHECKS), _failed_checks(doc, PRIVACY_CHECKS), statistics.fmean(mses)


def check_rank_sweep(out: Path, expected) -> tuple[int, list[str], float | None]:
    rows = _load_json(out / "dim_sweep.json")
    if not isinstance(rows, list) or len(rows) != len(expected):
        return len(expected), [f"row {i}: no report" for i in range(len(expected))], None
    failures = []
    for i, (row, want) in enumerate(zip(rows, expected)):
        got = (row.get("in_dim"), row.get("out_dim"), row.get("numerical")) \
            if isinstance(row, dict) else None
        if got != want:
            failures.append(f"row {i}: (in_dim, out_dim, nullity) {got}, oracle {want}")
    return len(expected), failures, None


def rank_oracle(seed: int, deadline: float) -> list[tuple[int, int, int]]:
    """Expected (in_dim, out_dim, nullity) per rank-sweep row, computed in a
    separate process so this process stays small: a child's peak RSS as the
    kernel reports it is at least its parent's peak RSS."""
    proc = subprocess.run([sys.executable, str(RANK_ORACLE), str(seed)], cwd=ROOT,
                          env=child_env(), capture_output=True, text=True,
                          timeout=max(0.0, deadline - time.monotonic()), check=True)
    return [tuple(row) for row in json.loads(proc.stdout)]


CHECKERS = {"verify": check_verify, "privacy": check_privacy, "rank-sweep": check_rank_sweep}


# --- executions ------------------------------------------------------------

def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def spawn(cmd: list[str], stderr_path: Path, deadline: float) -> tuple[float, float, float, int]:
    """Run cmd to completion, killing it at the monotonic-clock deadline;
    return (wall s, user+sys CPU s, peak RSS MB, exit code)."""
    with open(stderr_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(),
                                stdout=subprocess.DEVNULL, stderr=err)
        killer = threading.Timer(max(0.0, deadline - time.monotonic()), proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0, proc.returncode


def execute(workload: str, seed: int, work: Path, expected, deadline: float,
            spans: Path | None = None) -> Execution:
    out = work / "out"
    shutil.rmtree(out, ignore_errors=True)
    args = [*WORKLOAD_ARGS[workload], "--seed", str(seed), "--format", "json",
            "--out", str(out)]
    if spans is None:
        cmd = [sys.executable, "-m", "nullspan.cli", *args]
    else:
        cmd = [sys.executable, str(TRACED_CLI), str(spans), "--", *args]
    wall, cpu, rss, code = spawn(cmd, work / "stderr.txt", deadline)
    attempted, failures, mse = CHECKERS[workload](out, expected)
    failed = len(failures)
    if failures:
        print(f"{workload} at seed {seed}: {failed} of {attempted} operations failed:\n  "
              + "\n  ".join(failures), file=sys.stderr)
    if code != 0:
        failed = attempted
        tail = (work / "stderr.txt").read_text(errors="replace")[-2000:]
        print(f"{workload} exited with code {code}, so every operation counts as failed:\n"
              f"{tail}", file=sys.stderr)
    out_bytes = sum(p.stat().st_size for p in out.rglob("*") if p.is_file()) \
        if out.is_dir() else 0
    return Execution(wall, cpu, rss, attempted, failed, mse, out_bytes)


def import_times(work: Path, repeats: int, deadline: float) -> list[float]:
    """Wall times of fresh interpreters importing nullspan.cli."""
    cmd = [sys.executable, "-c", "import nullspan.cli"]
    times = []
    for _ in range(repeats):
        wall, _, _, code = spawn(cmd, work / "stderr.txt", deadline)
        if code != 0:
            raise RuntimeError("importing nullspan.cli failed:\n"
                               + (work / "stderr.txt").read_text(errors="replace"))
        times.append(wall)
    return times


# --- metrics ---------------------------------------------------------------

def end_to_end_metrics(runs: list[Execution], setup: list[float]) -> dict:
    attempted = sum(r.attempted for r in runs)
    failed = sum(r.failed for r in runs)
    mses = [r.mse_mean for r in runs if r.mse_mean is not None]
    values = {
        "wall_s": statistics.median(r.wall_s for r in runs),
        "setup_s": statistics.median(setup),
        "cpu_s": statistics.median(r.cpu_s for r in runs),
        "peak_rss_mb": statistics.median(r.peak_rss_mb for r in runs),
        "passed_frac": (attempted - failed) / attempted,
        # Only privacy scrambles images; elsewhere the neutral 1.0 stands in.
        "mse_mean": statistics.median(mses) if mses else 1.0,
    }
    return {name: {"value": value, "unit": END_TO_END_UNITS[name]}
            for name, value in values.items()}


def per_layer_metrics(spans: dict, traced: Execution, untraced: list[Execution]) -> dict:
    functions = spans["functions"]
    counters = spans["counters"]
    metrics = {}

    def put(name, value, unit):
        metrics[name] = {"value": value, "unit": unit}

    idle = {"calls": 0, "self_s": 0.0}
    for name, with_calls in REPORTED_FUNCTIONS:
        if with_calls:
            put(f"{name}.calls", functions.get(name, idle)["calls"], "count")
        put(f"{name}.busy_s", sum(functions.get(source, idle)["self_s"]
                                  for source in (name, *BUSY_INCLUDES.get(name, ()))), "s")
    for layer in LAYERS:
        put(f"{layer}.busy_s", sum(f["self_s"] for name, f in functions.items()
                                   if name.startswith(layer + ".")), "s")
    put("linalg.dense_mb", counters["linalg.dense_bytes"] / 2**20, "MB")
    iterations = counters["privacy.iterations"]
    optimizer_s = functions.get("privacy.maximize_dissimilarity", idle)["self_s"]
    put("privacy.iterations", iterations, "count")
    put("privacy.iter_ms", 1000.0 * optimizer_s / iterations if iterations else 0.0, "ms")
    put("privacy.useful_iter_frac",
        counters["privacy.useful_iterations"] / iterations if iterations else 0.0, "ratio")
    put("cli.out_bytes", traced.out_bytes, "bytes")
    untraced_wall = statistics.median(r.wall_s for r in untraced)
    put("trace.overhead_frac", traced.wall_s / untraced_wall - 1.0, "ratio")
    put("trace.coverage_frac",
        sum(f["self_s"] for f in functions.values()) / traced.wall_s, "ratio")
    return metrics


# --- provenance --------------------------------------------------------------

def blas_threads() -> int | None:
    """Thread count OpenBLAS uses in this process (children inherit the same
    environment, so the same default); None when it cannot be queried."""
    import numpy as np

    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in glob.glob(str(libdir / "*openblas*")):
        dll = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(dll, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def git_commit() -> str:
    """HEAD of the checkout read from .git; 'unknown' outside a git clone."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def provenance() -> dict:
    import numpy as np
    import scipy

    import nullspan

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nullspan": nullspan.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "blas_thread_env": {k: os.environ[k] for k in
                            ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS") if k in os.environ},
        "git_commit": git_commit(),
    }


# --- runs ------------------------------------------------------------------

def print_trace_shares(metrics: dict, spans: dict, traced_wall: float) -> None:
    """Each layer's and the busiest functions' share of the traced wall time."""
    print(f"  share of traced wall ({traced_wall:.3f} s) by layer: " + ", ".join(
        f"{layer} {metrics[layer + '.busy_s']['value'] / traced_wall:.1%}" for layer in LAYERS))
    busiest = sorted(spans["functions"].items(), key=lambda kv: -kv[1]["self_s"])[:6]
    print("  busiest functions: " + ", ".join(
        f"{name} {f['calls']} calls {f['self_s']:.2f} s ({f['self_s'] / traced_wall:.1%})"
        for name, f in busiest))


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Measure one workload; print its metrics and return the result object."""
    deadline = time.monotonic() + RUN_DEADLINE_S
    work = ROOT / ".bench_work" / str(os.getpid())
    work.mkdir(parents=True, exist_ok=True)
    try:
        expected = rank_oracle(seed, deadline) if workload == "rank-sweep" else None
        # The first import may compile bytecode, so it is not kept.
        setup = [] if trace else import_times(work, 1 + SETUP_REPEATS // 2, deadline)[1:]
        runs = []
        start = time.perf_counter()
        while not runs or time.perf_counter() - start < seconds:
            runs.append(execute(workload, seed, work, expected, deadline))
        if trace:
            traced = execute(workload, seed, work, expected, deadline,
                             spans=work / "spans.json")
            spans = _load_json(work / "spans.json")
            if spans is None:
                raise RuntimeError(f"traced {workload} run wrote no spans")
            metrics = per_layer_metrics(spans, traced, runs)
        else:
            setup += import_times(work, SETUP_REPEATS - SETUP_REPEATS // 2, deadline)
            metrics = end_to_end_metrics(runs, setup)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(f"workload {workload}, seed {seed}: untraced wall_s per execution: "
          + ", ".join(f"{r.wall_s:.3f}" for r in runs))
    if trace:
        print_trace_shares(metrics, spans, traced.wall_s)
        runs.append(traced)
    else:
        print("  setup_s samples: " + ", ".join(f"{t:.4f}" for t in setup))
    attempted = sum(r.attempted for r in runs)
    failed = sum(r.failed for r in runs)
    print(f"  {len(runs)} execution(s), {attempted} operations checked, {failed} failed")
    for name, m in metrics.items():
        print(f"  {name:45s} {m['value']:>16.6g} {m['unit']}")
    print("provenance " + json.dumps(provenance(), sort_keys=True))
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOAD_ARGS), required=True)
    parser.add_argument("--seed", type=int, default=1234)
    parser.add_argument("--seconds", type=float, default=5.0,
                        help="measure executions back to back for this long (at least one)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "nullspan" / "cli.py").is_file():
        print(f"no nullspan sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
