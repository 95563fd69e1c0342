"""Self-test of the benchmark itself (about six minutes on two cores).

Usage, from the root of a source checkout:
    python3 bench/selftest.py

Checks, stopping at the first failure with a nonzero exit:
  1. A traced run of each workload at seed 1234 reproduces the exact call
     counts below. A count that drifts means the tracer missed a binding
     (the package imports functions by name into several modules) or the
     program now does different work.
  2. Every oracle passes on every workload at seeds 1234 (traced run) and
     7 (untraced run), so a later claim can be re-checked on a seed it was
     not tuned on.
  3. Every run reports exactly the metrics BENCHMARK.json declares.
  4. rank_oracle.py's independent lowering reproduces nullspan's lowered
     matrices bit for bit at both seeds, so the oracle and the CLI factor
     the same matrix.
"""

from __future__ import annotations

import json
import sys

import numpy as np

import run

EXPECTED_COUNTS = {
    "verify": {"linalg.singular_values.calls": 54, "linalg.svd.calls": 2,
               "linalg.smallest_eigenpair_gram.calls": 11},
    "privacy": {"privacy.maximize_dissimilarity.calls": 20,
                "privacy.iterations": 46000, "linalg.svd.calls": 1},
    "rank-sweep": {"linalg.singular_values.calls": 9},
}
TRACED_SEED = 1234
SECOND_SEED = 7


def check_lowering(seed: int) -> None:
    from nullspan.layers import ConvLayerSpec, build_equivalent
    from rank_oracle import sweep_kernels, sweep_matrix

    c, h, w = run.SWEEP_SHAPE
    for index, c_out in enumerate(run.SWEEP_OUT_CHANNELS):
        kernels = sweep_kernels(seed, index, c_out)
        spec = ConvLayerSpec(in_channels=c, in_height=h, in_width=w, out_channels=c_out,
                             kernel_h=run.SWEEP_KERNEL, kernel_w=run.SWEEP_KERNEL,
                             stride=run.SWEEP_STRIDE, zero_padding=run.SWEEP_PAD,
                             kernels=kernels)
        if not np.array_equal(sweep_matrix(kernels), build_equivalent(spec).matrix.toarray()):
            raise SystemExit(f"oracle lowering differs from nullspan at {c_out} kernels")
    print(f"ok: oracle lowering matches nullspan on all {len(run.SWEEP_OUT_CHANNELS)} "
          f"rank-sweep geometries at seed {seed}")


def check_metric_names(result: dict, declared: list[dict]) -> None:
    names = [m["name"] for m in declared]
    if list(result["metrics"]) != names:
        raise SystemExit(f"metrics {list(result['metrics'])} differ from BENCHMARK.json {names}")


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    for workload, counts in EXPECTED_COUNTS.items():
        result = run.run(workload, TRACED_SEED, seconds=0, trace=True)
        check_metric_names(result, declared["per_layer"])
        if not result["correct"]:
            raise SystemExit(f"{workload} at seed {TRACED_SEED}: {result['failed']} "
                             f"of {result['attempted']} operations failed")
        for name, want in counts.items():
            got = result["metrics"][name]["value"]
            if got != want:
                raise SystemExit(f"{workload}: {name} = {got}, expected {want}")
        print(f"ok: {workload} call counts at seed {TRACED_SEED}: {counts}")
    for workload in EXPECTED_COUNTS:
        result = run.run(workload, SECOND_SEED, seconds=0, trace=False)
        check_metric_names(result, declared["end_to_end"])
        if not result["correct"]:
            raise SystemExit(f"{workload} at seed {SECOND_SEED}: {result['failed']} "
                             f"of {result['attempted']} operations failed")
        print(f"ok: {workload} passes every oracle at seed {SECOND_SEED}")
    # Last, so the large matrices built here do not raise this process's peak
    # RSS, which the workload children above would inherit in their reports.
    for seed in (TRACED_SEED, SECOND_SEED):
        check_lowering(seed)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
