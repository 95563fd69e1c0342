"""Command-line harness.

Subcommands: lower, dim-sweep, verify, contour, privacy. Every command
takes an explicit --seed (no environment entropy) and an --out
directory; given the same arguments it writes byte-identical reports
for the same provenance (machine and BLAS library).
Floats in CSV files carry 17 significant digits so parsing them back
recovers the exact float64 value; JSON uses Python's shortest
round-trip float form.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import partial
from pathlib import Path

import numpy as np

from . import verification
from .layers import (
    _kind,
    build_equivalent,
    load_layer_json,
    predict_nullspace_dim,
    verify_equivalence,
)
from .linalg import _blas_threads, decide_rank
from .network import load_network_spec
from .imaging import SSIM_WINDOW, read_ppm, save_float_image, write_ppm
from .seeding import make_rng
from .subspace import harmless_basis, load_basis, save_basis
from .verification import (
    DIM_SWEEP_HEADER,
    RMSE_SCALES,
    CheckResult,
    default_network_spec,
    full_battery,
    privacy_battery,
)

__all__ = ["main"]


def _fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, float):
        return format(x, ".17g")
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    return str(x)


def _write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def _write_json(path: Path, doc) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def _write_checks_csv(path: Path, checks) -> None:
    _write_csv(path, ["name", "measured", "tolerance", "passed", "detail"],
               [[c.name, c.measured, c.tolerance, c.passed, c.detail] for c in checks])


def _check_dict(c: CheckResult) -> dict:
    return {"name": c.name, "passed": bool(c.passed), "measured": c.measured,
            "tolerance": c.tolerance, "detail": c.detail}


def _print_checks(checks) -> None:
    for c in checks:
        status = "PASS" if c.passed else "FAIL"
        print(f"[{status}] {c.name}: measured={_fmt(c.measured)} "
              f"tolerance={_fmt(c.tolerance)}" + (f" ({c.detail})" if c.detail else ""))


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


# --- lower ---------------------------------------------------------------

def cmd_lower(args) -> int:
    out = _out_dir(args)
    spec = args.layer
    a = build_equivalent(spec)
    decision = decide_rank(a)
    residual = verify_equivalence(a, spec, samples=args.samples, seed=args.seed)

    # build_equivalent's CSR has sorted indices: its COO is in (row, col) order
    coo = a.tocoo()
    _write_csv(out / "equivalent_matrix.csv", ["row", "col", "value"],
               [[int(r), int(c), float(v)] for r, c, v in zip(coo.row, coo.col, coo.data)])

    stats = {
        "layer_kind": _kind(spec),
        "rows": a.shape[0],
        "cols": a.shape[1],
        "nnz": a.nnz,
        "rank": decision.rank,
        "nullity": decision.nullity,
        "rank_path": decision.path,
        **decision.evidence,
        "predicted_dim": predict_nullspace_dim(spec),
        "verify_residual": residual,
        "samples": args.samples,
        "seed": args.seed,
    }
    if args.format == "json":
        _write_json(out / "lower_stats.json", stats)
    else:
        _write_csv(out / "lower_stats.csv", list(stats), [list(stats.values())])
    for k, v in stats.items():
        print(f"{k}: {_fmt(v)}")
    return 0


# --- dim-sweep -----------------------------------------------------------

def _sweep_rows(args, root_seed: int):
    """One nullity row per requested geometry. An invalid geometry is
    reported on stderr and gives an error row; the sweep continues."""
    if args.kind == "conv":
        c, h, w = args.in_shape
        in_dim, stream = c * h * w, 20
        build = partial(verification.seeded_conv, in_channels=c, in_height=h, in_width=w,
                        kernel_h=args.kernel, kernel_w=args.kernel, zero_padding=args.pad)
        params = [{"stride": s, "out_channels": n}
                  for s in args.strides for n in args.out_channels]
    else:
        in_dim, stream = args.in_features, 21
        build = partial(verification.seeded_fc, in_features=in_dim)
        params = [{"out_features": n} for n in args.out_features]

    rows = []
    for idx, p in enumerate(params):
        try:
            spec = build(make_rng(root_seed, stream, idx), **p)
            rows.append(verification.nullity_row(spec, verification.with_rank(spec)[2]))
        except ValueError as exc:
            label = ", ".join(f"{name}={value}" for name, value in p.items())
            print(f"skipping invalid geometry ({label}): {exc}", file=sys.stderr)
            rows.append([in_dim, "", "", "", "error"])
    return rows


def cmd_dim_sweep(args) -> int:
    out = _out_dir(args)
    rows = _sweep_rows(args, args.seed)
    if args.format == "json":
        _write_json(out / "dim_sweep.json",
                    [dict(zip(DIM_SWEEP_HEADER, row)) for row in rows])
    else:
        _write_csv(out / "dim_sweep.csv", list(DIM_SWEEP_HEADER), rows)
    for row in rows:
        print(",".join(_fmt(v) for v in row))
    return 0


# --- verify --------------------------------------------------------------

def cmd_verify(args) -> int:
    net_spec = args.net or default_network_spec()
    first = net_spec.layers[0]
    if len(net_spec.input_shape) != 3:
        args.usage_error(f"argument --net: verify needs a (C, H, W) input, "
                         f"but the network takes {net_spec.input_shape}")
    if args.basis is not None and args.basis.shape[0] != first.input_dim:
        args.usage_error(f"argument --basis: the basis has {args.basis.shape[0]} rows, "
                         f"but the first linear layer takes {first.input_dim} inputs")
    out = _out_dir(args)
    report = full_battery(args.seed, net_spec=net_spec, basis=args.basis,
                          geometry_count=args.geometries, trials=args.trials,
                          include_geometry_sweep=not args.skip_sweep)

    checks_doc = [_check_dict(c) for c in report.checks]
    rmse_rows = [[kind, scale, float(value)] for kind in sorted(report.rmse)
                 for scale, value in zip(RMSE_SCALES, report.rmse[kind])]
    if args.format == "json":
        doc = {
            "seed": args.seed,
            "passed": report.passed,
            "checks": checks_doc,
            "rmse": [{"kind": k, "scale": s, "rmse": v} for k, s, v in rmse_rows],
            "dim_sweep": report.dim_rows,
        }
        _write_json(out / "verify_report.json", doc)
    else:
        _write_checks_csv(out / "checks.csv", report.checks)
        _write_csv(out / "rmse.csv", ["kind", "scale", "rmse"], rmse_rows)
        if report.dim_rows:
            _write_csv(out / "dim_sweep.csv", list(DIM_SWEEP_HEADER),
                       [[r[k] for k in DIM_SWEEP_HEADER] for r in report.dim_rows])

    _print_checks(report.checks)
    if not report.passed:
        failed = sum(not c.passed for c in report.checks)
        print(f"{failed} check(s) FAILED", file=sys.stderr)
        return 1
    print("all checks passed")
    return 0


# --- contour -------------------------------------------------------------

def cmd_contour(args) -> int:
    out = _out_dir(args)
    spec = args.layer or verification.seeded_network(args.seed, None).layers[0]
    a = build_equivalent(spec)
    u = harmless_basis(a)
    if u.shape[1] == 0:
        print("layer has no harmless subspace; contour undefined", file=sys.stderr)
        return 1
    axis = np.linspace(0.0, args.axis_max, args.grid)
    values = verification.build_contour(a, u, args.seed, axis)
    checks = verification.contour_checks(axis, values)
    _print_checks(checks)
    header = ["a", "b", "value"]
    rows = [[float(x), float(y), float(values[i, j])]
            for i, x in enumerate(axis) for j, y in enumerate(axis)]
    if args.format == "json":
        _write_json(out / "contour.json", [dict(zip(header, row)) for row in rows])
    else:
        _write_csv(out / "contour.csv", header, rows)
    if not all(c.passed for c in checks):
        print("contour invariants FAILED", file=sys.stderr)
        return 1
    return 0


# --- privacy -------------------------------------------------------------

def cmd_privacy(args) -> int:
    net = verification.seeded_network(args.seed, args.net)
    c, *hw = net.input_shape
    if c != 3 or len(hw) != 2 or min(hw) < SSIM_WINDOW:
        args.usage_error(f"argument --net: privacy needs a (3, H, W) input with H, W >= "
                         f"{SSIM_WINDOW}, but the network takes {net.input_shape}")
    for i, image in enumerate(args.image_files or ()):
        if image.shape != net.input_shape:
            args.usage_error(f"argument --image-files: image {i} has shape {image.shape}, "
                             f"but the network takes {net.input_shape}")
    out = _out_dir(args)
    u = harmless_basis(build_equivalent(net.layers[0]))
    if u.shape[1] == 0:
        print("first layer has no harmless subspace; cannot scramble", file=sys.stderr)
        return 1

    battery = privacy_battery(net, u, args.seed, n_images=args.images, n_recon=args.recon,
                              images=args.image_files)
    save_basis(u, out / "first_layer_basis.nspb")

    for i, (x, x_hat, recons) in enumerate(zip(battery.originals, battery.result.image,
                                               battery.reconstructions)):
        stem = out / f"img{i:02d}"
        write_ppm(f"{stem}_original.ppm", x)
        pert = x_hat - x
        lo, hi = pert.min(), pert.max()
        view = (pert - lo) / (hi - lo) if hi > lo else np.zeros_like(pert)
        write_ppm(f"{stem}_perturbation.ppm", view)
        write_ppm(f"{stem}_scrambled.ppm", x_hat)
        save_float_image(f"{stem}_scrambled.f64", x_hat)
        for j, recon in enumerate(recons):
            write_ppm(f"{stem}_recon{j:02d}.ppm", recon)

    if args.format == "json":
        _write_json(out / "privacy_report.json",
                    {"seed": args.seed,
                     "passed": battery.passed,
                     "checks": [_check_dict(c) for c in battery.checks],
                     "images": battery.rows})
    else:
        _write_csv(out / "privacy_report.csv", list(battery.rows[0]),
                   [list(r.values()) for r in battery.rows])
        _write_checks_csv(out / "privacy_checks.csv", battery.checks)
    _print_checks(battery.checks)
    if not battery.passed:
        print("privacy checks FAILED", file=sys.stderr)
        return 1
    return 0


# --- parser --------------------------------------------------------------

def _at_least(low):
    """argparse type: an integer >= low; anything else is a usage error."""
    def integer(text):
        if int(text) < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {text}")
        return int(text)
    return integer


def _read(reader):
    """argparse type: the content of the file named by the argument, read by
    reader; a missing or malformed file is a usage error naming the cause."""
    def read(path):
        try:
            return reader(path)
        except (OSError, ValueError) as exc:
            raise argparse.ArgumentTypeError(f"{path}: {exc}") from None
    return read


def _load_net_geometry(path):
    """The network in a --net file, which gives geometry only: its weights
    are drawn from --seed, so a parameter array in the file is refused."""
    net = load_network_spec(path)
    for i, layer in enumerate(net.layers):
        for field in ("kernels", "weight", "bias"):
            if getattr(layer, field, None) is not None:
                raise ValueError(f"layer {i} sets {field!r}, but --seed draws the weights")
    return net


def _ints(text: str) -> list[int]:
    """argparse type: a comma list of integers; anything else is a usage error."""
    try:
        return [int(v) for v in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"must be a comma list of integers, got {text!r}") from None


def _chw(text: str) -> list[int]:
    """argparse type: exactly three comma-separated integers C,H,W."""
    values = _ints(text)
    if len(values) != 3:
        raise argparse.ArgumentTypeError(f"must be three integers C,H,W, got {text!r}")
    return values


def _positive(text):
    """argparse type: a finite float > 0; anything else is a usage error."""
    if not 0.0 < float(text) < np.inf:
        raise argparse.ArgumentTypeError(f"must be positive and finite, got {text}")
    return float(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nullspan",
        description="Nullspace analysis of linear network layers: lowering, "
                    "harmless subspaces, invariance verification, and "
                    "output-invariant image scrambling.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--seed", type=int, required=True,
                       help="root seed; all randomness derives from it")
        p.add_argument("--out", type=str, required=True, help="output directory")
        p.add_argument("--format", choices=("csv", "json"), default="csv")

    p = sub.add_parser("lower", help="lower a layer to its equivalent matrix")
    common(p)
    p.add_argument("--layer", type=_read(load_layer_json), required=True,
                   help="layer spec JSON path")
    p.add_argument("--samples", type=_at_least(1), default=100,
                   help="random inputs for the equivalence residual")
    p.set_defaults(func=cmd_lower)

    p = sub.add_parser("dim-sweep", help="predicted vs numerical nullspace dimension "
                                         "over a geometry family")
    common(p)
    p.add_argument("--kind", choices=("conv", "fc"), required=True)
    p.add_argument("--in-shape", type=_chw, default="3,32,32",
                   help="conv input C,H,W")
    p.add_argument("--out-channels", type=_ints, default="1,2,4,8,10,12,16",
                   help="comma list of kernel counts (conv)")
    p.add_argument("--strides", type=_ints, default="1,2", help="comma list (conv)")
    p.add_argument("--kernel", type=int, default=3, help="square kernel size (conv)")
    p.add_argument("--pad", type=int, default=1, help="zero padding (conv)")
    p.add_argument("--in-features", type=int, default=784, help="fc input width")
    p.add_argument("--out-features", type=_ints, default="98,196,392,784,1568",
                   help="comma list of fc output widths")
    p.set_defaults(func=cmd_dim_sweep)

    p = sub.add_parser("verify", help="run the full invariant battery")
    common(p)
    p.add_argument("--net", type=_read(_load_net_geometry), default=None,
                   help="network geometry JSON path")
    p.add_argument("--basis", type=_read(load_basis), default=None,
                   help="validate this stored basis instead of recomputing")
    p.add_argument("--geometries", type=_at_least(0), default=50,
                   help="seeded geometries in the dimension sweep")
    p.add_argument("--trials", type=_at_least(1), default=1000,
                   help="trials per decomposition law")
    p.add_argument("--skip-sweep", action="store_true",
                   help="skip the geometry sweep (fast smoke run)")
    p.set_defaults(func=cmd_verify, usage_error=p.error)

    p = sub.add_parser("contour", help="output-norm grid over orthogonal/parallel "
                                       "component combinations")
    common(p)
    p.add_argument("--layer", type=_read(load_layer_json), default=None,
                   help="layer spec JSON; default: seeded first layer of the "
                        "default network")
    p.add_argument("--grid", type=_at_least(3), default=21, help="points per axis")
    p.add_argument("--axis-max", type=_positive, default=2.0, help="axis upper bound")
    p.set_defaults(func=cmd_contour)

    p = sub.add_parser("privacy", help="generate output-invariant scrambled images")
    common(p)
    p.add_argument("--net", type=_read(_load_net_geometry), default=None,
                   help="network geometry JSON path")
    images = p.add_mutually_exclusive_group()
    # A string default: argparse takes an option equal to its default as not given,
    # so "--images 20" with --image-files would pass (small ints are one object).
    images.add_argument("--images", type=_at_least(1), default="20", help="synthetic image count")
    images.add_argument("--image-files", type=_read(read_ppm), nargs="+", default=None,
                        help="PPM images to scramble instead of synthetic ones")
    p.add_argument("--recon", type=_at_least(2), default=16,
                   help="sampled reconstructions per image")
    p.set_defaults(func=cmd_privacy, usage_error=p.error)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    with _blas_threads(1):
        return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
