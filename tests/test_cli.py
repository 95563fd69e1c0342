import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from nullspan.cli import main
from nullspan.layers import (
    ConvLayerSpec,
    FcLayerSpec,
    Flatten,
    Relu,
    build_equivalent,
    save_layer_json,
)
from nullspan.network import NetworkSpec, save_network_spec
from nullspan.subspace import harmless_basis, load_basis, save_basis


def small_net_spec():
    return NetworkSpec(
        input_shape=(3, 8, 8),
        layers=(
            ConvLayerSpec(3, 8, 8, 2, 3, 3, stride=1, zero_padding=1),
            Relu(),
            ConvLayerSpec(2, 8, 8, 4, 3, 3, stride=1, zero_padding=1),
            Relu(),
            Flatten(),
            FcLayerSpec(256, 5),
        ),
    )


@pytest.fixture()
def net_json(tmp_path):
    path = tmp_path / "net.json"
    save_network_spec(small_net_spec(), path)
    return str(path)


@pytest.fixture()
def conv_layer_json(tmp_path):
    rng = np.random.default_rng(60)
    spec = ConvLayerSpec(2, 6, 6, 3, 3, 3, stride=1, zero_padding=1,
                         kernels=rng.standard_normal((3, 2, 3, 3)))
    path = tmp_path / "layer.json"
    save_layer_json(spec, path)
    return str(path), spec


def read_csv(path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    return header, [line.split(",") for line in lines[1:]]


class TestLower:
    def test_writes_matrix_and_stats(self, tmp_path, conv_layer_json, capsys):
        path, spec = conv_layer_json
        out = tmp_path / "out"
        rc = main(["lower", "--layer", path, "--seed", "5", "--out", str(out),
                   "--format", "json"])
        assert rc == 0
        stats = json.loads((out / "lower_stats.json").read_text())
        eq = build_equivalent(spec)
        assert stats["rows"] == 108 and stats["cols"] == 72
        assert stats["nnz"] == eq.nnz
        assert stats["nullity"] == 0
        assert stats["rank_path"] == "certified"
        assert stats["sigma_min_lower"] > stats["tau_ub"] > 0
        assert stats["verify_residual"] <= 1e-12
        assert stats["predicted_dim"] == 0
        assert list(stats) == [
            "layer_kind", "rows", "cols", "nnz", "rank", "nullity", "rank_path",
            "sigma_min_lower", "tau_ub", "predicted_dim", "verify_residual",
            "samples", "seed"]

        header, rows = read_csv(out / "equivalent_matrix.csv")
        assert header == ["row", "col", "value"]
        positions = [(int(r), int(c)) for r, c, _ in rows]
        assert positions == sorted(positions) and len(set(positions)) == len(positions)
        dense = np.zeros((108, 72))
        for r, c, v in rows:
            dense[int(r), int(c)] = float(v)
        np.testing.assert_array_equal(dense, eq.toarray())

    def test_svd_path_reports_its_evidence(self, tmp_path, capsys):
        # Full rank in exact arithmetic but numerically deficient: the rank
        # certificate declines and the singular values decide.
        rng = np.random.default_rng(1603)
        spec = ConvLayerSpec(3, 16, 16, 12, 3, 3, stride=2, zero_padding=1,
                             kernels=rng.integers(-9, 10, size=(12, 3, 3, 3)).astype(float))
        path = tmp_path / "layer.json"
        save_layer_json(spec, path)
        out = tmp_path / "out"
        rc = main(["lower", "--layer", str(path), "--seed", "1", "--out", str(out),
                   "--format", "json"])
        assert rc == 0
        stats = json.loads((out / "lower_stats.json").read_text())
        assert stats["rank_path"] == "svd"
        assert stats["nullity"] > 0
        assert stats["sigma_r"] > stats["tolerance"] >= stats["sigma_r1"]


class TestDimSweep:
    def test_fc_family_reference_dims(self, tmp_path):
        out = tmp_path / "out"
        rc = main(["dim-sweep", "--kind", "fc", "--in-features", "784",
                   "--out-features", "98,196,392,784,1568",
                   "--seed", "11", "--out", str(out)])
        assert rc == 0
        header, rows = read_csv(out / "dim_sweep.csv")
        assert header == ["in_dim", "out_dim", "predicted", "numerical", "agree"]
        assert [int(r[3]) for r in rows] == [686, 588, 392, 0, 0]
        assert all(r[4] == "true" for r in rows)

    def test_conv_family(self, tmp_path):
        out = tmp_path / "out"
        rc = main(["dim-sweep", "--kind", "conv", "--in-shape", "2,6,6",
                   "--out-channels", "1,4,8", "--strides", "1", "--kernel", "3",
                   "--pad", "1", "--seed", "12", "--out", str(out)])
        assert rc == 0
        _, rows = read_csv(out / "dim_sweep.csv")
        assert len(rows) == 3
        assert all(r[4] == "true" for r in rows)
        assert [int(r[2]) for r in rows] == [36, 0, 0]

    def test_invalid_geometry_flagged_and_sweep_continues(self, tmp_path, capsys):
        out = tmp_path / "out"
        rc = main(["dim-sweep", "--kind", "conv", "--in-shape", "1,2,2",
                   "--out-channels", "1", "--strides", "1", "--kernel", "5",
                   "--pad", "0", "--seed", "13", "--out", str(out)])
        assert rc == 0
        _, rows = read_csv(out / "dim_sweep.csv")
        assert rows[0][4] == "error"
        assert "skipping invalid geometry" in capsys.readouterr().err

    def test_invalid_fc_width_gives_error_row(self, tmp_path, capsys):
        out = tmp_path / "out"
        rc = main(["dim-sweep", "--kind", "fc", "--in-features", "0", "--out-features", "4",
                   "--seed", "13", "--out", str(out)])
        assert rc == 0
        _, rows = read_csv(out / "dim_sweep.csv")
        assert rows == [["0", "", "", "", "error"]]
        assert "skipping invalid geometry" in capsys.readouterr().err

    @pytest.mark.parametrize("kind, flag, value", [
        ("conv", "--in-shape", "3,32"), ("conv", "--in-shape", "3,32,32,1"),
        ("conv", "--in-shape", "3,x,32"), ("conv", "--out-channels", "1,,2"),
        ("conv", "--strides", ""), ("fc", "--out-features", "4,x"),
    ])
    def test_malformed_list_is_usage_error(self, tmp_path, kind, flag, value, capsys):
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            main(["dim-sweep", "--kind", kind, flag, value, "--seed", "13", "--out", str(out)])
        err = capsys.readouterr().err
        assert exc.value.code == 2
        assert f"argument {flag}:" in err and "Traceback" not in err
        assert not out.exists()

    def test_json_format(self, tmp_path):
        out = tmp_path / "out"
        main(["dim-sweep", "--kind", "fc", "--in-features", "10",
              "--out-features", "4", "--seed", "14", "--out", str(out),
              "--format", "json"])
        doc = json.loads((out / "dim_sweep.json").read_text())
        assert doc == [{"in_dim": 10, "out_dim": 4, "predicted": 6,
                        "numerical": 6, "agree": True}]


class TestVerify:
    def test_small_net_passes(self, tmp_path, net_json):
        out = tmp_path / "out"
        rc = main(["verify", "--net", net_json, "--seed", "21", "--out", str(out),
                   "--skip-sweep", "--trials", "200", "--format", "json"])
        assert rc == 0
        doc = json.loads((out / "verify_report.json").read_text())
        assert doc["passed"] is True
        names = {c["name"] for c in doc["checks"]}
        assert {"basis-orthonormality", "rmse-harmless", "law-pair-classification",
                "contour-row-constancy"} <= names
        kinds = {row["kind"] for row in doc["rmse"]}
        assert kinds == {"harmless", "gaussian", "least-harmful", "gaussian-feature"}

    def test_no_least_harmful_rows_at_a_rank_deficient_layer(self, tmp_path):
        # The second conv (243 -> 245) is predicted to have nullity 0, but
        # every kernel of its shape drops rank by 3, so its smallest-energy
        # direction is harmless and the feature rows have no probe layer.
        spec = NetworkSpec(
            input_shape=(3, 11, 11),
            layers=(ConvLayerSpec(3, 11, 11, 3, 3, 3), Relu(),
                    ConvLayerSpec(3, 9, 9, 5, 3, 3), Relu(), Flatten(),
                    FcLayerSpec(245, 10)),
        )
        path = tmp_path / "net.json"
        save_network_spec(spec, path)
        out = tmp_path / "out"
        rc = main(["verify", "--net", str(path), "--seed", "21", "--out", str(out),
                   "--skip-sweep", "--trials", "100", "--format", "json"])
        assert rc == 0
        doc = json.loads((out / "verify_report.json").read_text())
        assert {row["kind"] for row in doc["rmse"]} == {"harmless", "gaussian"}
        assert not any("least-harmful-growing" in c["name"] for c in doc["checks"])

    def test_reports_byte_identical(self, tmp_path, net_json):
        args = ["verify", "--net", net_json, "--seed", "21", "--skip-sweep",
                "--trials", "100", "--format", "csv"]
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        for name in ("checks.csv", "rmse.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_tampered_basis_fails_loudly(self, tmp_path, net_json, capsys):
        from nullspan.network import load_network_spec
        from nullspan.verification import seeded_network

        net = seeded_network(21, load_network_spec(net_json))
        basis = harmless_basis(build_equivalent(net.layers[0]))
        tampered = basis.copy()
        tampered[:, 0] += 1e-3
        bad_path = tmp_path / "bad.nspb"
        save_basis(tampered, bad_path)

        rc = main(["verify", "--net", net_json, "--seed", "21",
                   "--out", str(tmp_path / "out"), "--skip-sweep",
                   "--basis", str(bad_path)])
        assert rc == 1
        err = capsys.readouterr()
        assert "FAIL" in err.out
        assert "FAILED" in err.err

    def test_basis_of_a_proper_subspace_fails(self, tmp_path, net_json, capsys):
        # Half the columns of the computed basis are orthonormal and
        # annihilated, but span only part of the harmless subspace.
        from nullspan.network import load_network_spec
        from nullspan.verification import seeded_network

        net = seeded_network(21, load_network_spec(net_json))
        basis = harmless_basis(build_equivalent(net.layers[0]))
        half = basis.shape[1] // 2
        path = tmp_path / "half.nspb"
        save_basis(basis[:, :half].copy(), path)
        out = tmp_path / "out"
        rc = main(["verify", "--net", net_json, "--seed", "21", "--out", str(out),
                   "--skip-sweep", "--trials", "10", "--format", "json",
                   "--basis", str(path)])
        assert rc == 1
        doc = json.loads((out / "verify_report.json").read_text())
        failed = [c for c in doc["checks"] if not c["passed"]]
        assert [c["name"] for c in failed] == ["basis-dimension"]
        assert failed[0]["detail"] == f"d={half} against the layer's nullity {basis.shape[1]}"
        # the batteries that use the basis do not run on it
        assert doc["rmse"] == []
        assert not any(c["name"].startswith(("rmse-", "contour-")) for c in doc["checks"])

    def test_stored_good_basis_passes(self, tmp_path, net_json):
        from nullspan.network import load_network_spec
        from nullspan.verification import seeded_network

        net = seeded_network(21, load_network_spec(net_json))
        basis = harmless_basis(build_equivalent(net.layers[0]))
        good_path = tmp_path / "good.nspb"
        save_basis(basis, good_path)
        rc = main(["verify", "--net", net_json, "--seed", "21",
                   "--out", str(tmp_path / "out"), "--skip-sweep",
                   "--trials", "100", "--basis", str(good_path)])
        assert rc == 0


class TestContour:
    def test_small_layer(self, tmp_path, conv_layer_json, capsys):
        path, spec = conv_layer_json
        out = tmp_path / "out"
        rc = main(["contour", "--layer", path, "--seed", "31", "--out", str(out),
                   "--grid", "21"])
        assert rc == 1  # that layer has nullity 0: no harmless subspace
        assert "no harmless subspace" in capsys.readouterr().err

    def test_grid_and_invariants(self, tmp_path):
        rng = np.random.default_rng(61)
        spec = ConvLayerSpec(3, 8, 8, 2, 3, 3, stride=1, zero_padding=1,
                             kernels=rng.standard_normal((2, 3, 3, 3)))
        path = tmp_path / "wide.json"
        save_layer_json(spec, path)
        out = tmp_path / "out"
        rc = main(["contour", "--layer", str(path), "--seed", "31",
                   "--out", str(out), "--grid", "21"])
        assert rc == 0
        header, rows = read_csv(out / "contour.csv")
        assert header == ["a", "b", "value"]
        assert len(rows) == 21 * 21
        values = {}
        for a, b, v in rows:
            values[(float(a), float(b))] = float(v)
        # zero row, row constancy, linearity spot checks
        assert values[(0.0, 0.0)] <= 1e-9
        assert values[(0.0, 2.0)] <= 1e-9
        row1 = [values[(1.0, float(b))] for b in np.linspace(0, 2, 21)]
        assert (max(row1) - min(row1)) <= 1e-9 * max(row1)
        assert abs(values[(2.0, 1.0)] - 2 * values[(1.0, 1.0)]) <= 1e-9 * values[(1.0, 1.0)]

    def test_byte_identical(self, tmp_path):
        rng = np.random.default_rng(62)
        spec = ConvLayerSpec(2, 6, 6, 1, 3, 3, stride=1, zero_padding=1,
                             kernels=rng.standard_normal((1, 2, 3, 3)))
        path = tmp_path / "l.json"
        save_layer_json(spec, path)
        a, b = tmp_path / "a", tmp_path / "b"
        main(["contour", "--layer", str(path), "--seed", "7", "--out", str(a)])
        main(["contour", "--layer", str(path), "--seed", "7", "--out", str(b)])
        assert (a / "contour.csv").read_bytes() == (b / "contour.csv").read_bytes()

    def test_json_format_matches_csv(self, tmp_path):
        rng = np.random.default_rng(63)
        spec = ConvLayerSpec(2, 6, 6, 1, 3, 3, stride=1, zero_padding=1,
                             kernels=rng.standard_normal((1, 2, 3, 3)))
        path = tmp_path / "l.json"
        save_layer_json(spec, path)
        csv_out, json_out = tmp_path / "csv", tmp_path / "json"
        assert main(["contour", "--layer", str(path), "--seed", "7", "--out", str(csv_out)]) == 0
        assert main(["contour", "--layer", str(path), "--seed", "7", "--out", str(json_out),
                     "--format", "json"]) == 0
        assert not (json_out / "contour.csv").exists()
        header, rows = read_csv(csv_out / "contour.csv")
        doc = json.loads((json_out / "contour.json").read_text())
        assert doc == [dict(zip(header, map(float, row))) for row in rows]


class TestPrivacy:
    def test_small_run(self, tmp_path, net_json):
        out = tmp_path / "out"
        rc = main(["privacy", "--net", net_json, "--seed", "41", "--out", str(out),
                   "--images", "2", "--recon", "3"])
        assert rc == 0
        for i in range(2):
            for suffix in ("original.ppm", "perturbation.ppm", "scrambled.ppm",
                           "scrambled.f64"):
                assert (out / f"img{i:02d}_{suffix}").exists()
            for j in range(3):
                assert (out / f"img{i:02d}_recon{j:02d}.ppm").exists()
        header, rows = read_csv(out / "privacy_report.csv")
        assert header == ["image", "mse", "ssim", "ssim_gaussian_matched",
                          "output_deviation", "max_bound_violation", "argmax_agree"]
        assert len(rows) == 2
        assert all(r[6] == "true" for r in rows)
        assert all(float(r[1]) >= 0.05 for r in rows)
        basis = load_basis(out / "first_layer_basis.nspb")
        assert basis.shape == (192, 64)

    def test_byte_identical_reports(self, tmp_path, net_json):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            rc = main(["privacy", "--net", net_json, "--seed", "42",
                       "--out", str(out), "--images", "1", "--recon", "2"])
            assert rc == 0
        assert (a / "privacy_report.csv").read_bytes() == (b / "privacy_report.csv").read_bytes()
        assert (a / "img00_scrambled.f64").read_bytes() == (b / "img00_scrambled.f64").read_bytes()

    def test_ppm_images_roundtrip_through_cli(self, tmp_path, net_json):
        from nullspan.imaging import synthetic_image, write_ppm
        img_path = tmp_path / "input.ppm"
        write_ppm(img_path, synthetic_image(123, (3, 8, 8)))
        out = tmp_path / "out"
        rc = main(["privacy", "--net", net_json, "--seed", "43", "--out", str(out),
                   "--image-files", str(img_path), "--recon", "2"])
        assert rc == 0
        _, rows = read_csv(out / "privacy_report.csv")
        assert len(rows) == 1

    def test_image_files_needs_a_path(self, tmp_path, net_json, capsys):
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            main(["privacy", "--net", net_json, "--seed", "43", "--out", str(out),
                  "--image-files"])
        assert exc.value.code == 2
        assert "argument --image-files:" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("count", [
        ["privacy", "--images", "0"], ["privacy", "--recon", "1"], ["privacy", "--recon", "0"],
        ["lower", "--samples", "0"], ["verify", "--trials", "0"],
        ["verify", "--geometries", "-3"], ["contour", "--grid", "0"],
        ["contour", "--grid", "1"], ["contour", "--grid", "2"], ["contour", "--axis-max", "0"],
    ])
    def test_degenerate_counts_are_usage_errors(self, tmp_path, net_json, conv_layer_json,
                                                count, capsys, monkeypatch):
        # The counts are checked before any work, such as the (costly) harmless basis.
        def no_basis(a):
            raise AssertionError("harmless_basis called before the count check")

        monkeypatch.setattr("nullspan.cli.harmless_basis", no_basis)
        out = tmp_path / "out"
        files = {"privacy": ["--net", net_json], "lower": ["--layer", conv_layer_json[0]]}
        with pytest.raises(SystemExit) as exc:
            main(count[:1] + files.get(count[0], [])
                 + ["--seed", "44", "--out", str(out)] + count[1:])
        assert exc.value.code == 2
        assert re.search("at least|positive", capsys.readouterr().err)
        assert not out.exists() or not any(out.iterdir())


# A valid network whose harmless subspace would belong to its second layer.
RELU_FIRST_NET = (b'{"input_shape": [3, 8, 8], "layers": [{"kind": "relu"}, '
                  b'{"kind": "conv", "in_channels": 3, "in_height": 8, "in_width": 8, '
                  b'"out_channels": 2, "kernel_h": 3, "kernel_w": 3, "zero_padding": 1}, '
                  b'{"kind": "flatten"}, {"kind": "fc", "in_features": 128, "out_features": 4}]}')

TINY_IMAGE_NET = (b'{"input_shape": [3, 4, 4], "layers": [{"kind": "conv", "in_channels": 3, '
                  b'"in_height": 4, "in_width": 4, "out_channels": 2, "kernel_h": 3, '
                  b'"kernel_w": 3}, {"kind": "flatten"}, '
                  b'{"kind": "fc", "in_features": 8, "out_features": 4}]}')
FLAT_INPUT_NET = (b'{"input_shape": [192], "layers": '
                  b'[{"kind": "fc", "in_features": 192, "out_features": 4}]}')
GEOMETRY_NET = {"input_shape": [1, 2, 2], "layers": [
    {"kind": "conv", "in_channels": 1, "in_height": 2, "in_width": 2, "out_channels": 1,
     "kernel_h": 1, "kernel_w": 1}, {"kind": "flatten"},
    {"kind": "fc", "in_features": 4, "out_features": 2}]}
PPM_32 = b"P6\n32 32\n255\n" + bytes(3 * 32 * 32)


def net_with(index: int, field: str, value) -> bytes:
    """GEOMETRY_NET with a parameter array set on one layer."""
    doc = json.loads(json.dumps(GEOMETRY_NET))
    doc["layers"][index][field] = value
    return json.dumps(doc).encode()


class TestMalformedFiles:
    """Every file flag reads its file while the arguments are parsed, so a
    missing or malformed file is a usage error (exit 2) that names the flag
    and the cause, before any work starts."""

    @pytest.mark.parametrize("command, flag, name, content, cause", [
        ("lower", "--layer", "conv.json", b'{"kind": "conv", "in_channels": 3}',
         "missing field 'in_height'"),
        ("contour", "--layer", "relu.json", b'{"kind": "relu"}', "got kind 'relu'"),
        ("verify", "--net", "net.json", b'{"input_shape": [4]}', "missing field 'layers'"),
        ("privacy", "--net", "net.json", b"[1, 2", "Expecting"),
        ("verify", "--basis", "tall.nspb", np.eye(100, 5),
         "the basis has 100 rows, but the first linear layer takes 3072 inputs"),
        ("verify", "--basis", "nan.nspb", np.full((3072, 2), np.nan),
         "basis contains non-finite values"),
        ("privacy", "--image-files", "img.ppm", b"P5\n1 1\n255\n\x00", "magic"),
        ("privacy", "--image-files", "small.ppm", b"P6\n8 8\n255\n" + bytes(192),
         "image 0 has shape (3, 8, 8), but the network takes (3, 32, 32)"),
        ("privacy", "--net", "absent.json", None, "No such file"),
        ("verify", "--net", "relu_first.json", RELU_FIRST_NET,
         "the first layer must be conv or fc, got Relu"),
        ("privacy", "--net", "relu_first.json", RELU_FIRST_NET,
         "the first layer must be conv or fc, got Relu"),
        ("privacy", "--net", "tiny.json", TINY_IMAGE_NET,
         "privacy needs a (3, H, W) input with H, W >= 8, but the network takes (3, 4, 4)"),
        ("verify", "--net", "flat.json", FLAT_INPUT_NET,
         "verify needs a (C, H, W) input, but the network takes (192,)"),
        ("privacy", "--net", "flat.json", FLAT_INPUT_NET,
         "privacy needs a (3, H, W) input with H, W >= 8, but the network takes (192,)"),
        ("lower", "--layer", "conv.json", json.dumps(GEOMETRY_NET["layers"][0]).encode(),
         "missing or null field 'kernels'"),
        ("contour", "--layer", "fc.json",
         b'{"kind": "fc", "in_features": 4, "out_features": 2, "weight": null}',
         "missing or null field 'weight'"),
        ("verify", "--net", "kernels.json", net_with(0, "kernels", [[[[7.0]]]]),
         "layer 0 sets 'kernels', but --seed draws the weights"),
        ("privacy", "--net", "bias.json", net_with(0, "bias", [0.5]),
         "layer 0 sets 'bias', but --seed draws the weights"),
        ("verify", "--net", "weight.json", net_with(2, "weight", [[1.0, 0.0]] * 4),
         "layer 2 sets 'weight', but --seed draws the weights"),
        ("privacy --images 5", "--image-files", "img.ppm", PPM_32,
         "not allowed with argument --images"),
        ("privacy --images 20", "--image-files", "img.ppm", PPM_32,
         "not allowed with argument --images"),
    ])
    def test_usage_error_names_the_cause(self, tmp_path, command, flag, name, content,
                                         cause, capsys, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("work started before the file was checked")

        for stage in ("harmless_basis", "full_battery"):
            monkeypatch.setattr(f"nullspan.cli.{stage}", refuse)
        path = tmp_path / name
        if isinstance(content, np.ndarray):
            save_basis(content, path)
        elif content is not None:
            path.write_bytes(content)
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            main([*command.split(), flag, str(path), "--seed", "1", "--out", str(out)])
        err = capsys.readouterr().err
        assert exc.value.code == 2
        assert f"argument {flag}:" in err and cause in err
        assert "Traceback" not in err
        assert not out.exists()


class TestParser:
    def test_seed_required(self):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--out", "/tmp/x"])
        assert exc.value.code == 2

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            main(["frobnicate", "--seed", "1", "--out", "/tmp/x"])


def test_import_leaves_the_factorization_modules_unloaded():
    # scipy.linalg and scipy.sparse.linalg are imported by the functions that
    # factor, so that start-up does not pay for them (about 0.15 s and
    # 0.09 s); a fresh interpreter shows what importing the CLI loads.
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(src), env.get("PYTHONPATH")) if p)
    probe = ("import sys, nullspan.cli; "
             "print([m for m in ('scipy.linalg', 'scipy.sparse.linalg') if m in sys.modules])")
    proc = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.strip() == "[]"
