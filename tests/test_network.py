import copy
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nullspan.imaging import synthetic_image
from nullspan.layers import (
    AvgPool,
    ConvLayerSpec,
    FcLayerSpec,
    Flatten,
    Relu,
    build_equivalent,
    conv_forward,
    layer_from_json_dict,
)
from nullspan.network import (
    NetworkSpec,
    apply_layer,
    forward,
    forward_from_layer,
    init_network,
    load_network_spec,
    network_spec_from_json_dict,
    network_spec_to_json_dict,
    rmse_report,
    save_network_spec,
)
from nullspan.subspace import harmless_basis, least_harmful, sample_harmless
from nullspan import tensorio

# Layers of verification.default_network_spec(): the second conv has no
# harmless subspace; the first fc layer (1024 -> 64) has a 960-dim one.
ZERO_NULLITY_LAYER = 2
INTERIOR_HARMLESS_LAYER = 6

# Logits of the small golden network below, recorded once from a
# straightforward loop-based reimplementation (naive_forward, kept here
# for cross-checking).
GOLDEN_LOGITS = np.array([
    -0.28308770431598856,
    0.4802729006580185,
    -0.12407377739973237,
    -0.08281150658644128,
    0.04092226303665823,
])


def golden_spec():
    return NetworkSpec(
        input_shape=(2, 6, 6),
        layers=(
            ConvLayerSpec(2, 6, 6, 3, 3, 3, stride=1, zero_padding=1),
            Relu(),
            AvgPool(window=2, stride=2),
            Flatten(),
            FcLayerSpec(27, 5),
        ),
    )


def naive_forward(net, x):
    z = x
    for layer in net.layers:
        if isinstance(layer, ConvLayerSpec):
            out = np.zeros(layer.output_shape)
            for j in range(layer.out_channels):
                for oy in range(layer.out_height):
                    for ox in range(layer.out_width):
                        acc = 0.0
                        for c in range(layer.in_channels):
                            for ky in range(layer.kernel_h):
                                for kx in range(layer.kernel_w):
                                    iy = oy * layer.stride - layer.zero_padding + ky
                                    ix = ox * layer.stride - layer.zero_padding + kx
                                    if 0 <= iy < layer.in_height and 0 <= ix < layer.in_width:
                                        acc += layer.kernels[j, c, ky, kx] * z[c, iy, ix]
                        if layer.bias is not None:
                            acc += layer.bias[j]
                        out[j, oy, ox] = acc
            z = out
        elif isinstance(layer, FcLayerSpec):
            flat = z.ravel()
            out = np.zeros(layer.out_features)
            for o in range(layer.out_features):
                acc = 0.0
                for i in range(layer.in_features):
                    acc += layer.weight[i, o] * flat[i]
                if layer.bias is not None:
                    acc += layer.bias[o]
                out[o] = acc
            z = out
        elif isinstance(layer, Relu):
            z = np.maximum(z, 0.0)
        elif isinstance(layer, AvgPool):
            c_n, h, w = z.shape
            ho = (h - layer.window) // layer.stride + 1
            wo = (w - layer.window) // layer.stride + 1
            out = np.zeros((c_n, ho, wo))
            for c in range(c_n):
                for oy in range(ho):
                    for ox in range(wo):
                        s = 0.0
                        for dy in range(layer.window):
                            for dx in range(layer.window):
                                s += z[c, oy * layer.stride + dy, ox * layer.stride + dx]
                        out[c, oy, ox] = s / (layer.window * layer.window)
            z = out
        elif isinstance(layer, Flatten):
            z = z.ravel()
    return np.ravel(z)


class TestInitNetwork:
    def test_same_seed_identical_bytes(self):
        spec = golden_spec()
        a, b = init_network(spec, 42), init_network(spec, 42)
        assert a.layers[0].kernels.tobytes() == b.layers[0].kernels.tobytes()
        assert a.layers[4].weight.tobytes() == b.layers[4].weight.tobytes()
        assert a.layers[0].bias.tobytes() == b.layers[0].bias.tobytes()

    def test_seed_changes_weights_not_shapes(self):
        spec = golden_spec()
        a, b = init_network(spec, 1), init_network(spec, 2)
        assert a.layers[0].kernels.shape == b.layers[0].kernels.shape
        assert not np.array_equal(a.layers[0].kernels, b.layers[0].kernels)

    def test_first_layer_harmless_dim(self, first_layer_basis):
        assert first_layer_basis.shape[1] == 512


class TestForward:
    def test_golden_logits(self):
        net = init_network(golden_spec(), 42)
        x = synthetic_image(7, (2, 6, 6))
        trace = forward(net, x[None])
        np.testing.assert_allclose(trace.logits[0], GOLDEN_LOGITS, rtol=0, atol=1e-12)

    def test_matches_naive_reimplementation(self):
        # Each row of a mixed batch (synthetic images, zeros, a signed
        # Gaussian input), and a batch of one, matches the loop reference.
        net = init_network(golden_spec(), 42)
        xs = np.stack([synthetic_image(7, (2, 6, 6)), np.zeros((2, 6, 6)),
                       np.random.default_rng(3).standard_normal((2, 6, 6)),
                       synthetic_image(8, (2, 6, 6))])
        for batch in (xs[:1], xs):
            logits = forward(net, batch).logits
            assert logits.shape == (len(batch), 5)
            for row, x in zip(logits, batch):
                np.testing.assert_allclose(row, naive_forward(net, x), rtol=0, atol=1e-12)

    def test_zero_input_bias_free_gives_zero(self):
        spec = NetworkSpec(
            input_shape=(1, 4, 4),
            layers=(
                ConvLayerSpec(1, 4, 4, 2, 3, 3, zero_padding=1),
                Flatten(),
                FcLayerSpec(32, 3),
            ),
        )
        conv, flatten, fc = init_network(spec, 3).layers
        net = NetworkSpec(input_shape=(1, 4, 4),
                          layers=(replace(conv, bias=None), flatten, replace(fc, bias=None)))
        logits = forward(net, np.zeros((1, 1, 4, 4))).logits
        np.testing.assert_array_equal(logits, np.zeros((1, 3)))

    def test_relu_clamps(self):
        z = np.array([[-1.0, 0.0, 2.0]])
        np.testing.assert_array_equal(apply_layer(Relu(), z), [[0.0, 0.0, 2.0]])

    def test_avgpool_quadrants(self):
        z = np.arange(16.0).reshape(1, 1, 4, 4)
        out = apply_layer(AvgPool(window=2, stride=2), z)
        np.testing.assert_allclose(out[0, 0], [[2.5, 4.5], [10.5, 12.5]])

    def test_trace_shapes(self):
        net = init_network(golden_spec(), 42)
        trace = forward(net, np.stack([synthetic_image(1, (2, 6, 6))] * 4))
        shapes = [a.shape for a in trace.activations]
        assert shapes == [(4, 2, 6, 6), (4, 3, 6, 6), (4, 3, 6, 6), (4, 3, 3, 3),
                          (4, 27), (4, 5)]

    def test_shape_mismatch(self):
        net = init_network(golden_spec(), 42)
        with pytest.raises(ValueError, match="input shape"):
            forward(net, np.zeros((1, 2, 5, 6)))

    def test_unbatched_input_rejected(self):
        net = init_network(golden_spec(), 42)
        x = synthetic_image(1, (2, 6, 6))
        for call in (lambda: conv_forward(net.layers[0], x), lambda: forward(net, x),
                     lambda: forward_from_layer(net, 0, x),
                     lambda: apply_layer(net.layers[0], x)):
            with pytest.raises(ValueError, match=r"\(B, 2, 6, 6\)"):
                call()
        for layer, z in ((Relu(), np.zeros(3)), (Flatten(), np.zeros(3)),
                         (AvgPool(window=2, stride=2), x)):
            with pytest.raises(ValueError, match=r"\(B, \.\.\.\)"):
                apply_layer(layer, z)


class TestForwardFromLayer:
    def test_layer_zero_matches_forward(self):
        net = init_network(golden_spec(), 42)
        x = synthetic_image(8, (2, 6, 6))
        np.testing.assert_array_equal(forward_from_layer(net, 0, x[None]),
                                      forward(net, x[None]).logits)

    def test_interior_harmless_injection(self, default_net):
        idx = INTERIOR_HARMLESS_LAYER
        fc1 = default_net.layers[idx]
        basis = harmless_basis(build_equivalent(fc1))
        assert basis.shape[1] == 1024 - 64
        x = synthetic_image(9, (3, 32, 32))
        trace = forward(net=default_net, x=x[None])
        z = trace.activations[idx]
        delta = sample_harmless(basis, seed=11, target_norm=5.0)
        logits = forward_from_layer(default_net, idx, z + delta.reshape(z.shape))
        assert np.max(np.abs(logits - trace.logits)) <= 1e-10

    def test_least_harmful_injection_beats_random(self, default_net):
        idx = ZERO_NULLITY_LAYER
        eq = build_equivalent(default_net.layers[idx])
        lh = least_harmful(eq)
        x = synthetic_image(10, (3, 32, 32))
        trace = forward(default_net, x[None])
        z = trace.activations[idx]
        shape = z.shape

        def deviation(direction):
            logits = forward_from_layer(default_net, idx, z + direction.reshape(shape))
            return float(np.linalg.norm(logits - trace.logits))

        lh_dev = deviation(lh.direction)
        rng = np.random.default_rng(12)
        for _ in range(100):
            d = rng.standard_normal(z.size)
            d /= np.linalg.norm(d)
            assert lh_dev <= deviation(d)

    def test_generic_perturbation_changes_logits(self, default_net):
        idx = ZERO_NULLITY_LAYER
        x = synthetic_image(13, (3, 32, 32))
        trace = forward(default_net, x[None])
        z = trace.activations[idx]
        rng = np.random.default_rng(14)
        delta = rng.standard_normal(z.shape)
        logits = forward_from_layer(default_net, idx, z + delta)
        assert np.max(np.abs(logits - trace.logits)) > 1e-6

    def test_bad_index(self, default_net):
        with pytest.raises(IndexError):
            forward_from_layer(default_net, 99, np.zeros(1))

    def test_bad_shape(self, default_net):
        with pytest.raises(ValueError, match="feature shape"):
            forward_from_layer(default_net, 2, np.zeros((1, 3, 3, 3)))


class TestEndToEndInvariance:
    def test_harmless_all_scales(self, default_net, first_layer_basis):
        delta = sample_harmless(first_layer_basis, seed=15, target_norm=8 / 255,
                                norm_kind="linf").reshape(3, 32, 32)
        x = synthetic_image(16, (3, 32, 32))
        clean = forward(default_net, x[None])
        clean_class = int(np.argmax(clean.logits))
        for scale in [2.0 ** k for k in range(9)]:
            logits = forward(default_net, (x + scale * delta)[None]).logits
            assert np.max(np.abs(logits - clean.logits)) <= 1e-9
            assert int(np.argmax(logits)) == clean_class


class TestRmseReport:
    def test_harmless_tiny_at_table_scales(self, default_net, first_layer_basis):
        delta = sample_harmless(first_layer_basis, seed=17, target_norm=8 / 255,
                                norm_kind="linf").reshape(3, 32, 32)
        inputs = [synthetic_image(100 + i, (3, 32, 32)) for i in range(4)]
        scales = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0)
        rows = rmse_report(default_net, inputs, delta, scales, 0, kind="harmless")
        assert set(rows) == {("harmless", s) for s in scales}
        assert all(v <= 1e-10 for v in rows.values())

    def test_zero_delta_exactly_zero(self, default_net):
        inputs = [synthetic_image(200, (3, 32, 32))]
        rows = rmse_report(default_net, inputs, np.zeros((3, 32, 32)), (1.0, 4.0), 0)
        assert all(v == 0.0 for v in rows.values())

    def test_gaussian_grows(self, default_net):
        rng = np.random.default_rng(18)
        delta = rng.standard_normal((3, 32, 32))
        delta *= (8 / 255) / np.max(np.abs(delta))
        inputs = [synthetic_image(300 + i, (3, 32, 32)) for i in range(4)]
        scales = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0)
        rows = rmse_report(default_net, inputs, delta, scales, 0, kind="gaussian")
        values = [rows[("gaussian", s)] for s in scales]
        assert all(v > 0 for v in values)
        assert all(b > a for a, b in zip(values, values[1:]))


class TestSpecValidation:
    def test_requires_linear_layer(self):
        with pytest.raises(ValueError, match="linear"):
            NetworkSpec(input_shape=(1, 4, 4), layers=(Relu(),))

    def test_inconsistent_chain_names_layer(self):
        with pytest.raises(ValueError, match="layer 1"):
            NetworkSpec(
                input_shape=(1, 4, 4),
                layers=(ConvLayerSpec(1, 4, 4, 2, 3, 3, zero_padding=1),
                        FcLayerSpec(99, 3)),
            )

    def test_avgpool_needs_3d(self):
        with pytest.raises(ValueError, match="avgpool"):
            NetworkSpec(
                input_shape=(16,),
                layers=(AvgPool(2, 2), FcLayerSpec(4, 2)),
            )


class TestSerialization:
    def test_spec_json_roundtrip(self, tmp_path):
        spec = golden_spec()
        path = tmp_path / "net.json"
        save_network_spec(spec, path)
        back = load_network_spec(path)
        assert back.input_shape == (2, 6, 6)
        kinds = [type(l).__name__ for l in back.layers]
        assert kinds == ["ConvLayerSpec", "Relu", "AvgPool", "Flatten", "FcLayerSpec"]
        assert back.layers[2] == AvgPool(window=2, stride=2)

    def test_tensor_container_frozen_layout(self, tmp_path):
        import struct
        path = tmp_path / "single.nspw"
        tensorio.write_tensors(path, {"t": np.array([1.0, 2.0])})
        name = b"t"
        header_size = 12 + (4 + len(name) + 4 + 4 + 8)
        expected = (b"NSPW" + struct.pack("<II", 1, 1)
                    + struct.pack("<I", len(name)) + name
                    + struct.pack("<I", 1) + struct.pack("<I", 2)
                    + struct.pack("<Q", header_size)
                    + struct.pack("<2d", 1.0, 2.0))
        assert path.read_bytes() == expected

    def test_tensor_container_roundtrip(self, tmp_path):
        path = tmp_path / "multi.nspw"
        tensors = {
            "a": np.arange(6.0).reshape(2, 3),
            "b.bias": np.array([-1.0]),
            "scalar": np.array(3.5),
        }
        tensorio.write_tensors(path, tensors)
        back = tensorio.read_tensors(path)
        assert list(back) == ["a", "b.bias", "scalar"]
        for k in tensors:
            np.testing.assert_array_equal(back[k], tensors[k])
            assert back[k].shape == tensors[k].shape

    def test_tensor_container_bad_magic(self, tmp_path):
        path = tmp_path / "bad.nspw"
        path.write_bytes(b"JUNK" + b"\x00" * 8)
        with pytest.raises(ValueError, match="magic"):
            tensorio.read_tensors(path)


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 10 ** 30) | st.floats() | st.text(max_size=4),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=12), children, max_size=3),
    max_leaves=8,
)


@pytest.fixture(scope="module")
def golden_doc() -> dict:
    return network_spec_to_json_dict(init_network(golden_spec(), 3))


class TestJsonReaders:
    @pytest.mark.parametrize("doc, field", [
        ({}, "input_shape"),
        ({"input_shape": [4], "layers": "abc"}, "layers"),
        ({"input_shape": [4], "layers": [{"kind": "fc", "out_features": 2}]}, "in_features"),
        ({"input_shape": [4], "layers": [{"kind": "fc", "in_features": "4",
                                          "out_features": 2}]}, "in_features"),
        ({"input_shape": [4], "layers": [{"kind": "fc", "in_features": 4, "out_features": 2,
                                          "weight": {"a": 1}}]}, "weight"),
        ({"input_shape": [1, 4, 4], "layers": [{"kind": "avgpool", "window": 2,
                                                "stride": 0}]}, "stride"),
        ({"input_shape": [1, 4, 4], "layers": [7]}, "layer 0"),
        ({"input_shape": [1.5], "layers": []}, "input_shape"),
        # unhashable kinds must not reach the kind table as dict keys
        ({"input_shape": [4], "layers": [{"kind": []}]}, "kind"),
        ({"input_shape": [4], "layers": [{"kind": {}}]}, "kind"),
    ])
    def test_named_field(self, doc, field):
        with pytest.raises(ValueError, match=field):
            network_spec_from_json_dict(doc)

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_mutations_rejected_or_read(self, golden_doc, data):
        doc = copy.deepcopy(golden_doc)
        for _ in range(data.draw(st.integers(1, 3))):
            # pick the top level or one layer, then drop, add or replace a field
            layers = doc.get("layers")
            target = data.draw(st.sampled_from(
                [doc] + [l for l in layers if isinstance(l, dict)]
                if isinstance(layers, list) else [doc]))
            key = data.draw(st.sampled_from(sorted(target) + ["kind", "window", "extra"]))
            if data.draw(st.booleans()):
                target.pop(key, None)
            else:
                target[key] = data.draw(JSON_VALUES)
        try:
            spec = network_spec_from_json_dict(doc)
        except ValueError:
            return
        assert isinstance(spec, NetworkSpec)

    @settings(max_examples=200, deadline=None)
    @given(doc=JSON_VALUES)
    def test_arbitrary_documents_rejected_or_read(self, doc):
        for reader in (network_spec_from_json_dict, layer_from_json_dict):
            try:
                reader(doc)
            except ValueError:
                pass
