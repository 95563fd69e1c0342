"""Minimal deterministic feed-forward inference with per-layer taps.

Supported layers: the five kinds of layers.py (conv, fc, relu, average
pooling and flatten). No training, no batch norm, no skip connections. Forward
passes record every intermediate activation so perturbations can be
injected at any depth and their downstream effect measured.

Layer indexing convention: `net.layers[i]` consumes activation z_i and
produces z_{i+1}, with z_0 the network input. forward_from_layer(net, l,
z) treats z as z_l and applies layers l, l+1, ... to the end, so
forward_from_layer(net, 0, x) reproduces the full forward pass.

Batch convention: every activation carries a leading batch axis, so z_0
is (B, *input_shape) and z_i is (B, *activation_shapes()[i]); logits are
(B, n_out). Samples never interact. A single sample is passed as x[None];
an input without the batch axis raises a ValueError naming (B, ...).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .layers import (
    AvgPool,
    ConvLayerSpec,
    FcLayerSpec,
    Flatten,
    Relu,
    conv_forward,
    fc_forward,
    _check_batched,
    layer_from_json_dict,
    layer_to_json_dict,
)

__all__ = [
    "NetworkSpec",
    "FeatureTrace",
    "init_network",
    "forward",
    "forward_from_layer",
    "rmse_report",
    "shape_after",
    "network_spec_to_json_dict",
    "network_spec_from_json_dict",
    "save_network_spec",
    "load_network_spec",
]


def shape_after(layer, shape: tuple[int, ...]) -> tuple[int, ...]:
    """Output shape of one layer given its input shape; raises on mismatch."""
    if isinstance(layer, ConvLayerSpec):
        if shape != layer.input_shape:
            raise ValueError(f"conv expects input shape {layer.input_shape}, got {shape}")
        return layer.output_shape
    if isinstance(layer, FcLayerSpec):
        flat = math.prod(shape)
        if flat != layer.in_features:
            raise ValueError(f"fc expects {layer.in_features} features, got {flat} (shape {shape})")
        return layer.output_shape
    if isinstance(layer, Relu):
        return shape
    if isinstance(layer, AvgPool):
        if len(shape) != 3:
            raise ValueError(f"avgpool expects a (C, H, W) input, got shape {shape}")
        c, h, w = shape
        if h < layer.window or w < layer.window:
            raise ValueError(f"avgpool window {layer.window} exceeds input {h}x{w}")
        return (c,
                (h - layer.window) // layer.stride + 1,
                (w - layer.window) // layer.stride + 1)
    if isinstance(layer, Flatten):
        return (math.prod(shape),)
    raise TypeError(f"unknown layer type {type(layer).__name__}")


@dataclass(frozen=True)
class NetworkSpec:
    """Ordered layer list plus the input shape. Linear layers may be
    geometry-only (kernels/weight None) until init_network fills them."""

    input_shape: tuple[int, ...]
    layers: tuple

    def __post_init__(self):
        object.__setattr__(self, "input_shape", tuple(int(s) for s in self.input_shape))
        object.__setattr__(self, "layers", tuple(self.layers))
        if not any(isinstance(l, (ConvLayerSpec, FcLayerSpec)) for l in self.layers):
            raise ValueError("network needs at least one linear layer")
        self.activation_shapes()

    @property
    def output_shape(self) -> tuple[int, ...]:
        return self.activation_shapes()[-1]

    def activation_shapes(self) -> list[tuple[int, ...]]:
        shapes = [self.input_shape]
        for i, layer in enumerate(self.layers):
            try:
                shapes.append(shape_after(layer, shapes[-1]))
            except ValueError as exc:
                raise ValueError(f"layer {i}: {exc}") from exc
        return shapes

    def linear_layer_indices(self) -> list[int]:
        return [i for i, l in enumerate(self.layers)
                if isinstance(l, (ConvLayerSpec, FcLayerSpec))]


@dataclass(frozen=True)
class FeatureTrace:
    """Per-layer activations z_0 .. z_L; logits is z_L as (B, n_out)."""

    activations: tuple

    @property
    def logits(self) -> np.ndarray:
        z = self.activations[-1]
        return z.reshape(len(z), -1)


def init_network(spec: NetworkSpec, seed: int) -> NetworkSpec:
    """The spec with parameters drawn for every linear layer: each weight
    and bias entry is a seeded standard normal scaled by 1/sqrt(fan_in).
    Bit-reproducible for a given seed; existing parameter values in the
    spec are ignored and redrawn.
    """
    rng = np.random.default_rng(seed)
    filled = []
    for layer in spec.layers:
        if isinstance(layer, ConvLayerSpec):
            fan_in = layer.in_channels * layer.kernel_h * layer.kernel_w
            shape = (layer.out_channels, layer.in_channels, layer.kernel_h, layer.kernel_w)
            kernels = rng.standard_normal(shape) / np.sqrt(fan_in)
            bias = rng.standard_normal(layer.out_channels) / np.sqrt(fan_in)
            filled.append(replace(layer, kernels=kernels, bias=bias))
        elif isinstance(layer, FcLayerSpec):
            fan_in = layer.in_features
            weight = rng.standard_normal((layer.in_features, layer.out_features)) / np.sqrt(fan_in)
            bias = rng.standard_normal(layer.out_features) / np.sqrt(fan_in)
            filled.append(replace(layer, weight=weight, bias=bias))
        else:
            filled.append(layer)
    return NetworkSpec(input_shape=spec.input_shape, layers=tuple(filled))


def apply_layer(layer, z: np.ndarray) -> np.ndarray:
    """One layer applied to a (B, ...) batch. Conv and fc check the whole
    sample shape and avgpool needs (B, C, H, W); relu and flatten take any
    sample shape, so they can only check that a batch axis is there."""
    if np.ndim(z) < (4 if isinstance(layer, AvgPool) else 2):
        raise ValueError(f"{type(layer).__name__} input shape {np.shape(z)} != (B, ...)")
    if isinstance(layer, ConvLayerSpec):
        return conv_forward(layer, z)
    if isinstance(layer, FcLayerSpec):
        return fc_forward(layer, z.reshape(len(z), -1))
    if isinstance(layer, Relu):
        return np.maximum(z, 0.0)
    if isinstance(layer, AvgPool):
        win = sliding_window_view(z, (layer.window, layer.window), axis=(2, 3))
        return win[:, :, ::layer.stride, ::layer.stride].mean(axis=(-1, -2))
    if isinstance(layer, Flatten):
        return z.reshape(len(z), -1)
    raise TypeError(f"unknown layer type {type(layer).__name__}")


def forward(net: NetworkSpec, x: np.ndarray) -> FeatureTrace:
    """Run the network on a (B, *input_shape) batch, recording every activation."""
    z = np.asarray(x, dtype=np.float64)
    _check_batched(z, net.input_shape)
    acts = [z]
    for layer in net.layers:
        z = apply_layer(layer, z)
        acts.append(z)
    return FeatureTrace(activations=tuple(acts))


def forward_from_layer(net: NetworkSpec, layer_index: int, z: np.ndarray) -> np.ndarray:
    """Logits from feeding the batch z in as the activation entering net.layers[layer_index]."""
    if not 0 <= layer_index <= len(net.layers):
        raise IndexError(f"layer index {layer_index} out of range 0..{len(net.layers)}")
    z = np.asarray(z, dtype=np.float64)
    _check_batched(z, net.activation_shapes()[layer_index], "feature")
    for layer in net.layers[layer_index:]:
        z = apply_layer(layer, z)
    return z.reshape(len(z), -1)


def rmse_report(net: NetworkSpec, inputs: np.ndarray, delta: np.ndarray, scales,
                inject_layer: int = 0, kind: str = "perturbation") -> dict:
    """RMSE of the logit change caused by adding scale*delta to the
    activation entering net.layers[inject_layer], keyed by (kind, scale).

    inputs is a (B, *input_shape) batch and delta one sample's activation.
    RMSE = mean over the B inputs of ||perturbed_logits - clean_logits||_2
    / sqrt(n_out). Clean (scale 0) and perturbed features run as one batch:
    a BLAS product may round a row differently at another batch size.
    """
    delta = np.asarray(delta, dtype=np.float64)
    want = net.activation_shapes()[inject_layer]
    if delta.shape != want:
        raise ValueError(f"delta shape {delta.shape} != {want} at layer {inject_layer}")
    feats = forward(net, inputs).activations[inject_layer]
    scales = np.asarray(scales, dtype=np.float64)
    shifted = feats + np.append(0.0, scales).reshape(-1, *[1] * feats.ndim) * delta
    logits = forward_from_layer(net, inject_layer, shifted.reshape(-1, *want))
    logits = logits.reshape(len(scales) + 1, len(feats), -1)
    change = np.linalg.norm(logits[1:] - logits[0], axis=2) / np.sqrt(logits.shape[2])
    return {(kind, float(s)): float(r) for s, r in zip(scales, change.mean(axis=1))}


# --- serialization ------------------------------------------------------

def network_spec_to_json_dict(spec: NetworkSpec) -> dict:
    return {
        "input_shape": list(spec.input_shape),
        "layers": [layer_to_json_dict(l) for l in spec.layers],
    }


def network_spec_from_json_dict(doc: dict) -> NetworkSpec:
    """Network spec from its plain-dict form; malformed input raises a
    ValueError naming the missing or ill-typed field."""
    if not isinstance(doc, dict):
        raise ValueError(f"a network must be a JSON object, got {type(doc).__name__}")
    for name in ("input_shape", "layers"):
        if name not in doc:
            raise ValueError(f"missing field {name!r}")
        if not isinstance(doc[name], list):
            raise ValueError(f"field {name!r} must be a list, got {type(doc[name]).__name__}")
    shape = doc["input_shape"]
    if not all(type(s) is int and s >= 1 for s in shape):
        raise ValueError("field 'input_shape' must hold positive integers")
    layers = []
    for i, layer in enumerate(doc["layers"]):
        try:
            layers.append(layer_from_json_dict(layer))
        except ValueError as exc:
            raise ValueError(f"layer {i}: {exc}") from exc
    return NetworkSpec(input_shape=tuple(shape), layers=tuple(layers))


def save_network_spec(spec: NetworkSpec, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(network_spec_to_json_dict(spec), fh)
        fh.write("\n")


def load_network_spec(path) -> NetworkSpec:
    with open(path, "r", encoding="utf-8") as fh:
        return network_spec_from_json_dict(json.load(fh))
