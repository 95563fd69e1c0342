"""The five layer kinds, their JSON codec, and the lowering of the linear
ones (convolutional and fully-connected) to a single matrix.

A linear layer z_out = layer(z_in) is represented by the sparse matrix A
with A @ vec(z_in) = vec(z_out), where vec() flattens channel-major
(CHW order, i.e. numpy C-order on a (C, H, W) array). The build_*
functions return A as a plain scipy csr_matrix of shape
(output_dim, input_dim); the layer's kind and shapes stay on its spec.
Bias terms are excluded from A on purpose: an input perturbation delta
changes the layer output by exactly A @ delta whether or not the layer
carries a bias, so the matrix captures everything perturbation analysis
needs.

Convolution here means what neural network libraries compute: sliding
cross-correlation with the kernel, stride S, and symmetric zero padding
O. Padded positions multiply a constant zero and therefore contribute
no matrix entry.
"""

from __future__ import annotations

import json
from dataclasses import MISSING, dataclass, fields

import numpy as np
import scipy.sparse as sp

__all__ = [
    "ConvLayerSpec",
    "FcLayerSpec",
    "Relu",
    "AvgPool",
    "Flatten",
    "LAYER_KINDS",
    "build_conv_equivalent",
    "build_fc_equivalent",
    "build_equivalent",
    "conv_forward",
    "fc_forward",
    "verify_equivalence",
    "predict_nullspace_dim",
    "layer_to_json_dict",
    "layer_from_json_dict",
    "save_layer_json",
    "load_layer_json",
]


def _check_positive(name, value):
    if int(value) != value or value < 1:
        raise ValueError(f"{name} must be a positive integer, got {value!r}")
    return int(value)


def _param(name: str, value, shape: tuple[int, ...]) -> np.ndarray | None:
    """A layer parameter as a float64 array of the given shape with finite
    entries, or None for a geometry-only spec."""
    if value is None:
        return None
    value = np.asarray(value, dtype=np.float64)
    if value.shape != shape:
        raise ValueError(f"{name} shape {value.shape} != {shape}")
    if not np.all(np.isfinite(value)):
        raise ValueError(f"{name} contains non-finite values")
    return value


@dataclass
class ConvLayerSpec:
    """Geometry and (optionally) parameters of a 2-d convolutional layer.

    kernels has shape (out_channels, in_channels, kernel_h, kernel_w);
    bias has shape (out_channels,). Both may be None for a geometry-only
    spec (e.g. before network initialization draws weights).
    """

    in_channels: int
    in_height: int
    in_width: int
    out_channels: int
    kernel_h: int
    kernel_w: int
    stride: int = 1
    zero_padding: int = 0
    kernels: np.ndarray | None = None
    bias: np.ndarray | None = None

    def __post_init__(self):
        for name in ("in_channels", "in_height", "in_width", "out_channels",
                     "kernel_h", "kernel_w", "stride"):
            setattr(self, name, _check_positive(name, getattr(self, name)))
        if int(self.zero_padding) != self.zero_padding or self.zero_padding < 0:
            raise ValueError(f"zero_padding must be a non-negative integer, got {self.zero_padding!r}")
        self.zero_padding = int(self.zero_padding)
        if self.out_height < 1:
            raise ValueError(
                f"out_height = {self.out_height} < 1 "
                f"(in_height={self.in_height}, kernel_h={self.kernel_h}, "
                f"stride={self.stride}, zero_padding={self.zero_padding})"
            )
        if self.out_width < 1:
            raise ValueError(
                f"out_width = {self.out_width} < 1 "
                f"(in_width={self.in_width}, kernel_w={self.kernel_w}, "
                f"stride={self.stride}, zero_padding={self.zero_padding})"
            )
        self.kernels = _param("kernels", self.kernels, (
            self.out_channels, self.in_channels, self.kernel_h, self.kernel_w))
        self.bias = _param("bias", self.bias, (self.out_channels,))

    @property
    def out_height(self) -> int:
        return (self.in_height - self.kernel_h + 2 * self.zero_padding) // self.stride + 1

    @property
    def out_width(self) -> int:
        return (self.in_width - self.kernel_w + 2 * self.zero_padding) // self.stride + 1

    @property
    def input_shape(self) -> tuple[int, int, int]:
        return (self.in_channels, self.in_height, self.in_width)

    @property
    def output_shape(self) -> tuple[int, int, int]:
        return (self.out_channels, self.out_height, self.out_width)

    @property
    def input_dim(self) -> int:
        return self.in_channels * self.in_height * self.in_width

    @property
    def output_dim(self) -> int:
        return self.out_channels * self.out_height * self.out_width


@dataclass
class FcLayerSpec:
    """Fully-connected layer mapping z to weight.T @ z (+ bias).

    weight has shape (in_features, out_features); bias has shape
    (out_features,). Both may be None for a geometry-only spec.
    """

    in_features: int
    out_features: int
    weight: np.ndarray | None = None
    bias: np.ndarray | None = None

    def __post_init__(self):
        self.in_features = _check_positive("in_features", self.in_features)
        self.out_features = _check_positive("out_features", self.out_features)
        self.weight = _param("weight", self.weight, (self.in_features, self.out_features))
        self.bias = _param("bias", self.bias, (self.out_features,))

    @property
    def input_shape(self) -> tuple[int]:
        return (self.in_features,)

    @property
    def output_shape(self) -> tuple[int]:
        return (self.out_features,)

    @property
    def input_dim(self) -> int:
        return self.in_features

    @property
    def output_dim(self) -> int:
        return self.out_features


@dataclass(frozen=True)
class Relu:
    pass


@dataclass(frozen=True)
class AvgPool:
    window: int
    stride: int

    def __post_init__(self):
        if self.window < 1 or self.stride < 1:
            raise ValueError(f"avgpool window and stride must be positive, "
                             f"got {self.window} and {self.stride}")


@dataclass(frozen=True)
class Flatten:
    pass


#: JSON "kind" of each layer class; the codec below reads and writes them.
LAYER_KINDS = {"conv": ConvLayerSpec, "fc": FcLayerSpec, "relu": Relu,
               "avgpool": AvgPool, "flatten": Flatten}


def build_conv_equivalent(spec: ConvLayerSpec) -> sp.csr_matrix:
    """Lower a convolutional layer to its sparse equivalent matrix.

    Row j*H_out*W_out + oy*W_out + ox holds the receptive field of
    kernel j at output position (oy, ox): entry value kernels[j,c,ky,kx]
    at flat input column c*H_in*W_in + iy*W_in + ix, where
    iy = oy*stride - padding + ky (and likewise ix), skipping positions
    that fall in the zero padding.
    """
    if spec.kernels is None:
        raise ValueError("spec.kernels is None; lowering needs concrete kernel values")
    c_out, h_out, w_out = spec.output_shape
    c_in, h_in, w_in = spec.input_shape

    oy, ox, c, ky, kx = np.meshgrid(
        np.arange(h_out), np.arange(w_out), np.arange(c_in),
        np.arange(spec.kernel_h), np.arange(spec.kernel_w),
        indexing="ij",
    )
    iy = oy * spec.stride - spec.zero_padding + ky
    ix = ox * spec.stride - spec.zero_padding + kx
    valid = (iy >= 0) & (iy < h_in) & (ix >= 0) & (ix < w_in)

    base_rows = (oy * w_out + ox)[valid]
    cols = (c * h_in * w_in + iy * w_in + ix)[valid]
    c_v, ky_v, kx_v = c[valid], ky[valid], kx[valid]

    plane = h_out * w_out
    row_parts, col_parts, val_parts = [], [], []
    for j in range(c_out):
        row_parts.append(base_rows + j * plane)
        col_parts.append(cols)
        val_parts.append(spec.kernels[j, c_v, ky_v, kx_v])
    coo = sp.coo_matrix(
        (np.concatenate(val_parts), (np.concatenate(row_parts), np.concatenate(col_parts))),
        shape=(spec.output_dim, spec.input_dim),
    )
    csr = coo.tocsr()
    csr.eliminate_zeros()
    csr.sort_indices()
    return csr


def build_fc_equivalent(spec: FcLayerSpec) -> sp.csr_matrix:
    """Lower a fully-connected layer: A = weight.T, bias excluded."""
    if spec.weight is None:
        raise ValueError("spec.weight is None; lowering needs concrete weight values")
    csr = sp.csr_matrix(spec.weight.T)
    csr.eliminate_zeros()
    csr.sort_indices()
    return csr


def build_equivalent(spec) -> sp.csr_matrix:
    """The sparse matrix A of a conv or fc layer; see the module docstring."""
    if isinstance(spec, ConvLayerSpec):
        return build_conv_equivalent(spec)
    if isinstance(spec, FcLayerSpec):
        return build_fc_equivalent(spec)
    raise TypeError(f"not a linear layer spec: {type(spec).__name__}")


def _check_batched(x: np.ndarray, shape: tuple[int, ...], what: str = "input") -> None:
    """Raise ValueError unless x is a batch of samples shaped (B, *shape)."""
    if x.shape[1:] != tuple(shape):
        raise ValueError(f"{what} shape {x.shape} != (B, {', '.join(map(str, shape))})")


def conv_forward(spec: ConvLayerSpec, x: np.ndarray, include_bias: bool = True) -> np.ndarray:
    """Direct evaluation (no lowering) of a (B, C_in, H_in, W_in) batch
    to (B, C_out, H_out, W_out). Each kernel tap contracts one strided
    slice of the padded input, so no window (im2col) copy is formed."""
    _check_batched(x, spec.input_shape)
    if spec.kernels is None:
        raise ValueError("spec.kernels is None")
    o, s = spec.zero_padding, spec.stride
    xp = np.pad(x, ((0, 0), (0, 0), (o, o), (o, o))) if o else x
    _, h_out, w_out = spec.output_shape
    out = np.zeros((len(x), h_out, w_out, spec.out_channels))
    for dy in range(spec.kernel_h):
        for dx in range(spec.kernel_w):
            tap = xp[:, :, dy::s, dx::s][:, :, :h_out, :w_out]
            out += np.tensordot(tap, spec.kernels[:, :, dy, dx], axes=([1], [1]))
    if include_bias and spec.bias is not None:
        out += spec.bias
    return out.transpose(0, 3, 1, 2)


def fc_forward(spec: FcLayerSpec, z: np.ndarray, include_bias: bool = True) -> np.ndarray:
    """Direct evaluation z @ weight (+ bias) of a (B, in_features) batch."""
    z = np.asarray(z, dtype=np.float64)
    _check_batched(z, spec.input_shape)
    if spec.weight is None:
        raise ValueError("spec.weight is None")
    out = z @ spec.weight
    if include_bias and spec.bias is not None:
        out += spec.bias
    return out


def verify_equivalence(a: sp.csr_matrix, spec, samples: int = 100, seed: int = 0) -> float:
    """Max abs deviation between direct evaluation of spec and the product
    with its lowered matrix a over `samples` seeded standard-normal inputs
    (bias suppressed), drawn as one (samples, *input_shape) batch.
    """
    x = np.random.default_rng(seed).standard_normal((samples, *spec.input_shape))
    layer_forward = conv_forward if isinstance(spec, ConvLayerSpec) else fc_forward
    direct = layer_forward(spec, x, include_bias=False).reshape(samples, -1)
    via = (a @ x.reshape(samples, -1).T).T
    return float(np.max(np.abs(direct - via)))


def predict_nullspace_dim(spec) -> int:
    """Predicted nullspace dimension max(0, input_dim - output_dim): the
    nullity of a lowered matrix of full rank. Only a rank decision of the
    instance proves it; a convolution can drop rank for every kernel of
    its shape."""
    return max(0, spec.input_dim - spec.output_dim)


# --- JSON serialization ------------------------------------------------
#
# A layer's JSON object is its "kind" followed by its dataclass fields in
# declaration order. Fields that default to None are parameter arrays
# (nested lists or null); all others are integers, optional when the
# dataclass gives them a default.

def _kind(layer) -> str:
    for kind, cls in LAYER_KINDS.items():
        if type(layer) is cls:
            return kind
    raise TypeError(f"unknown layer type {type(layer).__name__}")


def layer_to_json_dict(layer) -> dict:
    """Plain-dict form of a layer; parameter arrays as nested lists."""
    doc = {"kind": _kind(layer)}
    for f in fields(layer):
        value = getattr(layer, f.name)
        doc[f.name] = value.tolist() if isinstance(value, np.ndarray) else value
    return doc


def _json_int(doc: dict, name: str, default) -> int:
    """Integer field of a JSON object, or default when absent and default
    is not MISSING; a ValueError names a missing or non-integer field."""
    if name not in doc:
        if default is MISSING:
            raise ValueError(f"missing field {name!r}")
        return default
    value = doc[name]
    if type(value) is not int:
        raise ValueError(f"field {name!r} must be an integer, got {type(value).__name__}")
    return value


def _json_array(doc: dict, name: str) -> np.ndarray | None:
    value = doc.get(name)
    if value is None:
        return None
    try:
        return np.asarray(value, dtype=np.float64)
    except (TypeError, ValueError, OverflowError):
        raise ValueError(f"field {name!r} must be a numeric array or null") from None


def layer_from_json_dict(doc: dict):
    """Layer from its plain-dict form; malformed input raises ValueError."""
    if not isinstance(doc, dict):
        raise ValueError(f"a layer must be a JSON object, got {type(doc).__name__}")
    kind = doc.get("kind")
    cls = LAYER_KINDS.get(kind) if isinstance(kind, str) else None
    if cls is None:
        raise ValueError(f"unknown layer kind {kind!r}")
    return cls(**{f.name: _json_array(doc, f.name) if f.default is None
                  else _json_int(doc, f.name, f.default) for f in fields(cls)})


def save_layer_json(spec, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(layer_to_json_dict(spec), fh)
        fh.write("\n")


def load_layer_json(path):
    """The conv or fc layer in a layer JSON file; any other content raises
    a ValueError naming the cause."""
    with open(path, "r", encoding="utf-8") as fh:
        layer = layer_from_json_dict(json.load(fh))
    if not isinstance(layer, (ConvLayerSpec, FcLayerSpec)):
        raise ValueError(f"a layer file must hold a conv or fc layer, got kind {_kind(layer)!r}")
    return layer
