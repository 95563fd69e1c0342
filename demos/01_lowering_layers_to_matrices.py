"""Lowering linear layers to a single matrix.

A convolution or fully-connected layer is a linear map, so there is a
matrix A with A @ vec(input) = vec(output) (bias aside, which cancels in
every difference we care about). This demo builds A for a few layers,
checks it against direct evaluation, and shows how the nullspace
dimension follows from the geometry.
"""

import numpy as np

from nullspan import (
    ConvLayerSpec,
    FcLayerSpec,
    build_equivalent,
    conv_forward,
    predict_nullspace_dim,
    verify_equivalence,
)
from nullspan.linalg import decide_rank

# A 1x1 kernel of value 1 is the identity map: the lowered matrix is
# literally the identity.
identity = ConvLayerSpec(1, 4, 4, 1, 1, 1, kernels=np.ones((1, 1, 1, 1)))
eq = build_equivalent(identity)
print("identity 1x1 conv ->", eq.rows, "x", eq.cols,
      "identity:", np.array_equal(eq.dense(), np.eye(16)))

# A worked example small enough to check by hand: a single 2x2 kernel
# [[1, 2], [3, 4]] sliding over the 3x3 input 1..9.
kernel = np.array([[[[1.0, 2.0], [3.0, 4.0]]]])
spec = ConvLayerSpec(1, 3, 3, 1, 2, 2, kernels=kernel)
eq = build_equivalent(spec)
x = np.arange(1.0, 10.0).reshape(1, 3, 3)
print("\nhand example   A @ vec(x) =", eq.matrix @ x.ravel())
print("direct sliding window      =", conv_forward(spec, x[None]).ravel())

# The lowering is exercised against direct evaluation on random inputs;
# the residual is floating-point noise.
rng = np.random.default_rng(0)
strided = ConvLayerSpec(3, 32, 32, 10, 7, 7, stride=2, zero_padding=3,
                        kernels=rng.standard_normal((10, 3, 7, 7)))
eq = build_equivalent(strided)
residual = verify_equivalence(eq, strided, samples=50, seed=1)
print(f"\nstrided padded layer: A is {eq.rows} x {eq.cols} with {eq.nnz} nonzeros")
print(f"max |direct - lowered| over 50 random inputs: {residual:.3e}")

# Whenever the input dimension exceeds the output dimension (and the
# geometry is benign), the difference is exactly the nullspace dimension:
# the number of independent input directions the layer cannot see.
print("\npredicted nullspace dimensions:")
for layer in (
    strided,
    ConvLayerSpec(64, 8, 8, 128, 3, 3, stride=2, zero_padding=1),
    FcLayerSpec(3072, 3072),
    FcLayerSpec(784, 98),
):
    pred = predict_nullspace_dim(layer)
    kind = "conv" if isinstance(layer, ConvLayerSpec) else "fc"
    print(f"  {kind} {layer.input_dim:>5} -> {layer.output_dim:>5}: dim {pred.dim:>5}"
          f"{'' if pred.guaranteed else '  (formula unguaranteed, use numerics)'}")

# For a small layer the numerical nullity confirms the arithmetic.
small = ConvLayerSpec(2, 8, 8, 1, 3, 3, stride=1, zero_padding=1,
                      kernels=rng.standard_normal((1, 2, 3, 3)))
eq = build_equivalent(small)
print(f"\nsmall wide layer {eq.cols} -> {eq.rows}: "
      f"predicted {predict_nullspace_dim(small).dim}, "
      f"numerical {decide_rank(eq.matrix).nullity}")
