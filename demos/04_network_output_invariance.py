"""End-to-end output invariance through a real nonlinear network.

A harmless perturbation of the first linear layer's input leaves that
layer's output bit-near-identical, so every downstream nonlinearity
receives the same values and the network output cannot change, whatever
the perturbation's magnitude. This demo measures that through a small
conv/relu/pool/fc stack and contrasts Gaussian noise.
"""

import numpy as np

from nullspan import (
    AvgPool,
    ConvLayerSpec,
    FcLayerSpec,
    Flatten,
    NetworkSpec,
    Relu,
    build_equivalent,
    forward,
    harmless_basis,
    init_network,
    rmse_report,
    sample_harmless,
    synthetic_image,
)

spec = NetworkSpec(
    input_shape=(3, 16, 16),
    layers=(
        ConvLayerSpec(3, 16, 16, 4, 5, 5, stride=2, zero_padding=2),
        Relu(),
        AvgPool(window=2, stride=2),
        Flatten(),
        FcLayerSpec(64, 10),
    ),
)
net = init_network(spec, seed=2024)
a = build_equivalent(net.layers[0])
u = harmless_basis(a)
print(f"first layer {a.shape[1]} -> {a.shape[0]}: harmless dimension {u.shape[1]}")

x = synthetic_image(5, (3, 16, 16))
clean = forward(net, x[None])
print(f"clean prediction: class {int(np.argmax(clean.logits))}")

delta = sample_harmless(u, seed=9, target_norm=8 / 255, norm_kind="linf")
delta = delta.reshape(3, 16, 16)

print("\nmax |logit change| for the harmless direction at growing scales:")
for scale in (1, 4, 16, 64, 256):
    pert = forward(net, (x + scale * delta)[None])
    dev = np.max(np.abs(pert.logits - clean.logits))
    print(f"  scale {scale:>4}: {dev:.3e}   "
          f"class {int(np.argmax(pert.logits))}")

# the same experiment as an RMSE table, harmless vs Gaussian noise of
# the same starting magnitude
inputs = [synthetic_image(100 + i, (3, 16, 16)) for i in range(6)]
scales = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0)
gauss = np.random.default_rng(11).standard_normal((3, 16, 16))
gauss *= (8 / 255) / np.max(np.abs(gauss))

harmless_rows = rmse_report(net, inputs, delta, scales, 0, kind="harmless")
gauss_rows = rmse_report(net, inputs, gauss, scales, 0, kind="gaussian")

print("\nlogit RMSE over 6 images:")
print("  scale      harmless       gaussian")
for s in scales:
    print(f"  {s:>5.0f}    {harmless_rows[('harmless', s)]:.3e}    "
          f"{gauss_rows[('gaussian', s)]:.3e}")
