"""Least harmful perturbations when no harmless subspace exists.

If a layer's input dimension does not exceed its output dimension, the
nullspace is trivial: every nonzero perturbation changes the output.
The best one can do is the unit direction minimizing the output energy,
the bottom eigenvector of the layer's Gram matrix.
"""

import numpy as np

from nullspan import ConvLayerSpec, build_equivalent, harmless_basis, least_harmful

rng = np.random.default_rng(7)

# channel-expanding convolution: input 512, output 2048, nullity 0
spec = ConvLayerSpec(8, 8, 8, 32, 3, 3, stride=1, zero_padding=1,
                     kernels=rng.standard_normal((32, 8, 3, 3)))
a = build_equivalent(spec)
print(f"layer {a.shape[1]} -> {a.shape[0]}, harmless dimension = "
      f"{harmless_basis(a).shape[1]}")

lh = least_harmful(a)
print(f"least harmful direction: |A v|^2 = {lh.residual:.6f} "
      f"(in nullspace: {lh.in_nullspace})")

# compare with random unit perturbations at the same norm
deltas = rng.standard_normal((512, 2000))
deltas /= np.linalg.norm(deltas, axis=0)
energies = np.sum((a @ deltas) ** 2, axis=0)
print(f"random unit directions:  |A delta|^2 in "
      f"[{energies.min():.4f}, {energies.max():.4f}], "
      f"mean {energies.mean():.4f}")
print(f"advantage over the best of 2000 random draws: "
      f"{energies.min() / lh.residual:.1f}x")

# the effect scales linearly with the perturbation magnitude: unlike the
# harmless case, magnitude now matters, but the least harmful direction
# stays far quieter than noise at every scale
print("\noutput norm by scale (least harmful vs mean Gaussian):")
gauss = deltas[:, 0]
for scale in (1.0, 4.0, 16.0, 64.0):
    lh_out = np.linalg.norm(a @ (scale * lh.direction))
    g_out = np.linalg.norm(a @ (scale * gauss))
    print(f"  scale {scale:>5.0f}: {lh_out:10.4f} vs {g_out:10.4f}")
