"""Output-invariant image scrambling.

Moving an image inside the first layer's harmless subspace changes
pixels without changing any network activation downstream of that
layer. Pushed far enough (maximizing pixel-space distance under soft
[0, 1] penalties), the image becomes visually meaningless while the
network's prediction, confidences included, stays bit-near-identical.
Because infinitely many candidate originals share the same output, the
true image cannot be recovered from the network side.

Writes PPM files into ./demo_out/.
"""

from pathlib import Path

import numpy as np

from nullspan import (
    ConvLayerSpec,
    FcLayerSpec,
    Flatten,
    NetworkSpec,
    PrivacyConfig,
    Relu,
    build_equivalent,
    forward,
    harmless_basis,
    init_network,
    maximize_dissimilarity,
    sample_reconstructions,
    ssim,
    synthetic_image,
    write_ppm,
)

out_dir = Path("demo_out")
out_dir.mkdir(exist_ok=True)

spec = NetworkSpec(
    input_shape=(3, 16, 16),
    layers=(
        ConvLayerSpec(3, 16, 16, 2, 3, 3, stride=1, zero_padding=1),
        Relu(),
        Flatten(),
        FcLayerSpec(512, 10),
    ),
)
net = init_network(spec, seed=31)
u = harmless_basis(build_equivalent(net.layers[0]))
print(f"harmless subspace of the first layer: {u.shape[1]} of {u.shape[0]} dims")

x = synthetic_image(77, (3, 16, 16))

# the optimizer takes a stack of images (B, C, H, W) and one seed per image;
# here the stack holds a single image. It needs only the harmless basis u:
# the network runs afterwards, to check that its output did not move.
result = maximize_dissimilarity(x[None], u, PrivacyConfig(), seeds=[123])
x_hat = result.image[0]
clean, scrambled = forward(net, np.stack([x, x_hat]))

print(f"\npixel mse between original and scrambled: {result.mse[0]:.4f}")
print(f"structural similarity (ssim):             {ssim(x, x_hat):.4f}")
print(f"largest out-of-range pixel excursion:     {result.max_bound_violation[0]:.2e}")
print(f"max |logit change|:                       {np.max(np.abs(scrambled - clean)):.3e}")
print(f"prediction: {int(np.argmax(clean))} -> {int(np.argmax(scrambled))}")

write_ppm(out_dir / "original.ppm", x)
write_ppm(out_dir / "scrambled.ppm", x_hat)
pert = x_hat - x
write_ppm(out_dir / "perturbation.ppm", (pert - pert.min()) / (pert.max() - pert.min()))

# ambiguity: subtracting any other harmless vector yields an equally
# valid "original" with the identical network output
recons = sample_reconstructions(result.image, u, k=4, seeds=[5])[0]
print("\nrecovery ambiguity, 4 candidate originals:")
for i, candidate in enumerate(recons):
    dev = np.max(np.abs(forward(net, candidate[None])[0] - scrambled))
    dist = np.linalg.norm(candidate - x)
    print(f"  candidate {i}: |logit diff| = {dev:.2e}, "
          f"l2 distance from the true original = {dist:.2f}")
    write_ppm(out_dir / f"candidate{i}.ppm", np.clip(candidate, 0, 1))

print(f"\nimages written to {out_dir}/")
