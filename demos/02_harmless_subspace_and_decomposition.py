"""The harmless subspace and the orthogonal decomposition.

The nullspace of a layer's matrix contains every perturbation the layer
cannot see. Any perturbation splits uniquely into a component inside
that subspace (invisible) and a component orthogonal to it (the only
part the output depends on). This demo walks the laws that follow.
"""

import numpy as np

from nullspan import (
    FcLayerSpec,
    build_equivalent,
    classify_pair,
    harmless_basis,
    orthogonal_decompose,
    sample_harmless,
)

rng = np.random.default_rng(42)
spec = FcLayerSpec(20, 12, weight=rng.standard_normal((20, 12)))
eq = build_equivalent(spec)
a = eq.matrix

basis = harmless_basis(eq)
print(f"layer 20 -> 12: harmless subspace dimension d = {basis.dim}")

# every basis direction, at any magnitude, produces zero layer output
delta = sample_harmless(basis, seed=1, target_norm=1000.0)
print(f"|A @ (huge harmless delta)|_max = {np.max(np.abs(a @ delta)):.3e}")

# unique split: delta = parallel + orthogonal, and the output only sees
# the orthogonal part
delta = rng.standard_normal(20)
dec = orthogonal_decompose(basis, delta)
print("\ndecomposition of a random perturbation:")
print(f"  |parallel|   = {np.linalg.norm(dec.parallel):.4f}")
print(f"  |orthogonal| = {np.linalg.norm(dec.orthogonal):.4f}")
print(f"  |A delta - A delta_orth|_max = "
      f"{np.max(np.abs(a @ delta - a @ dec.orthogonal)):.3e}")

# among all perturbations with this output, the orthogonal component has
# the smallest possible norm
shifted = dec.orthogonal + sample_harmless(basis, seed=2, target_norm=5.0)
print(f"  |orthogonal| {np.linalg.norm(dec.orthogonal):.4f} <= "
      f"|orthogonal + harmless| {np.linalg.norm(shifted):.4f}")

# perturbation families: same orthogonal component -> same output;
# proportional components -> proportional outputs; otherwise different
print("\npair classification:")
same = delta + sample_harmless(basis, seed=3, target_norm=7.0)
print("  delta vs delta + harmless:     ",
      classify_pair(basis, delta, same).kind)
scaled = 3.0 * dec.orthogonal + sample_harmless(basis, seed=4, target_norm=2.0)
verdict = classify_pair(basis, scaled, delta)
print(f"  3x orthogonal vs delta:         {verdict.kind} "
      f"(alpha = {verdict.alpha:.6f})")
other = rng.standard_normal(20)
print("  two independent perturbations: ",
      classify_pair(basis, delta, other).kind)

# contour view: output norm depends on the orthogonal multiplier only
print("\n|A(a * orth + b * par)| over a small grid (rows: a, cols: b):")
for a_mult in (0.0, 1.0, 2.0):
    row = [np.linalg.norm(a @ (a_mult * dec.orthogonal + b * dec.parallel))
           for b in (0.0, 1.0, 2.0)]
    print("   ", "  ".join(f"{v:8.4f}" for v in row))
