"""Image metrics and image file handling.

Images are float64 arrays in CHW layout with values nominally in [0, 1].
SSIM here is the uniform-window variant frozen for this package: 8x8
sliding window, stride 1, constants C1 = 0.01^2 and C2 = 0.03^2 on a
dynamic range of 1.0, biased (moment) window statistics, averaged over
all window positions and channels.

PPM export quantizes to 8 bits (round(clip(v, 0, 1) * 255)) and is for
viewing only; the exact float values round-trip through a tensor file
(tensorio) instead.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import tensorio

__all__ = [
    "ssim",
    "write_ppm",
    "read_ppm",
    "save_float_image",
    "synthetic_image",
]

SSIM_WINDOW = 8
SSIM_C1 = 0.01 ** 2
SSIM_C2 = 0.03 ** 2


def _window_mean(x: np.ndarray) -> np.ndarray:
    return sliding_window_view(x, (SSIM_WINDOW, SSIM_WINDOW), axis=(-2, -1)).mean(axis=(-1, -2))


def ssim(a: np.ndarray, b: np.ndarray) -> float:
    """Mean structural similarity of two images in [-1, 1].

    Accepts (H, W) or (C, H, W) arrays of identical shape with
    H, W >= 8. Identical inputs score exactly 1.0 and the metric is
    symmetric in its arguments.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    if a.ndim not in (2, 3):
        raise ValueError(f"expected (H, W) or (C, H, W), got shape {a.shape}")
    if min(a.shape[-2:]) < SSIM_WINDOW:
        raise ValueError(f"image smaller than the {SSIM_WINDOW}x{SSIM_WINDOW} window: {a.shape}")
    mu_a = _window_mean(a)
    mu_b = _window_mean(b)
    var_a = _window_mean(a * a) - mu_a * mu_a
    var_b = _window_mean(b * b) - mu_b * mu_b
    cov = _window_mean(a * b) - mu_a * mu_b
    num = (2.0 * mu_a * mu_b + SSIM_C1) * (2.0 * cov + SSIM_C2)
    den = (mu_a * mu_a + mu_b * mu_b + SSIM_C1) * (var_a + var_b + SSIM_C2)
    return float(np.mean(num / den))


# --- PPM (P6, 8-bit) ----------------------------------------------------

def write_ppm(path, image: np.ndarray) -> None:
    """Write a 3-channel CHW float image as binary PPM, quantized to 8 bits."""
    img = np.asarray(image, dtype=np.float64)
    if img.ndim != 3 or img.shape[0] != 3:
        raise ValueError(f"PPM export needs a (3, H, W) image, got shape {img.shape}")
    q = np.rint(np.clip(img, 0.0, 1.0) * 255.0).astype(np.uint8)
    h, w = img.shape[1], img.shape[2]
    with open(path, "wb") as fh:
        fh.write(f"P6\n{w} {h}\n255\n".encode("ascii"))
        fh.write(np.transpose(q, (1, 2, 0)).tobytes())


def read_ppm(path) -> np.ndarray:
    """Read a binary PPM into a (3, H, W) float image with values in [0, 1].

    Malformed files raise ValueError naming the cause: bad magic,
    truncated header, non-integer header field, non-positive width or
    height, unsupported maxval, or short pixel data.
    """
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:2] != b"P6":
        raise ValueError(f"not a binary PPM: magic {blob[:2]!r}")
    pos = 2
    fields = []
    while len(fields) < 3:
        while pos < len(blob) and blob[pos:pos + 1].isspace():
            pos += 1
        if blob[pos:pos + 1] == b"#":
            while pos < len(blob) and blob[pos] != 0x0A:
                pos += 1
            continue
        start = pos
        while pos < len(blob) and not blob[pos:pos + 1].isspace():
            pos += 1
        if pos == len(blob):
            raise ValueError("truncated PPM header: need width, height and maxval, "
                             "each followed by whitespace")
        token = blob[start:pos]
        if not token.isdigit():
            raise ValueError(f"PPM header field {token[:20]!r} is not a non-negative integer")
        fields.append(int(token))
    pos += 1  # single whitespace after maxval
    w, h, maxval = fields
    if w < 1 or h < 1:
        raise ValueError(f"PPM width and height must be positive, got {w}x{h}")
    if maxval != 255:
        raise ValueError(f"only 8-bit PPM supported, maxval={maxval}")
    if len(blob) - pos < w * h * 3:
        raise ValueError(f"short PPM pixel data: {w}x{h} needs {w * h * 3} bytes, "
                         f"got {len(blob) - pos}")
    data = np.frombuffer(blob, dtype=np.uint8, count=w * h * 3, offset=pos)
    return np.transpose(data.reshape(h, w, 3), (2, 0, 1)).astype(np.float64) / 255.0


def save_float_image(path, image: np.ndarray) -> None:
    """Exactness-preserving storage: a tensor file whose tensor is "image"."""
    tensorio.write_tensor(path, "image", image)


def synthetic_image(seed: int, shape: tuple[int, int, int] = (3, 32, 32)) -> np.ndarray:
    """Deterministic smooth test image: per channel a random mixture of six
    low-frequency cosines, rescaled into [0.02, 0.98] (a constant one to 0.5)."""
    c, h, w = shape
    rng = np.random.default_rng(seed)
    yy, xx = np.meshgrid(np.arange(h), np.arange(w), indexing="ij")
    img = np.empty(shape, dtype=np.float64)
    for ch in range(c):
        acc = np.zeros((h, w))
        for _ in range(6):
            fy, fx = rng.uniform(-0.15, 0.15, size=2)
            phase = rng.uniform(0.0, 2.0 * np.pi)
            amp = rng.uniform(0.3, 1.0)
            acc += amp * np.cos(2.0 * np.pi * (fy * yy + fx * xx) + phase)
        span = acc.max() - acc.min()
        img[ch] = 0.02 + 0.96 * (acc - acc.min()) / span if span > 0 else 0.5
    return img
