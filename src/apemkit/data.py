"""Dataset loading: IDX image/label files and a seeded synthetic generator."""

from __future__ import annotations

import gzip
import struct
import zlib

import numpy as np

from .errors import DataError, FormatError
from .explain import bilinear_resize
from .netcore import Dataset

IDX_IMAGE_MAGIC = 0x00000803
IDX_LABEL_MAGIC = 0x00000801


def _read_maybe_gzip(path) -> bytes:
    """A file's bytes, gunzipped when it starts with the gzip magic."""
    with open(path, "rb") as f:
        raw = f.read()
    if raw[:2] != b"\x1f\x8b":
        return raw
    try:
        return gzip.decompress(raw)
    except (EOFError, gzip.BadGzipFile, zlib.error) as e:
        raise FormatError(f"{path}: bad gzip data: {e}") from None


def load_idx_images(path) -> np.ndarray:
    """Read an IDX3 unsigned-byte image file, rescaled to [0, 1].

    Returns (n, 1, h, w) float64.
    """
    data = _read_maybe_gzip(path)
    if len(data) < 16:
        raise FormatError(f"{path}: truncated IDX image header")
    magic, n, h, w = struct.unpack(">IIII", data[:16])
    if magic != IDX_IMAGE_MAGIC:
        raise FormatError(f"{path}: bad IDX image magic 0x{magic:08x}")
    raw = data[16 : 16 + n * h * w]
    if len(raw) != n * h * w:
        raise FormatError(f"{path}: expected {n * h * w} pixels, got {len(raw)}")
    images = np.frombuffer(raw, dtype=np.uint8).reshape(n, 1, h, w)
    return images.astype(np.float64) / 255.0


def load_idx_labels(path) -> np.ndarray:
    data = _read_maybe_gzip(path)
    if len(data) < 8:
        raise FormatError(f"{path}: truncated IDX label header")
    magic, n = struct.unpack(">II", data[:8])
    if magic != IDX_LABEL_MAGIC:
        raise FormatError(f"{path}: bad IDX label magic 0x{magic:08x}")
    raw = data[8 : 8 + n]
    if len(raw) != n:
        raise FormatError(f"{path}: expected {n} labels, got {len(raw)}")
    return np.frombuffer(raw, dtype=np.uint8).astype(np.int64)


def load_idx_dataset(image_path, label_path) -> Dataset:
    images = load_idx_images(image_path)
    labels = load_idx_labels(label_path)
    if len(images) != len(labels):
        raise DataError(
            f"image count {len(images)} != label count {len(labels)} "
            f"({image_path} vs {label_path})"
        )
    return Dataset(images=images, labels=labels)


def synthetic_dataset(
    n_images: int,
    n_classes: int = 10,
    image_size: int = 28,
    seed: int = 0,
    noise_std: float = 0.3,
) -> Dataset:
    """Seeded synthetic classification set.

    Each class template is a single Gaussian bump at a class-specific
    location over a faint smooth background field; samples are the template
    at a random contrast plus i.i.d. Gaussian pixel noise, clipped to
    [0, 1]. The localized bump gives each class a compact discriminative
    region (so relevance maps have meaningful structure), while the noise
    level makes some samples genuinely ambiguous, so a trained model
    misclassifies a fraction of them. Templates are drawn from a fixed
    RNG seed (0) and depend only on the class count and size, so draws
    with different sample seeds share the same classes.
    """
    if n_images < 1 or n_classes < 2 or image_size < 8:
        raise DataError("synthetic dataset needs n_images >= 1, n_classes >= 2, size >= 8")
    rng = np.random.default_rng(seed)
    template_rng = np.random.default_rng(0)
    coarse = max(4, image_size // 4)
    bg = bilinear_resize(template_rng.normal(size=(coarse, coarse)), image_size, image_size)
    bg = (bg - bg.min()) / (bg.max() - bg.min())
    margin = max(2, image_size // 6)
    yy, xx = np.mgrid[0:image_size, 0:image_size].astype(np.float64)
    sigma = 1.3 * image_size / 28.0
    templates = []
    for _ in range(n_classes):
        cy, cx = template_rng.uniform(margin, image_size - margin, size=2)
        bump = np.exp(-((yy - cy) ** 2 + (xx - cx) ** 2) / (2.0 * sigma**2))
        templates.append(0.2 * bg + bump)
    labels = rng.integers(0, n_classes, size=n_images)
    images = np.empty((n_images, 1, image_size, image_size))
    for i, lbl in enumerate(labels):
        contrast = rng.uniform(0.35, 1.0)
        noise = rng.normal(0.0, noise_std, size=(image_size, image_size))
        images[i, 0] = np.clip(contrast * templates[lbl] + noise, 0.0, 1.0)
    return Dataset(images=images, labels=labels.astype(np.int64))
