"""IDX loading and the synthetic dataset generator."""

import gzip
import struct

import numpy as np
import pytest

from apemkit.data import (
    load_idx_dataset,
    load_idx_images,
    load_idx_labels,
    synthetic_dataset,
)
from apemkit.errors import DataError, FormatError, InputShapeError
from apemkit.netcore import Dataset


def write_idx_images(path, images):
    n, h, w = images.shape
    with open(path, "wb") as f:
        f.write(struct.pack(">IIII", 0x803, n, h, w))
        f.write(images.astype(np.uint8).tobytes())


def write_idx_labels(path, labels):
    with open(path, "wb") as f:
        f.write(struct.pack(">II", 0x801, len(labels)))
        f.write(np.asarray(labels, dtype=np.uint8).tobytes())


def test_idx_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    imgs = rng.integers(0, 256, (5, 6, 7)).astype(np.uint8)
    labels = np.array([0, 1, 2, 1, 0], dtype=np.uint8)
    ip, lp = tmp_path / "im.idx", tmp_path / "lb.idx"
    write_idx_images(ip, imgs)
    write_idx_labels(lp, labels)
    ds = load_idx_dataset(ip, lp)
    assert ds.images.shape == (5, 1, 6, 7)
    np.testing.assert_allclose(ds.images[:, 0], imgs / 255.0)
    np.testing.assert_array_equal(ds.labels, labels)


def test_idx_reads_gzip_transparently(tmp_path):
    imgs = np.zeros((2, 4, 4), dtype=np.uint8)
    raw = struct.pack(">IIII", 0x803, 2, 4, 4) + imgs.tobytes()
    path = tmp_path / "im.idx.gz"
    path.write_bytes(gzip.compress(raw))
    out = load_idx_images(path)
    assert out.shape == (2, 1, 4, 4)


def test_idx_rejects_wrong_magic_and_truncation(tmp_path):
    p = tmp_path / "bad.idx"
    p.write_bytes(struct.pack(">IIII", 0x999, 1, 2, 2) + b"\x00" * 4)
    with pytest.raises(FormatError):
        load_idx_images(p)
    q = tmp_path / "short.idx"
    q.write_bytes(struct.pack(">IIII", 0x803, 2, 4, 4) + b"\x00" * 10)
    with pytest.raises(FormatError):
        load_idx_images(q)
    r = tmp_path / "lbl.idx"
    r.write_bytes(struct.pack(">II", 0x803, 3) + b"\x00\x01\x02")
    with pytest.raises(FormatError):
        load_idx_labels(r)


def test_idx_dataset_length_mismatch(tmp_path):
    ip, lp = tmp_path / "im.idx", tmp_path / "lb.idx"
    write_idx_images(ip, np.zeros((3, 4, 4), dtype=np.uint8))
    write_idx_labels(lp, [0, 1])
    with pytest.raises(DataError):
        load_idx_dataset(ip, lp)


def test_synthetic_dataset_is_seeded_and_in_unit_range():
    a = synthetic_dataset(40, seed=3)
    b = synthetic_dataset(40, seed=3)
    c = synthetic_dataset(40, seed=4)
    np.testing.assert_array_equal(a.images, b.images)
    np.testing.assert_array_equal(a.labels, b.labels)
    assert not np.array_equal(a.images, c.images)
    assert a.images.min() >= 0 and a.images.max() <= 1
    assert a.images.shape == (40, 1, 28, 28)


def test_synthetic_dataset_classes_are_shared_across_sample_seeds():
    # different draws from the same template seed must describe the same
    # classification problem: class means should correlate strongly
    a = synthetic_dataset(400, seed=1)
    b = synthetic_dataset(400, seed=2)
    grand_a = a.images.mean(axis=0)[0]
    grand_b = b.images.mean(axis=0)[0]

    def signature(ds, grand, cls):
        # subtracting the grand mean isolates each class's own bump
        return (ds.images[ds.labels == cls].mean(axis=0)[0] - grand).ravel()

    for cls in range(3):
        ma = signature(a, grand_a, cls)
        same = np.corrcoef(ma, signature(b, grand_b, cls))[0, 1]
        cross = max(
            np.corrcoef(ma, signature(b, grand_b, other))[0, 1]
            for other in range(10)
            if other != cls
        )
        assert same > 0.4
        assert same > cross


def test_synthetic_dataset_parameter_validation():
    with pytest.raises(DataError):
        synthetic_dataset(0)
    with pytest.raises(DataError):
        synthetic_dataset(5, n_classes=1)
    ds = synthetic_dataset(5, n_classes=4, image_size=16)
    assert ds.images.shape == (5, 1, 16, 16)
    assert set(np.unique(ds.labels)) <= {0, 1, 2, 3}


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_dataset_rejects_non_finite_pixels(bad):
    images = np.full((2, 1, 8, 8), 0.5)
    images[1, 0, 3, 4] = bad
    with pytest.raises(InputShapeError):
        Dataset(images=images, labels=[0, 1])
    with pytest.raises(InputShapeError):
        Dataset(images=np.full((1, 1, 8, 8), bad), labels=[0])
