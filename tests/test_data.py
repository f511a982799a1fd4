"""Dataset containers, generators, IDX parsing, stratified splits and CSV
round-trips."""

import struct

import numpy as np
import pytest

from iad.data import (CsvFormatError, Dataset, IdxFormatError, load_csv,
                      load_idx, make_blobs, make_ood_ring, save_csv,
                      scale_unit, split, triangle_centers)


def blobs(seed=0, spread=0.6, n=100):
    return make_blobs(3, n, triangle_centers(4.0), spread,
                      np.random.default_rng(seed))


# ----------------------------------------------------------------- container

def test_dataset_validation():
    x = np.zeros((4, 2))
    with pytest.raises(ValueError):
        Dataset(x, np.eye(3))                     # row count mismatch
    with pytest.raises(ValueError):
        Dataset(x, np.full((4, 3), 0.5))          # not one-hot
    with pytest.raises(ValueError):
        Dataset(np.array([[1.0, float("inf")]]), None)


def test_label_indices_match_one_hot():
    ds = blobs()
    assert np.array_equal(ds.labels[np.arange(ds.n), ds.label_indices],
                          np.ones(ds.n))
    assert ds.k == 3 and ds.d == 2 and ds.n == 300


# ---------------------------------------------------------------- make_blobs

def test_make_blobs_balanced():
    ds = blobs()
    counts = ds.labels.sum(axis=0)
    assert np.array_equal(counts, [100, 100, 100])


def test_make_blobs_zero_spread_limit():
    ds = make_blobs(3, 10, triangle_centers(4.0), 1e-12,
                    np.random.default_rng(1))
    centers = triangle_centers(4.0)
    for j in range(3):
        pts = ds.features[ds.label_indices == j]
        assert np.allclose(pts, centers[j], atol=1e-9)


def test_make_blobs_deterministic():
    assert np.array_equal(blobs(seed=5).features, blobs(seed=5).features)
    assert not np.array_equal(blobs(seed=5).features, blobs(seed=6).features)


def test_make_blobs_center_count_mismatch():
    with pytest.raises(ValueError):
        make_blobs(2, 10, triangle_centers(4.0), 0.5,
                   np.random.default_rng(0))


def test_triangle_centers_equilateral():
    c = triangle_centers(4.0)
    d01 = np.linalg.norm(c[0] - c[1])
    d12 = np.linalg.norm(c[1] - c[2])
    d02 = np.linalg.norm(c[0] - c[2])
    assert d01 == pytest.approx(4.0)
    assert d12 == pytest.approx(4.0)
    assert d02 == pytest.approx(4.0)


# ------------------------------------------------------------- make_ood_ring

def test_ood_ring_outside_training_support():
    ds = blobs()
    ring = make_ood_ring(ds, 1.5, 200, np.random.default_rng(2))
    assert ring.n == 200
    assert ring.labels is None
    mean = ds.features.mean(axis=0)
    max_train = np.max(np.linalg.norm(ds.features - mean, axis=1))
    ring_dist = np.linalg.norm(ring.features - mean, axis=1)
    assert np.all(ring_dist > max_train)


def test_ood_ring_rejects_small_factor():
    with pytest.raises(ValueError):
        make_ood_ring(blobs(), 1.0, 10, np.random.default_rng(0))


# ------------------------------------------------------------------ load_idx

def write_idx(tmp_path, images, labels):
    n, rows, cols = images.shape
    ip = tmp_path / "images.idx"
    lp = tmp_path / "labels.idx"
    with open(ip, "wb") as fh:
        fh.write(struct.pack(">IIII", 0x00000803, n, rows, cols))
        fh.write(images.astype(np.uint8).tobytes())
    with open(lp, "wb") as fh:
        fh.write(struct.pack(">II", 0x00000801, len(labels)))
        fh.write(bytes(labels))
    return ip, lp


def test_load_idx_parses_and_scales(tmp_path):
    rng = np.random.default_rng(3)
    images = rng.integers(0, 256, size=(10, 28, 28), dtype=np.uint8)
    labels = list(rng.integers(0, 10, size=10))
    ip, lp = write_idx(tmp_path, images, labels)
    ds = load_idx(ip, lp)
    assert ds.features.shape == (10, 784)
    assert ds.features.min() >= 0.0 and ds.features.max() <= 1.0
    assert np.allclose(ds.features[0], images[0].ravel() / 255.0)
    assert list(ds.label_indices) == labels


def test_load_idx_bad_magic(tmp_path):
    ip, lp = write_idx(tmp_path,
                       np.zeros((2, 4, 4), dtype=np.uint8), [0, 1])
    raw = bytearray(ip.read_bytes())
    raw[3] = 0x42
    ip.write_bytes(bytes(raw))
    with pytest.raises(IdxFormatError):
        load_idx(ip, lp)


def test_load_idx_truncated(tmp_path):
    ip, lp = write_idx(tmp_path,
                       np.zeros((3, 4, 4), dtype=np.uint8), [0, 1, 2])
    ip.write_bytes(ip.read_bytes()[:-5])
    with pytest.raises(IdxFormatError):
        load_idx(ip, lp)


def test_load_idx_count_mismatch(tmp_path):
    images = np.zeros((3, 4, 4), dtype=np.uint8)
    ip, lp = write_idx(tmp_path, images, [0, 1, 2])
    short = tmp_path / "short_labels.idx"
    with open(short, "wb") as fh:
        fh.write(struct.pack(">II", 0x00000801, 2))
        fh.write(bytes([0, 1]))
    with pytest.raises(IdxFormatError):
        load_idx(ip, short)


def test_load_idx_zero_count(tmp_path):
    ip, lp = write_idx(tmp_path, np.zeros((0, 4, 4), dtype=np.uint8), [])
    with pytest.raises(IdxFormatError, match="no images"):
        load_idx(ip, lp)


# --------------------------------------------------------------------- split

def test_split_identity():
    ds = blobs()
    (only,) = split(ds, [1.0], np.random.default_rng(4))
    assert only.n == ds.n
    assert np.array_equal(np.sort(only.features, axis=0),
                          np.sort(ds.features, axis=0))


def test_split_stratified_90_10():
    ds = blobs()
    a, b = split(ds, [0.9, 0.1], np.random.default_rng(5))
    assert (a.n, b.n) == (270, 30)
    assert np.array_equal(a.labels.sum(axis=0), [90, 90, 90])
    assert np.array_equal(b.labels.sum(axis=0), [10, 10, 10])


def test_split_disjoint_and_covering():
    ds = blobs()
    a, b = split(ds, [0.7, 0.3], np.random.default_rng(6))
    merged = np.vstack([a.features, b.features])
    assert merged.shape == ds.features.shape
    assert np.array_equal(
        np.sort(merged.view([("x", float), ("y", float)]).ravel()),
        np.sort(ds.features.view([("x", float), ("y", float)]).ravel()))


def test_split_deterministic():
    ds = blobs()
    a1, _ = split(ds, [0.5, 0.5], np.random.default_rng(7))
    a2, _ = split(ds, [0.5, 0.5], np.random.default_rng(7))
    assert np.array_equal(a1.features, a2.features)


def test_split_invalid_fractions():
    ds = blobs()
    with pytest.raises(ValueError):
        split(ds, [0.5, 0.6], np.random.default_rng(0))
    with pytest.raises(ValueError):
        split(ds, [1.2, -0.2], np.random.default_rng(0))


# ---------------------------------------------------------------- scale/CSV

def test_scale_unit_range():
    ds = blobs()
    scaled = scale_unit(ds)
    assert scaled.features.min() == pytest.approx(0.0)
    assert scaled.features.max() == pytest.approx(1.0)
    assert np.allclose(scaled.features.min(axis=0), 0.0)
    assert np.allclose(scaled.features.max(axis=0), 1.0)


def test_csv_roundtrip_labeled(tmp_path):
    ds = blobs(seed=8)
    path = tmp_path / "ds.csv"
    save_csv(ds, path)
    back = load_csv(path)
    assert np.array_equal(back.features, ds.features)
    assert np.array_equal(back.labels, ds.labels)
    assert path.read_bytes().count(b"\r") == 0


def test_csv_roundtrip_unlabeled(tmp_path):
    ring = make_ood_ring(blobs(), 2.0, 50, np.random.default_rng(9))
    path = tmp_path / "ring.csv"
    save_csv(ring, path)
    back = load_csv(path)
    assert back.labels is None
    assert np.array_equal(back.features, ring.features)


@pytest.mark.parametrize("body, line, what", [
    ("f0,f1,label\n0.5,0.25,1\n0.1,0.2,-1\n", 3, "negative label -1"),
    ("f0,f1,label\n0.5,0.25\n", 2, "2 fields, the header has 3"),
    ("f0,f1,label\n0.5,0.25,1\n0.5,0.25,1,7\n", 3, "4 fields, the header has 3"),
    ("f0,f1\n0.5\n", 2, "1 fields, the header has 2"),
    ("f0,f1,label\n0.5,abc,1\n", 2, "abc"),
    ("f0,f1,label\n0.5,0.25,one\n", 2, "one"),
    ("", 1, "missing header"),
], ids=["negative-label", "short-row", "long-row", "unlabeled-short-row",
        "bad-feature", "bad-label", "empty-file"])
def test_load_csv_malformed_names_file_and_line(tmp_path, body, line, what):
    path = tmp_path / "bad.csv"
    path.write_text(body)
    with pytest.raises(CsvFormatError) as exc:
        load_csv(path)
    assert f"{path}:{line}: " in str(exc.value)
    assert what in str(exc.value)
