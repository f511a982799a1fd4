"""Dataset containers, generators, IDX parsing, stratified splits and CSV
round-trips."""

import math
import re
import struct
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from iad.data import (CsvFormatError, Dataset, EmptySplitError, FeatureRangeError,
                      IdxFormatError, load_csv, load_idx, load_idx_split, make_blobs,
                      make_ood_ring, split, split_scaled, support_extent,
                      triangle_centers)
from oracles import reference_scale_unit, save_csv


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
    with pytest.raises(ValueError):
        Dataset(x).take(np.zeros((2, 2), dtype=int))   # not a 1-D index


@pytest.mark.parametrize("bad", [(1.0, 0.0), (math.nan, 1.0), (0.0, math.inf),
                                 (0.0,), (0.0, 0.5, 1.0), "01", 1.0])
def test_dataset_refuses_a_bad_feature_range(bad):
    with pytest.raises(ValueError, match="feature_range must be a pair"):
        Dataset(np.zeros((4, 2)), feature_range=bad)
    assert Dataset(np.zeros((4, 2)), feature_range=(0.5, 0.5)).feature_range == (0.5, 0.5)


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


def test_make_blobs_names_the_spread_that_overflows():
    with pytest.raises(FeatureRangeError,
                       match=r"blobs\(k=3,n=10,spread=1e\+308\): generated features overflow"):
        make_blobs(3, 10, triangle_centers(4.0), 1e308, np.random.default_rng(0))


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


@pytest.mark.parametrize("factor", [math.nan, math.inf])
def test_ood_ring_rejects_non_finite_factor(factor):
    # both pass a bare `<= 1` test; NaN or inf points would then fail the
    # ring's own finiteness check under another name
    with pytest.raises(ValueError, match="radius_factor must be finite and > 1"):
        make_ood_ring(blobs(), factor, 10, np.random.default_rng(0))


def test_ood_ring_names_the_radius_factor_that_overflows():
    with pytest.raises(FeatureRangeError,
                       match=r"radius_factor 1e\+308 times the support radius .*: generated"):
        make_ood_ring(blobs(), 1e308, 10, np.random.default_rng(0))


def test_support_radius_that_overflows_is_refused_without_warning():
    # each feature is finite, but the square of 1e200 is not
    wide = Dataset(np.array([[1e200, 0.0], [-1e200, 0.0]]), provenance="wide")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(FeatureRangeError, match="^wide: the support radius, .* overflows"):
            support_extent(wide)
        with pytest.raises(FeatureRangeError, match="^wide: the support radius"):
            make_ood_ring(wide, 1.5, 10, np.random.default_rng(0))
    assert support_extent(Dataset(wide.features / 1e50))[1] == 1e150


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
    labels = list(rng.permutation(10))  # each of the ten classes has a row
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


@pytest.mark.parametrize("which", ["images", "labels"])
def test_load_idx_longer_than_its_header(tmp_path, which):
    ip, lp = write_idx(tmp_path, np.zeros((3, 4, 4), dtype=np.uint8), [0, 1, 2])
    path = ip if which == "images" else lp
    path.write_bytes(path.read_bytes() + bytes(1))
    with pytest.raises(IdxFormatError, match=f"{re.escape(str(path))}: .*header declares"):
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


@pytest.mark.parametrize("count, rows, cols, what", [
    (3, 0, 0, "0x0 images hold no pixels"), (3, 0, 4, "0x4 images hold no pixels"),
    (3, 4, 0, "4x0 images hold no pixels"), (0, 0, 0, "no images")])
def test_load_idx_zero_pixels(tmp_path, count, rows, cols, what):
    ip, lp = write_idx(tmp_path, np.zeros((count, rows, cols), dtype=np.uint8),
                       [0, 1, 2][:count])
    with pytest.raises(IdxFormatError, match=f"{ip}: .*{what}"):
        load_idx(ip, lp)


def test_load_idx_refuses_labels_of_one_class(tmp_path):
    ip, lp = write_idx(tmp_path, np.zeros((5, 2, 2), dtype=np.uint8), [0] * 5)
    for load in (lambda: load_idx(ip, lp),
                 lambda: load_idx_split(ip, lp, [0.5, 0.5], np.random.default_rng(0), True)):
        with pytest.raises(IdxFormatError, match=f"{lp}: every label is 0"):
            load()


def test_load_idx_refuses_labels_that_leave_a_class_without_a_row(tmp_path):
    ip, lp = write_idx(tmp_path, np.zeros((6, 2, 2), dtype=np.uint8), [0, 3, 3, 0, 2, 3])
    for load in (lambda: load_idx(ip, lp),
                 lambda: load_idx_split(ip, lp, [0.5, 0.5], np.random.default_rng(0), True)):
        with pytest.raises(IdxFormatError, match=f"^{lp}: no row has label 1, but the "
                                                 "largest label is 3"):
            load()


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


@pytest.mark.parametrize("fractions", [[math.nan, 1.0], [1.0, math.nan], [math.nan],
                                       [math.inf, -math.inf], [math.inf, 1.0]])
def test_split_refuses_non_finite_fractions(fractions):
    # a comparison with NaN is false, so NaN must not reach the part sizes
    with pytest.raises(ValueError, match="fractions must be positive and sum to 1"):
        split(blobs(), fractions, np.random.default_rng(0))


def test_split_refuses_an_empty_part():
    # 5 rows per class: the 10% part of each class rounds to no row
    ds = make_blobs(3, 5, triangle_centers(4.0), 0.6, np.random.default_rng(0))
    with pytest.raises(EmptySplitError, match=r"part 1 \(fraction 0.1\) of a split of 15 rows"):
        split(ds, [0.9, 0.1], np.random.default_rng(0))


# ---------------------------------------------------------------- scale/CSV

def test_scale_unit_range():
    ds = blobs()
    (scaled,) = split_scaled(ds, [1.0], np.random.default_rng(0))
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


def test_csv_without_label_column_refused_at_line_1(tmp_path):
    # every command that reads data needs labels, so the container has them
    ring = make_ood_ring(blobs(), 2.0, 50, np.random.default_rng(9))
    path = tmp_path / "ring.csv"
    save_csv(ring, path)
    with pytest.raises(CsvFormatError) as exc:
        load_csv(path)
    assert str(exc.value).startswith(f"{path}:1: ")
    assert "'label'" in str(exc.value)


@pytest.mark.parametrize("body, line, what", [
    ("f0,f1,label\n0.5,0.25,1\n0.1,0.2,-1\n", 3, "negative label -1"),
    ("f0,f1,label\n0.5,0.25\n", 2, "2 fields, the header has 3"),
    ("f0,f1,label\n0.5,0.25,1\n0.5,0.25,1,7\n", 3, "4 fields, the header has 3"),
    ("f0,label\n0.5\n", 2, "1 fields, the header has 2"),
    ("f0,f1,label\n0.5,abc,1\n", 2, "abc"),
    ("f0,f1,label\n0.5,0.25,one\n", 2, "one"),
    ("", 1, "missing header"),
    ("f0,f1,label\n", 2, "no data rows"),
    ("f0,f1,label\n0.5,0.25,1\n0.5,nan,0\n", 3, "'nan' is not finite"),
    ("f0,f1,label\n-inf,0.25,1\n", 2, "'-inf' is not finite"),
    ("f0,f1,label\n0.5,1e999,1\n", 2, "'1e999' is not finite"),
    ("f0,f1,label\n0.5,0.25,1\n0.5,\xff,0\n", 3, "byte 0xff is not UTF-8"),
    ("f0,f\xe9\n0.5,0.25\n", 1, "byte 0xe9 is not UTF-8"),
    ("label\n0\n1\n", 1, "the header names no feature column"),
    ("f0,f1,label\n0.5,0.25,0\n0.1,0.2,0\n", 1, "every label is 0"),
], ids=["negative-label", "short-row", "long-row", "one-feature-short-row",
        "bad-feature", "bad-label", "empty-file", "header-only", "nan-feature", "inf-feature",
        "overflowing-feature", "invalid-utf8-byte", "latin1-header", "label-only",
        "one-class"])
def test_load_csv_malformed_names_file_and_line(tmp_path, body, line, what):
    path = tmp_path / "bad.csv"
    path.write_bytes(body.encode("latin-1"))
    with pytest.raises(CsvFormatError) as exc:
        load_csv(path)
    assert f"{path}:{line}: " in str(exc.value)
    assert what in str(exc.value)


@pytest.mark.parametrize("labels, missing", [
    ([0, 1, 10 ** 12], 2), ([1, 1, 0, 2, 5], 3), ([2, 2, 1], 0), ([0, 1, 2 ** 70], 2)],
    ids=["label-1e12", "gap-below-the-largest", "no-label-0", "label-beyond-int64"])
def test_load_csv_refuses_labels_that_leave_a_class_without_a_row(tmp_path, labels,
                                                                   missing):
    # a label of 10**12 used to size a 10**12-column one-hot matrix
    path = tmp_path / "gap.csv"
    path.write_text("f0,label\n" + "".join(f"0.5,{c}\n" for c in labels))
    with pytest.raises(CsvFormatError, match=f"^{path}:1: no row has label {missing}, but "
                                             f"the largest label is {max(labels)}"):
        load_csv(path)


# ------------------------------------------------ one-pass data path, bit-exact

# split, support_extent and make_ood_ring as they were written before the
# one-pass data path (take inlined as dataclasses.replace). The library must
# reproduce them bit for bit; oracles.reference_scale_unit is the scaling.

def reference_split(dataset, fractions, rng):
    fractions = [float(f) for f in fractions]
    parts = [[] for _ in fractions]
    if dataset.labels is None:
        groups = [np.arange(dataset.n)]
    else:
        idx = dataset.label_indices
        groups = [np.flatnonzero(idx == c) for c in range(dataset.k)]
    for group in groups:
        perm = group[rng.permutation(group.size)]
        bounds = np.floor(np.cumsum(fractions) * group.size + 0.5).astype(int)
        bounds[-1] = group.size
        start = 0
        for i, stop in enumerate(bounds):
            parts[i].append(perm[start:stop])
            start = stop
    out = []
    for p in parts:
        rows = np.sort(np.concatenate(p))
        out.append(replace(dataset, features=dataset.features[rows],
                           labels=None if dataset.labels is None else dataset.labels[rows]))
    return out


def reference_support_extent(dataset):
    mean = dataset.features.mean(axis=0)
    return mean, float(np.max(np.linalg.norm(dataset.features - mean, axis=1)))


def reference_ood_ring_features(dataset, radius_factor, n, rng):
    mean, rmax = reference_support_extent(dataset)
    dirs = rng.standard_normal((n, dataset.d))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    return mean + radius_factor * rmax * dirs


def assert_identical(got, want):
    """Same features and labels bit for bit, and the same metadata."""
    assert got.features.dtype == want.features.dtype == np.float64
    assert got.features.shape == want.features.shape
    assert got.features.tobytes() == want.features.tobytes()
    assert (got.labels is None) == (want.labels is None)
    if want.labels is not None:
        assert got.labels.tobytes() == want.labels.tobytes()
    assert (got.provenance, got.feature_range) == (want.provenance, want.feature_range)


def wide(labeled=True, n=400, d=30, seed=10):
    """Columns on very different scales, one of them constant."""
    rng = np.random.default_rng(seed)
    x = rng.normal(0.0, 1.0, size=(n, d)) * np.logspace(-6, 6, d) + 3.0
    x[:, 4] = -2.5
    labels = np.eye(4)[rng.integers(0, 4, size=n)] if labeled else None
    return Dataset(x, labels, provenance="wide")


@pytest.mark.parametrize("make", [blobs, wide, lambda: wide(labeled=False)],
                         ids=["blobs", "wide", "wide-unlabeled"])
def test_scale_and_split_match_reference_bits(make):
    ds = make()
    (whole,) = split_scaled(ds, [1.0], np.random.default_rng(11))
    assert_identical(whole, reference_scale_unit(ds))
    for fractions in ([0.8, 0.2], [0.5, 0.3, 0.2], [1.0]):
        want = reference_split(reference_scale_unit(ds), fractions,
                               np.random.default_rng(11))
        got = split_scaled(ds, fractions, np.random.default_rng(11))
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert_identical(g, w)
        plain = split(ds, fractions, np.random.default_rng(11))
        for g, w in zip(plain, reference_split(ds, fractions, np.random.default_rng(11))):
            assert_identical(g, w)


@pytest.mark.parametrize("scale", [True, False])
def test_load_idx_split_matches_reference_bits(tmp_path, scale):
    rng = np.random.default_rng(12)
    # column minima and maxima spread over the byte range, not only 0 and 255
    lo = rng.integers(0, 128, size=(1, 6, 5))
    hi = rng.integers(128, 256, size=(1, 6, 5))
    images = rng.integers(lo, hi, size=(90, 6, 5), endpoint=True).astype(np.uint8)
    images[:, 0, 0] = 7          # a constant column
    labels = list(rng.integers(0, 4, size=90))
    ip, lp = write_idx(tmp_path, images, labels)
    ds = Dataset(images.reshape(90, -1) / 255.0, np.eye(4)[labels],
                 provenance=f"idx({ip})", feature_range=(0.0, 1.0))
    assert_identical(load_idx(ip, lp), ds)
    source = reference_scale_unit(ds) if scale else ds
    want = reference_split(source, [0.75, 0.25], np.random.default_rng(13))
    got = load_idx_split(ip, lp, [0.75, 0.25], np.random.default_rng(13), scale)
    assert len(got) == 2
    for g, w in zip(got, want):
        assert_identical(g, w)


# At D=784 a 256 KB block holds 41 rows: 1600 rows end in a one-row block and
# 123 rows are exactly three blocks. At D=100 (327 rows) 1000 rows end in 19.
@pytest.mark.parametrize("shape", [(2400, 2), (1600, 784), (123, 784), (1000, 100)])
def test_support_extent_matches_norm_formula_bits(shape):
    ds = Dataset(np.random.default_rng(14).normal(2.0, 3.0, size=shape))
    mean, rmax = support_extent(ds)
    want_mean, want_rmax = reference_support_extent(ds)
    assert mean.tobytes() == want_mean.tobytes()
    assert rmax == want_rmax


@pytest.mark.parametrize("make", [blobs, lambda: Dataset(
    np.random.default_rng(16).uniform(0.0, 1.0, size=(500, 784)))], ids=["blobs", "d784"])
def test_ood_ring_matches_reference_bits(make):
    ds = make()
    ring = make_ood_ring(ds, 1.5, 300, np.random.default_rng(15))
    want = reference_ood_ring_features(ds, 1.5, 300, np.random.default_rng(15))
    assert ring.features.tobytes() == want.tobytes()


def test_scale_unit_names_an_overflowing_column():
    x = np.array([[0.0, 1e308], [1.0, -1e308]])
    with pytest.raises(FeatureRangeError, match=r"blobs-like: feature 1 spans"):
        split_scaled(Dataset(x, provenance="blobs-like"), [1.0], np.random.default_rng(0))


_HUGE = st.sampled_from([1e300, -1e300, 1.7e308, -1.7e308])


@settings(max_examples=300, deadline=None)
@given(hnp.arrays(np.float64, hnp.array_shapes(min_dims=2, max_dims=2, max_side=8),
                  elements=st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                                     _HUGE)))
def test_scaled_features_are_in_unit_range_or_the_overflow_is_named(x):
    # scaled datasets skip the finiteness re-check; this is what makes that safe
    ds = Dataset(x)
    with np.errstate(over="ignore"):
        overflow = not np.all(np.isfinite(x.max(axis=0) - x.min(axis=0)))
    try:
        (scaled,) = split_scaled(ds, [1.0], np.random.default_rng(0))
    except FeatureRangeError as exc:
        assert overflow, str(exc)
        return
    assert not overflow
    f = scaled.features
    assert np.all(np.isfinite(f)) and np.all(f >= 0.0) and np.all(f <= 1.0)
    assert f.tobytes() == reference_scale_unit(ds).features.tobytes()
