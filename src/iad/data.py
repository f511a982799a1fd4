"""Dataset container, synthetic generators, IDX ingestion and the native CSV
container."""

from __future__ import annotations

import csv
import io
import math
import numbers
import struct
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Dataset",
    "IdxFormatError",
    "CsvFormatError",
    "FeatureRangeError",
    "EmptySplitError",
    "make_blobs",
    "triangle_centers",
    "support_extent",
    "make_ood_ring",
    "load_idx",
    "load_idx_split",
    "split",
    "split_scaled",
    "load_csv",
]

_IMAGE_MAGIC = 0x00000803
_LABEL_MAGIC = 0x00000801
# Row norms are computed over blocks of at most this many bytes in one reused
# buffer, which stays in cache instead of three (N, D) temporaries; the 2-D
# desk data is a single block.
_BLOCK_BYTES = 256 * 1024


class IdxFormatError(ValueError):
    """Raised on malformed IDX files."""


class CsvFormatError(ValueError):
    """Raised on malformed CSV files; the message names the file and line."""


class FeatureRangeError(ValueError):
    """Raised when a feature column's max - min overflows float64, so that
    min-max scaling cannot map it to [0, 1], when the support radius does or
    is 0, or when a generated feature overflows float64."""


class EmptySplitError(ValueError):
    """Raised when a split leaves one of its parts without rows."""


@dataclass(frozen=True)
class Dataset:
    """Feature matrix with optional one-hot labels.

    feature_range records the (min, max) the features are meant to live in:
    the clip box of evaluation.attack_reports (None clips nothing).

    The constructor validates what it is given: a 2-D matrix of finite
    features, one-hot label rows of the same count and a feature_range of
    finite lo <= hi. It is the check for data from outside (make_blobs, a
    caller's arrays). The loaders check their input as they parse it.
    Datasets derived from checked ones (``take``, ``split`` and the parts of
    ``split_scaled`` and ``load_idx_split``) skip the O(N·D) re-check: a row
    subset and a min-max map with finite spans keep features finite and
    labels one-hot.
    """

    features: np.ndarray
    labels: np.ndarray | None = None
    provenance: str = ""
    feature_range: tuple[float, float] | None = None

    def __post_init__(self):
        f = np.asarray(self.features, dtype=np.float64)
        if f.ndim != 2:
            raise ValueError("features must be a 2-D matrix")
        if not np.all(np.isfinite(f)):
            raise ValueError("features must be finite")
        object.__setattr__(self, "features", f)
        if self.labels is not None:
            lab = np.asarray(self.labels, dtype=np.float64)
            if lab.ndim != 2 or lab.shape[0] != f.shape[0]:
                raise ValueError("labels row count must match features")
            onehot = np.all(np.isin(lab, (0.0, 1.0))) and np.all(lab.sum(axis=1) == 1.0)
            if not onehot:
                raise ValueError("labels must be one-hot rows")
            object.__setattr__(self, "labels", lab)
        if self.feature_range is not None:
            _check_range(self.feature_range, "feature_range")

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def d(self) -> int:
        return self.features.shape[1]

    @property
    def k(self) -> int:
        if self.labels is None:
            raise ValueError("dataset has no labels")
        return self.labels.shape[1]

    @property
    def label_indices(self) -> np.ndarray:
        if self.labels is None:
            raise ValueError("dataset has no labels")
        return np.argmax(self.labels, axis=1)

    def take(self, idx: np.ndarray) -> "Dataset":
        """The rows ``idx`` (a 1-D index array or boolean mask)."""
        idx = np.asarray(idx)
        if idx.ndim != 1:
            raise ValueError("idx must be a 1-D index array or mask")
        return _derived(self.features[idx],
                        None if self.labels is None else self.labels[idx],
                        self.provenance, self.feature_range)


def _check_range(bounds, name: str) -> None:
    """Refuse bounds that are not a pair (lo, hi) of finite reals with lo <= hi."""
    pair = tuple(bounds) if isinstance(bounds, (tuple, list)) else ()
    if not (len(pair) == 2 and all(isinstance(b, numbers.Real) for b in pair)
            and math.isfinite(pair[0]) and math.isfinite(pair[1]) and pair[0] <= pair[1]):
        raise ValueError(f"{name} must be a pair (lo, hi) of finite floats with lo <= hi, "
                         f"got {bounds!r}")


def _derived(features, labels=None, provenance="", feature_range=None) -> Dataset:
    """A Dataset over arrays already known valid (finite float64 (N, D)
    features, one-hot float64 labels), without the constructor's checks."""
    ds = object.__new__(Dataset)
    vars(ds).update(features=features, labels=labels, provenance=provenance,
                    feature_range=feature_range)
    return ds


def _one_hot(classes: np.ndarray, k: int) -> np.ndarray:
    out = np.zeros((classes.size, k))
    out[np.arange(classes.size), classes] = 1.0
    return out


def _class_count(classes: np.ndarray, where: str, error: type[ValueError]) -> int:
    """K, the largest of the labels (all >= 0) plus one, once each class
    0..K-1 has a row and K >= 2; otherwise raises error, naming where."""
    present = np.unique(classes)
    missing = np.flatnonzero(present != np.arange(present.size))
    if missing.size:
        raise error(f"{where}: no row has label {missing[0]}, but the largest label is "
                    f"{present[-1]}; every class from 0 to the largest needs a row")
    if present.size < 2:
        raise error(f"{where}: every label is 0, so the labels name one class; a "
                    "classifier needs two or more")
    return present.size


def triangle_centers(side: float = 4.0) -> np.ndarray:
    """Vertices of an equilateral triangle of the given side, centered at 0."""
    r = side / np.sqrt(3.0)
    ang = np.array([0.5, 7.0 / 6.0, 11.0 / 6.0]) * np.pi
    return np.stack([r * np.cos(ang), r * np.sin(ang)], axis=1)


def make_blobs(k: int, n_per_class: int, centers, spread: float,
               rng: np.random.Generator) -> Dataset:
    """Isotropic Gaussian clusters, one per class, deterministic per rng state."""
    centers = np.asarray(centers, dtype=np.float64)
    if centers.ndim != 2 or centers.shape[0] != k:
        raise ValueError("need one center per class")
    if k < 2 or n_per_class < 1:
        raise ValueError("invalid counts")
    if spread <= 0.0:
        raise ValueError("spread must be positive")
    d = centers.shape[1]
    with np.errstate(over="ignore", invalid="ignore"):
        feats = np.concatenate([
            c + spread * rng.standard_normal((n_per_class, d)) for c in centers
        ])
    provenance = f"blobs(k={k},n={n_per_class},spread={spread})"
    _check_generated(feats, provenance)
    labels = _one_hot(np.repeat(np.arange(k), n_per_class), k)
    return _derived(feats, labels, provenance)


def _check_generated(feats: np.ndarray, cause: str) -> None:
    """Refuse generated features that overflowed float64, naming the
    parameters that produced them: the one finiteness pass over them."""
    if not np.isfinite(feats).all():
        raise FeatureRangeError(f"{cause}: generated features overflow float64")


def _row_norms(x: np.ndarray, center=0.0) -> np.ndarray:
    """np.linalg.norm(x - center, axis=1), bit for bit: the same elementwise
    square and per-row pairwise sum, over row blocks of one reused buffer."""
    n, d = x.shape
    step = max(1, _BLOCK_BYTES // (8 * max(d, 1)))
    buf = np.empty((min(step, n), d))
    sq = np.empty(n)
    for start in range(0, n, step):
        rows = x[start:start + step]
        block = buf[:rows.shape[0]]
        np.subtract(rows, center, out=block)
        np.multiply(block, block, out=block)
        np.add.reduce(block, axis=1, out=sq[start:start + step])
    return np.sqrt(sq, out=sq)


def support_extent(dataset: Dataset) -> tuple[np.ndarray, float]:
    """The global feature mean and the largest distance of any row from it.
    A distance that overflows float64, as the squares of features beyond
    ~1.3e154 do, raises FeatureRangeError, and so does a distance of 0: every
    multiple of it, the OOD ring's radius among them, lies inside the
    support."""
    with np.errstate(over="ignore", invalid="ignore"):
        mean = dataset.features.mean(axis=0)
        rmax = float(np.max(_row_norms(dataset.features, mean)))
    if not math.isfinite(rmax):
        raise FeatureRangeError(f"{dataset.provenance}: the support radius, the largest "
                                "distance of a row from the feature mean, overflows float64")
    if rmax == 0.0:
        raise FeatureRangeError(f"{dataset.provenance}: the support radius, the largest "
                                "distance of a row from the feature mean, is 0: every row "
                                "is the same point, so no point lies outside the support")
    return mean, rmax


def make_ood_ring(dataset: Dataset, radius_factor: float, n: int,
                  rng: np.random.Generator) -> Dataset:
    """Unlabeled points on a sphere strictly outside the data's support:
    radius = radius_factor times the largest distance of any point from the
    global feature mean."""
    if not 1.0 < radius_factor < math.inf:
        raise ValueError(f"radius_factor must be finite and > 1, got {radius_factor!r}")
    if n < 1:
        raise ValueError("n must be >= 1")
    mean, rmax = support_extent(dataset)
    pts = rng.standard_normal((n, dataset.d))
    pts /= _row_norms(pts)[:, None]
    with np.errstate(over="ignore", invalid="ignore"):
        pts *= radius_factor * rmax
        pts += mean
    _check_generated(pts, f"radius_factor {radius_factor!r} times the support radius {rmax!r}")
    return _derived(pts, None, f"ood_ring(factor={radius_factor},n={n})",
                    dataset.feature_range)


def _contents(path, raw: bytes | None) -> bytes:
    """raw, or the bytes of the file at path when the caller has not read it."""
    if raw is not None:
        return raw
    with open(path, "rb") as fh:
        return fh.read()


def _idx_header(raw: bytes, path, magic, n_dims) -> tuple[int, ...]:
    if len(raw) < 4 * (1 + n_dims):
        raise IdxFormatError(f"{path}: truncated header")
    vals = struct.unpack_from(f">{1 + n_dims}I", raw)
    if vals[0] != magic:
        raise IdxFormatError(f"{path}: bad magic 0x{vals[0]:08x}, expected 0x{magic:08x}")
    return vals[1:]


def _read_idx(images_path, labels_path, images_raw=None,
              labels_raw=None) -> tuple[np.ndarray, np.ndarray]:
    """The (N, rows * cols) uint8 pixels and (N, K) one-hot labels, K as
    `_class_count` checks it, of an IDX pair (big-endian, unsigned bytes, each
    file as long as its header says); images_raw and labels_raw are the
    files' bytes when already read."""
    images = _contents(images_path, images_raw)
    count, rows, cols = _idx_header(images, images_path, _IMAGE_MAGIC, 3)
    if len(images) - 16 != count * rows * cols:
        raise IdxFormatError(f"{images_path}: {len(images) - 16} bytes of pixel data, "
                             f"its header declares {count * rows * cols}")
    labels = _contents(labels_path, labels_raw)
    (label_count,) = _idx_header(labels, labels_path, _LABEL_MAGIC, 1)
    if len(labels) - 8 != label_count:
        raise IdxFormatError(f"{labels_path}: {len(labels) - 8} bytes of label data, "
                             f"its header declares {label_count}")
    if label_count != count:
        raise IdxFormatError(
            f"image/label count mismatch: {count} images vs {label_count} labels")
    if count == 0:
        raise IdxFormatError(f"{images_path}: holds no images")
    if rows * cols == 0:
        raise IdxFormatError(f"{images_path}: its {rows}x{cols} images hold no pixels")
    classes = np.frombuffer(labels, dtype=np.uint8, count=count, offset=8)
    k = _class_count(classes, str(labels_path), IdxFormatError)
    pixels = np.frombuffer(images, dtype=np.uint8, count=count * rows * cols,
                           offset=16).reshape(count, rows * cols)
    return pixels, _one_hot(classes, k)


def load_idx(images_path, labels_path) -> Dataset:
    """Load an IDX image/label pair (big-endian, unsigned bytes); images are
    flattened row-major and scaled to [0, 1]."""
    pixels, labels = _read_idx(images_path, labels_path)
    return _derived(pixels / 255.0, labels, f"idx({images_path})",
                    feature_range=(0.0, 1.0))


def _split_indices(n: int, labels, fractions, rng: np.random.Generator) -> list[np.ndarray]:
    """The sorted rows of each part: a seeded permutation of each class (of
    all n rows when unlabeled), cut at the cumulative fractions. A part that
    receives no row raises EmptySplitError."""
    fractions = [float(f) for f in fractions]
    # written as "not >" so that a NaN fraction is refused here too
    if not fractions or not all(f > 0.0 for f in fractions) or abs(sum(fractions) - 1.0) > 1e-9:
        raise ValueError("fractions must be positive and sum to 1")
    parts: list[list[np.ndarray]] = [[] for _ in fractions]
    if labels is None:
        groups = [np.arange(n)]
    else:
        idx = np.argmax(labels, axis=1)
        groups = [np.flatnonzero(idx == c) for c in range(labels.shape[1])]
    for group in groups:
        perm = group[rng.permutation(group.size)]
        bounds = np.floor(np.cumsum(fractions) * group.size + 0.5).astype(int)
        bounds[-1] = group.size
        start = 0
        for i, stop in enumerate(bounds):
            parts[i].append(perm[start:stop])
            start = stop
    index_sets = [np.sort(np.concatenate(p)) for p in parts]
    for i, idx in enumerate(index_sets):
        if idx.size == 0:
            raise EmptySplitError(f"part {i} (fraction {fractions[i]:g}) of a split of "
                                  f"{n} rows is empty: too few rows to fill it")
    return index_sets


def split(dataset: Dataset, fractions, rng: np.random.Generator,
          keep=None) -> list[Dataset | None]:
    """Disjoint seeded partitions covering all rows; stratified by class when
    labels are present. Only the parts whose index is in keep (every part
    when keep is None) are gathered; the others are None."""
    return _parts(dataset.features, None, dataset.labels, fractions, rng, False,
                  dataset.provenance, dataset.feature_range, keep)


def _unit_span(lo: np.ndarray, hi: np.ndarray, provenance: str) -> np.ndarray:
    """The per-column divisor of min-max scaling: hi - lo, or 1 for a
    constant column. A finite span keeps every scaled value in [0, 1]."""
    with np.errstate(over="ignore"):
        span = np.where(hi > lo, hi - lo, 1.0)
    wide = np.flatnonzero(~np.isfinite(span))
    if wide.size:
        j = wide[0]
        raise FeatureRangeError(
            f"{provenance}: feature {j} spans [{float(lo[j])!r}, {float(hi[j])!r}], "
            "wider than float64 can hold, so it cannot be scaled to [0, 1]")
    return span


def _parts(rows, divisor, labels, fractions, rng, scale: bool, provenance: str,
           feature_range, keep=None) -> list[Dataset | None]:
    """The seeded stratified parts of the dataset ds whose features are
    rows / divisor (rows itself when divisor is None), min-max scaled over
    all of ds when scale: (ds - min) / span per column, with span = max -
    min (1 for a constant column), then split, bit for bit. Each kept
    part's float64 features are written by one row gather and scaled in
    place; a part whose index is not in keep (when keep is not None) is
    None. Column ranges and the permutations do not depend on keep, and an
    empty part raises whether kept or not."""
    if scale:
        lo, hi = rows.min(axis=0), rows.max(axis=0)
        if divisor is not None:
            # dividing by a positive constant is monotone, so min(u) / c is
            # min(u / c) bit for bit
            lo, hi = lo / divisor, hi / divisor
        span = _unit_span(lo, hi, provenance)
        feature_range = (0.0, 1.0)
    # after the range check: a file too wide to scale is named as such, even
    # when it also has too few rows to fill every part
    index_sets = _split_indices(rows.shape[0], labels, fractions, rng)
    parts = []
    for i, idx in enumerate(index_sets):
        if keep is not None and i not in keep:
            parts.append(None)
            continue
        f = rows[idx] if divisor is None else np.divide(rows[idx], divisor)
        if scale:
            f -= lo
            f /= span
        parts.append(_derived(f, None if labels is None else labels[idx],
                              provenance, feature_range))
    return parts


def split_scaled(dataset: Dataset, fractions, rng: np.random.Generator,
                 keep=None) -> list[Dataset | None]:
    """split(dataset, fractions, rng, keep) with every feature column min-max
    scaled to [0, 1] over all rows of dataset, without the scaled full
    matrix."""
    return _parts(dataset.features, None, dataset.labels, fractions, rng, True,
                  dataset.provenance, dataset.feature_range, keep)


def load_idx_split(images_path, labels_path, fractions, rng: np.random.Generator,
                   scale: bool, images_raw: bytes | None = None,
                   labels_raw: bytes | None = None, keep=None) -> list[Dataset | None]:
    """split_scaled(load_idx(...), fractions, rng, keep), or split when not
    scale, bit for bit: column ranges are taken over the uint8 pixels and
    each kept part is converted to float64 once. images_raw and labels_raw
    are the files' bytes when the caller has read them already."""
    pixels, labels = _read_idx(images_path, labels_path, images_raw, labels_raw)
    return _parts(pixels, 255.0, labels, fractions, rng, scale,
                  f"idx({images_path})", (0.0, 1.0), keep)


def load_csv(path, raw: bytes | None = None) -> Dataset:
    """Load the native container, a header row (f0..fD-1,label) and then one
    row per example; a header that does not end in ``label`` is refused. The
    one-hot width K >= 2 is the largest label plus one, and every class 0..K-1
    needs a row. raw is the file's bytes when the caller has read them already."""
    raw = _contents(path, raw)
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = raw.count(b"\n", 0, exc.start) + 1
        raise CsvFormatError(
            f"{path}:{line}: byte 0x{raw[exc.start]:02x} is not UTF-8") from None
    with io.StringIO(text, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if not header:
            raise CsvFormatError(f"{path}:1: missing header row")
        if header[-1] != "label":
            raise CsvFormatError(f"{path}:1: the header ends in {header[-1]!r}, not a 'label' "
                                 "column; every command that reads data needs labels")
        d = len(header) - 1
        feats, idx = [], []
        for row in reader:
            where = f"{path}:{reader.line_num}"
            if len(row) != len(header):
                raise CsvFormatError(
                    f"{where}: {len(row)} fields, the header has {len(header)}")
            try:
                values = [float(v) for v in row[:d]]
                idx.append(int(row[d]))
            except ValueError as exc:
                raise CsvFormatError(f"{where}: {exc}") from None
            if not all(map(math.isfinite, values)):
                cell = next(v for v, x in zip(row, values) if not math.isfinite(x))
                raise CsvFormatError(f"{where}: feature {cell!r} is not finite")
            if idx[-1] < 0:
                raise CsvFormatError(f"{where}: negative label {idx[-1]}")
            feats.append(values)
        if not feats:
            raise CsvFormatError(f"{path}:{reader.line_num + 1}: no data rows")
        if d == 0:
            raise CsvFormatError(f"{path}:1: the header names no feature column")
        classes = np.array(idx)
        k = _class_count(classes, f"{path}:1", CsvFormatError)
    features = np.array(feats, dtype=np.float64).reshape(len(feats), d)
    return _derived(features, _one_hot(classes, k), f"csv({path})")
