"""Dataset container, synthetic generators, IDX ingestion and the native CSV
container."""

from __future__ import annotations

import csv
import io
import math
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
    "scale_unit",
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
    min-max scaling cannot map it to [0, 1]."""


class EmptySplitError(ValueError):
    """Raised when a split leaves one of its parts without rows."""


@dataclass(frozen=True)
class Dataset:
    """Feature matrix with optional one-hot labels.

    feature_range records the (min, max) the features are meant to live in:
    the clip box of evaluation.attack_reports (None clips nothing).

    The constructor validates what it is given: a 2-D matrix of finite
    features and one-hot label rows of the same count. It is the check for
    data from outside (make_blobs, a caller's arrays). The loaders check their
    input as they parse it. Datasets derived from checked ones (``take``,
    ``split``, ``scale_unit`` and the parts of ``split_scaled`` and
    ``load_idx_split``) skip the O(N·D) re-check: a row subset and a min-max
    map with finite spans keep features finite and labels one-hot.
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
    feats = np.concatenate([
        c + spread * rng.standard_normal((n_per_class, d)) for c in centers
    ])
    labels = _one_hot(np.repeat(np.arange(k), n_per_class), k)
    return Dataset(feats, labels, provenance=f"blobs(k={k},n={n_per_class},spread={spread})")


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
    """The global feature mean and the largest distance of any row from it."""
    mean = dataset.features.mean(axis=0)
    return mean, float(np.max(_row_norms(dataset.features, mean)))


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
    pts *= radius_factor * rmax
    pts += mean
    return Dataset(pts, provenance=f"ood_ring(factor={radius_factor},n={n})",
                   feature_range=dataset.feature_range)


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
    """The (N, rows * cols) uint8 pixels and (N, K) one-hot labels of an IDX
    pair (big-endian, unsigned bytes, each file as long as its header says).
    images_raw and labels_raw are the files' bytes when already read."""
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
    pixels = np.frombuffer(images, dtype=np.uint8, count=count * rows * cols,
                           offset=16).reshape(count, rows * cols)
    return pixels, _one_hot(classes, int(classes.max()) + 1)


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
    if not fractions or any(f <= 0.0 for f in fractions) or abs(sum(fractions) - 1.0) > 1e-9:
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


def scale_unit(dataset: Dataset) -> Dataset:
    """Min-max scale every feature column to [0, 1]."""
    f = dataset.features
    lo = f.min(axis=0)
    span = _unit_span(lo, f.max(axis=0), dataset.provenance)
    out = f - lo
    out /= span
    return _derived(out, dataset.labels, dataset.provenance, (0.0, 1.0))


def _parts(rows, divisor, labels, fractions, rng, scale: bool, provenance: str,
           feature_range, keep=None) -> list[Dataset | None]:
    """The seeded stratified parts of the dataset ds whose features are
    rows / divisor (rows itself when divisor is None), min-max scaled over
    all of ds when scale: split(scale_unit(ds), ...) bit for bit. Each kept
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
    """split(scale_unit(dataset), fractions, rng, keep), bit for bit, without
    the scaled full matrix."""
    return _parts(dataset.features, None, dataset.labels, fractions, rng, True,
                  dataset.provenance, dataset.feature_range, keep)


def load_idx_split(images_path, labels_path, fractions, rng: np.random.Generator,
                   scale: bool, images_raw: bytes | None = None,
                   labels_raw: bytes | None = None, keep=None) -> list[Dataset | None]:
    """split(scale_unit(load_idx(...)), fractions, rng, keep), or without
    scale_unit when not scale, bit for bit: column ranges are taken over the
    uint8 pixels and each kept part is converted to float64 once. images_raw
    and labels_raw are the files' bytes when the caller has read them
    already."""
    pixels, labels = _read_idx(images_path, labels_path, images_raw, labels_raw)
    return _parts(pixels, 255.0, labels, fractions, rng, scale,
                  f"idx({images_path})", (0.0, 1.0), keep)


def load_csv(path, raw: bytes | None = None) -> Dataset:
    """Load the native container, a header row (f0..fD-1[,label]) and then one
    row per example; one-hot width is the largest label plus one. raw is the
    file's bytes when the caller has read them already."""
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
        has_label = header[-1] == "label"
        d = len(header) - (1 if has_label else 0)
        feats, idx = [], []
        for row in reader:
            where = f"{path}:{reader.line_num}"
            if len(row) != len(header):
                raise CsvFormatError(
                    f"{where}: {len(row)} fields, the header has {len(header)}")
            try:
                values = [float(v) for v in row[:d]]
                if has_label:
                    idx.append(int(row[d]))
            except ValueError as exc:
                raise CsvFormatError(f"{where}: {exc}") from None
            if not all(map(math.isfinite, values)):
                cell = next(v for v, x in zip(row, values) if not math.isfinite(x))
                raise CsvFormatError(f"{where}: feature {cell!r} is not finite")
            if has_label and idx[-1] < 0:
                raise CsvFormatError(f"{where}: negative label {idx[-1]}")
            feats.append(values)
        if not feats:
            raise CsvFormatError(f"{path}:{reader.line_num + 1}: no data rows")
        if d == 0:
            raise CsvFormatError(f"{path}:1: the header names no feature column")
    features = np.array(feats, dtype=np.float64).reshape(len(feats), d)
    labels = None
    if has_label:
        labels = _one_hot(np.array(idx), max(idx) + 1)
    return _derived(features, labels, f"csv({path})")
