"""Dataset container, synthetic generators, IDX ingestion and the native CSV
container."""

from __future__ import annotations

import csv
import struct
from dataclasses import dataclass, replace

import numpy as np

__all__ = [
    "Dataset",
    "IdxFormatError",
    "CsvFormatError",
    "make_blobs",
    "triangle_centers",
    "support_extent",
    "make_ood_ring",
    "load_idx",
    "split",
    "scale_unit",
    "save_csv",
    "load_csv",
]

_IMAGE_MAGIC = 0x00000803
_LABEL_MAGIC = 0x00000801


class IdxFormatError(ValueError):
    """Raised on malformed IDX files."""


class CsvFormatError(ValueError):
    """Raised on malformed CSV files; the message names the file and line."""


@dataclass(frozen=True)
class Dataset:
    """Feature matrix with optional one-hot labels.

    feature_range records the (min, max) the features are meant to live in
    (used as default clipping bounds for adversarial perturbations).
    """

    features: np.ndarray
    labels: np.ndarray | None = None
    provenance: str = ""
    split_tag: str = ""
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

    def take(self, idx: np.ndarray, tag: str = "") -> "Dataset":
        return replace(
            self,
            features=self.features[idx],
            labels=None if self.labels is None else self.labels[idx],
            split_tag=tag or self.split_tag,
        )


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
    labels = np.zeros((k * n_per_class, k))
    labels[np.arange(k * n_per_class), np.repeat(np.arange(k), n_per_class)] = 1.0
    return Dataset(feats, labels, provenance=f"blobs(k={k},n={n_per_class},spread={spread})")


def support_extent(dataset: Dataset) -> tuple[np.ndarray, float]:
    """The global feature mean and the largest distance of any row from it."""
    mean = dataset.features.mean(axis=0)
    return mean, float(np.max(np.linalg.norm(dataset.features - mean, axis=1)))


def make_ood_ring(dataset: Dataset, radius_factor: float, n: int,
                  rng: np.random.Generator) -> Dataset:
    """Unlabeled points on a sphere strictly outside the data's support:
    radius = radius_factor times the largest distance of any point from the
    global feature mean."""
    if radius_factor <= 1.0:
        raise ValueError("radius_factor must be > 1")
    if n < 1:
        raise ValueError("n must be >= 1")
    mean, rmax = support_extent(dataset)
    dirs = rng.standard_normal((n, dataset.d))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    pts = mean + radius_factor * rmax * dirs
    return Dataset(pts, provenance=f"ood_ring(factor={radius_factor},n={n})",
                   feature_range=dataset.feature_range)


def _read_idx_header(fh, path, magic, n_dims):
    head = fh.read(4 * (1 + n_dims))
    if len(head) != 4 * (1 + n_dims):
        raise IdxFormatError(f"{path}: truncated header")
    vals = struct.unpack(f">{1 + n_dims}I", head)
    if vals[0] != magic:
        raise IdxFormatError(f"{path}: bad magic 0x{vals[0]:08x}, expected 0x{magic:08x}")
    return vals[1:]


def load_idx(images_path, labels_path) -> Dataset:
    """Load an IDX image/label pair (big-endian, unsigned bytes); images are
    flattened row-major and scaled to [0, 1]."""
    with open(images_path, "rb") as fh:
        count, rows, cols = _read_idx_header(fh, images_path, _IMAGE_MAGIC, 3)
        raw = fh.read(count * rows * cols)
        if len(raw) != count * rows * cols:
            raise IdxFormatError(f"{images_path}: truncated pixel data")
    with open(labels_path, "rb") as fh:
        (label_count,) = _read_idx_header(fh, labels_path, _LABEL_MAGIC, 1)
        raw_labels = fh.read(label_count)
        if len(raw_labels) != label_count:
            raise IdxFormatError(f"{labels_path}: truncated label data")
    if label_count != count:
        raise IdxFormatError(
            f"image/label count mismatch: {count} images vs {label_count} labels")
    if count == 0:
        raise IdxFormatError(f"{images_path}: holds no images")
    feats = np.frombuffer(raw, dtype=np.uint8).reshape(count, rows * cols) / 255.0
    idx = np.frombuffer(raw_labels, dtype=np.uint8)
    k = int(idx.max()) + 1
    labels = np.zeros((count, k))
    labels[np.arange(count), idx] = 1.0
    return Dataset(feats, labels, provenance=f"idx({images_path})", feature_range=(0.0, 1.0))


def split(dataset: Dataset, fractions, rng: np.random.Generator) -> list[Dataset]:
    """Disjoint seeded partitions covering all rows; stratified by class when
    labels are present."""
    fractions = [float(f) for f in fractions]
    if not fractions or any(f <= 0.0 for f in fractions) or abs(sum(fractions) - 1.0) > 1e-9:
        raise ValueError("fractions must be positive and sum to 1")
    parts: list[list[np.ndarray]] = [[] for _ in fractions]
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
    return [
        dataset.take(np.sort(np.concatenate(p)), tag=f"part{i}")
        for i, p in enumerate(parts)
    ]


def scale_unit(dataset: Dataset) -> Dataset:
    """Min-max scale every feature column to [0, 1]."""
    lo = dataset.features.min(axis=0)
    hi = dataset.features.max(axis=0)
    rng_ = np.where(hi > lo, hi - lo, 1.0)
    return replace(dataset, features=(dataset.features - lo) / rng_,
                   feature_range=(0.0, 1.0))


def save_csv(dataset: Dataset, path) -> None:
    """Native container: one header row (f0..fD-1[,label]), repr-formatted
    floats so that a reload is value-identical."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        header = [f"f{i}" for i in range(dataset.d)]
        if dataset.labels is not None:
            header.append("label")
        writer.writerow(header)
        labels = None if dataset.labels is None else dataset.label_indices
        for i in range(dataset.n):
            row = [repr(float(v)) for v in dataset.features[i]]
            if labels is not None:
                row.append(str(int(labels[i])))
            writer.writerow(row)


def load_csv(path) -> Dataset:
    """Load the native container written by save_csv; one-hot width is the
    largest label plus one."""
    with open(path, encoding="utf-8", newline="") as fh:
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
                feats.append([float(v) for v in row[:d]])
                if has_label:
                    idx.append(int(row[d]))
            except ValueError as exc:
                raise CsvFormatError(f"{where}: {exc}") from None
            if has_label and idx[-1] < 0:
                raise CsvFormatError(f"{where}: negative label {idx[-1]}")
    features = np.array(feats, dtype=np.float64).reshape(len(feats), d)
    labels = None
    if has_label:
        labels = np.zeros((len(idx), max(idx) + 1 if idx else 0))
        labels[np.arange(len(idx)), idx] = 1.0
    return Dataset(features, labels, provenance=f"csv({path})")
