"""Labeled traffic records: class labels, stratified splits, normalization, CSV I/O."""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from enum import IntEnum
from typing import Iterable, Iterator

import numpy as np

from .errors import BadRatios, EmptyClass, EmptyDataset, MalformedRow, UnknownLabel
from .ioutil import atomic_write

NUM_FEATURES = 24
NUM_CLASSES = 5

CSV_HEADER = tuple(f"f{i:02d}" for i in range(1, NUM_FEATURES + 1)) + ("label",)


class TrafficClass(IntEnum):
    """The five traffic classes, with stable ordinals used everywhere."""

    NORMAL = 0
    SYN_FLOOD = 1
    ACK_FLOOD = 2
    HTTP_FLOOD = 3
    UDP_FLOOD = 4

    @property
    def alias(self) -> str:
        """Canonical label text used in CSV files."""
        return _CANONICAL[self]

    @property
    def display_name(self) -> str:
        return _DISPLAY[self]


_CANONICAL = {
    TrafficClass.NORMAL: "normal",
    TrafficClass.SYN_FLOOD: "syn_flood",
    TrafficClass.ACK_FLOOD: "ack_flood",
    TrafficClass.HTTP_FLOOD: "http_flood",
    TrafficClass.UDP_FLOOD: "udp_flood",
}

_DISPLAY = {
    TrafficClass.NORMAL: "Normal traffic",
    TrafficClass.SYN_FLOOD: "SYN Flooding",
    TrafficClass.ACK_FLOOD: "ACK Flooding",
    TrafficClass.HTTP_FLOOD: "HTTP Flooding",
    TrafficClass.UDP_FLOOD: "UDP Flooding",
}

_ALIASES = {
    "normal": TrafficClass.NORMAL,
    "syn": TrafficClass.SYN_FLOOD,
    "syn_flood": TrafficClass.SYN_FLOOD,
    "ack": TrafficClass.ACK_FLOOD,
    "ack_flood": TrafficClass.ACK_FLOOD,
    "http": TrafficClass.HTTP_FLOOD,
    "http_flood": TrafficClass.HTTP_FLOOD,
    "udp": TrafficClass.UDP_FLOOD,
    "udp_flood": TrafficClass.UDP_FLOOD,
}


def encode_label(name: str) -> TrafficClass:
    """Map a case-insensitive label alias ("syn", "UDP_FLOOD", ...) to its class."""
    try:
        return _ALIASES[name.strip().lower()]
    except KeyError:
        raise UnknownLabel(f"unknown traffic label: {name!r}") from None


def as_features(values) -> np.ndarray:
    """Coerce to a float64 vector of length 24, rejecting bad shapes and non-finite values."""
    arr = np.array(values, dtype=np.float64)
    if arr.shape != (NUM_FEATURES,):
        raise ValueError(f"feature vector must have length {NUM_FEATURES}, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValueError("feature vector contains non-finite values")
    return arr


@dataclass(frozen=True, eq=False)
class LabeledRecord:
    """One feature vector plus its traffic class."""

    features: np.ndarray
    label: TrafficClass

    def __post_init__(self):
        object.__setattr__(self, "features", as_features(self.features))
        object.__setattr__(self, "label", TrafficClass(self.label))


class Dataset:
    """Ordered collection of labeled records, stored as columnar arrays."""

    def __init__(self, features=None, labels=None):
        if features is None:
            features = np.empty((0, NUM_FEATURES), dtype=np.float64)
        if labels is None:
            labels = np.empty((0,), dtype=np.int64)
        features = np.asarray(features, dtype=np.float64)
        labels = np.asarray(labels, dtype=np.int64)
        if features.ndim != 2 or features.shape[1] != NUM_FEATURES:
            raise ValueError(f"features must be (n, {NUM_FEATURES}), got {features.shape}")
        if labels.shape != (features.shape[0],):
            raise ValueError("labels must match the number of feature rows")
        if not np.isfinite(features).all():
            raise ValueError("features contain non-finite values")
        if len(labels) and (labels.min() < 0 or labels.max() >= NUM_CLASSES):
            raise ValueError("labels must be ordinals in [0, 5)")
        self.features = features
        self.labels = labels

    @classmethod
    def from_records(cls, records: Iterable[LabeledRecord]) -> "Dataset":
        records = list(records)
        if not records:
            return cls()
        feats = np.stack([r.features for r in records])
        labels = np.array([int(r.label) for r in records], dtype=np.int64)
        return cls(feats, labels)

    def __len__(self) -> int:
        return self.features.shape[0]

    def __getitem__(self, i: int) -> LabeledRecord:
        return LabeledRecord(self.features[i], TrafficClass(int(self.labels[i])))

    def __iter__(self) -> Iterator[LabeledRecord]:
        for i in range(len(self)):
            yield self[i]

    def class_counts(self) -> list[int]:
        """Record count per class, in TrafficClass ordinal order."""
        return [int(np.count_nonzero(self.labels == c)) for c in range(NUM_CLASSES)]

    def subset(self, indices) -> "Dataset":
        indices = np.asarray(indices, dtype=np.int64)
        return Dataset(self.features[indices], self.labels[indices])


@dataclass
class NormalizationStats:
    """Per-feature mean and (clamped) population standard deviation."""

    mean: np.ndarray
    std: np.ndarray

    def __post_init__(self):
        self.mean = np.asarray(self.mean, dtype=np.float64)
        self.std = np.asarray(self.std, dtype=np.float64)
        if self.mean.shape != (NUM_FEATURES,) or self.std.shape != (NUM_FEATURES,):
            raise ValueError(f"normalization stats must have length {NUM_FEATURES}")
        if not (np.isfinite(self.mean).all() and np.isfinite(self.std).all()):
            raise ValueError("normalization stats must be finite")
        if (self.std <= 0).any():
            raise ValueError("std values must be positive")


def _round_half_up(x: float) -> int:
    return int(math.floor(x + 0.5))


def stratified_split(
    ds: Dataset, ratios: tuple[float, float, float], seed: int
) -> tuple[Dataset, Dataset, Dataset]:
    """Split per class into (train, val, test) with a seeded shuffle.

    Per class, test gets round(count * test_ratio) records, validation gets
    round(count * val_ratio), and train gets the remainder. The same seed
    always yields the same partitions.
    """
    try:
        train_ratio, val_ratio, test_ratio = (float(r) for r in ratios)
    except (TypeError, ValueError):
        raise BadRatios(f"ratios must be three numbers, got {ratios!r}") from None
    if min(train_ratio, val_ratio, test_ratio) <= 0:
        raise BadRatios("all three ratios must be positive")
    if abs(train_ratio + val_ratio + test_ratio - 1.0) > 1e-9:
        raise BadRatios("ratios must sum to 1")

    short = [f"{TrafficClass(c).alias} ({n})" for c, n in enumerate(ds.class_counts()) if n < 3]
    if short:
        raise EmptyClass(f"every class needs at least 3 records to split; too few in: {', '.join(short)}")

    rng = np.random.default_rng(seed)
    train_parts, val_parts, test_parts = [], [], []
    for c in range(NUM_CLASSES):
        idx = np.flatnonzero(ds.labels == c)
        rng.shuffle(idx)
        n_test = _round_half_up(idx.size * test_ratio)
        n_val = _round_half_up(idx.size * val_ratio)
        test_parts.append(idx[:n_test])
        val_parts.append(idx[n_test : n_test + n_val])
        train_parts.append(idx[n_test + n_val :])

    def _take(parts):
        return ds.subset(np.concatenate(parts))

    return _take(train_parts), _take(val_parts), _take(test_parts)


def fit_normalization(train: Dataset) -> NormalizationStats:
    """Per-feature mean and population std over the training set.

    Features with std below 1e-12 get std clamped to 1.0 so that applying
    the stats is always well defined.
    """
    if len(train) == 0:
        raise EmptyDataset("cannot fit normalization on an empty dataset")
    mean = train.features.mean(axis=0)
    std = train.features.std(axis=0)
    std = np.where(std < 1e-12, 1.0, std)
    return NormalizationStats(mean, std)


def apply_normalization(v, stats: NormalizationStats) -> np.ndarray:
    """Return (v - mean) / std; broadcasts over a (n, 24) matrix as well."""
    return (np.asarray(v, dtype=np.float64) - stats.mean) / stats.std


def write_csv(ds: Dataset, path) -> None:
    """Write the dataset as `f01,...,f24,label` rows with full-precision floats."""
    with atomic_write(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_HEADER)
        for feats, label in zip(ds.features, ds.labels):
            writer.writerow([repr(float(v)) for v in feats] + [TrafficClass(int(label)).alias])


def read_csv(path) -> Dataset:
    """Read a dataset CSV produced by write_csv (or shaped like it)."""
    feats: list[list[float]] = []
    labels: list[int] = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or tuple(header) != CSV_HEADER:
            raise MalformedRow(f"{path}: header does not match f01..f{NUM_FEATURES},label")
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != NUM_FEATURES + 1:
                raise MalformedRow(
                    f"{path}:{lineno}: expected {NUM_FEATURES + 1} columns, got {len(row)}"
                )
            try:
                values = [float(cell) for cell in row[:NUM_FEATURES]]
            except ValueError:
                raise MalformedRow(f"{path}:{lineno}: non-numeric feature value") from None
            if not all(math.isfinite(v) for v in values):
                raise MalformedRow(f"{path}:{lineno}: non-finite feature value")
            feats.append(values)
            labels.append(int(encode_label(row[NUM_FEATURES])))
    if not feats:
        return Dataset()
    return Dataset(np.asarray(feats, dtype=np.float64), np.asarray(labels, dtype=np.int64))
