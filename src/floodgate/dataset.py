"""Labeled traffic records: class labels, stratified splits, CSV I/O.

The dataset CSV (`f01,...,f24,label`) and the ground-truth CSV
(`start_ts,end_ts,label`) share one row grammar, written by `write_rows` and
read by `read_rows`: a header line, then one line per row, its k finite
floats and a traffic-class alias. A line's fields are split on ","; there is
no quoting or escape, so a `"` is an ordinary character of its field. A line
ends in "\r\n" (as written), "\n" or "\r", and blank lines are skipped.
"""

from __future__ import annotations

import math
from enum import IntEnum
from typing import Iterable, Iterator

import numpy as np

from .errors import FloodgateError
from .ioutil import atomic_write, open_text, strict_numbers

NUM_FEATURES = 24

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
        return self.name.lower()

    @property
    def short(self) -> str:
        """The alias without its "_flood" suffix ("syn" for SYN_FLOOD)."""
        return self.alias.removesuffix("_flood")

    @property
    def display_name(self) -> str:
        """The report's name: "Normal traffic", or "SYN Flooding" for SYN_FLOOD."""
        return "Normal traffic" if self is TrafficClass.NORMAL else f"{self.short.upper()} Flooding"


NUM_CLASSES = len(TrafficClass)
_ALIASES = {name: c for c in TrafficClass for name in (c.alias, c.short)}


def encode_label(name: str, where: str = "") -> TrafficClass:
    """Map a case-insensitive label alias ("syn", "UDP_FLOOD", ...) to its class.

    `where` (say `path:line: `) starts the FloodgateError message.
    """
    try:
        return _ALIASES[name.strip().lower()]
    except KeyError:
        raise FloodgateError(f"{where}unknown traffic label: {name!r}") from None


class Dataset:
    """Ordered collection of labeled records, stored as columnar arrays."""

    def __init__(self, features, labels):
        features, labels = np.asarray(features), np.asarray(labels)
        # Nothing is parsed or rounded here; an empty sequence has no dtype to check.
        if features.size and features.dtype.kind not in "iuf":
            raise ValueError(f"features must be numbers, got dtype {features.dtype}")
        if labels.size and labels.dtype.kind not in "iu":
            raise ValueError(f"labels must be integer ordinals, got dtype {labels.dtype}")
        features, labels = features.astype(np.float64, copy=False), labels.astype(np.int64, copy=False)
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
    def from_records(cls, records: Iterable[tuple]) -> "Dataset":
        """The dataset of `(features, label)` pairs, in order."""
        records = list(records)
        if not records:
            return cls(np.empty((0, NUM_FEATURES)), np.empty(0, dtype=np.int64))
        features, labels = zip(*records)
        return cls(np.array(features), np.array(labels))

    def __len__(self) -> int:
        return self.features.shape[0]

    def class_counts(self) -> list[int]:
        """Record count per class, in TrafficClass ordinal order."""
        return np.bincount(self.labels, minlength=NUM_CLASSES).tolist()

    def subset(self, indices) -> "Dataset":
        indices = np.asarray(indices, dtype=np.int64)
        return Dataset(self.features[indices], self.labels[indices])


def _round_half_up(x: float) -> int:
    return int(math.floor(x + 0.5))


# The (train, validation, test) shares `floodgate train` splits a dataset into.
SPLIT = (0.70, 0.15, 0.15)


def stratified_split(
    ds: Dataset, ratios: tuple[float, float, float], seed: int
) -> tuple[Dataset, Dataset, Dataset]:
    """Split per class into (train, val, test) with a seeded shuffle.

    Per class, test gets round(count * test_ratio) records, validation gets
    round(count * val_ratio), and train gets the remainder. A class with
    fewer than 3 records, or none left for training, raises FloodgateError;
    ratios that are not three positive numbers summing to 1 raise
    ValueError. The same seed always yields the same partitions.
    """
    try:
        train_ratio, val_ratio, test_ratio = (float(r) for r in ratios)
    except (TypeError, ValueError):
        raise ValueError(f"ratios must be three numbers, got {ratios!r}") from None
    # A range test, so that nan, which fails every comparison, is rejected too.
    if not all(0 < r < math.inf for r in (train_ratio, val_ratio, test_ratio)):
        raise ValueError("all three ratios must be positive and finite")
    if abs(train_ratio + val_ratio + test_ratio - 1.0) > 1e-9:
        raise ValueError("ratios must sum to 1")

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

    counts = ds.class_counts()
    short = [f"{TrafficClass(c).alias} ({n})" for c, n in enumerate(counts) if n < 3 or not train_parts[c].size]
    if short:
        raise FloodgateError(f"a class needs at least 3 records and 1 for training; too few in: {', '.join(short)}")
    return tuple(ds.subset(np.concatenate(parts)) for parts in (train_parts, val_parts, test_parts))


def format_rows(values) -> Iterator[str]:
    """Each row of the float matrix `values` as its `repr`s joined by ","; `repr`
    runs once per distinct value (by bits: -0.0 is not 0.0) in each 512-row block."""
    values = np.ascontiguousarray(values, dtype=np.float64)
    for block in np.split(values, range(512, len(values), 512)):
        bits, inverse = np.unique(block.view(np.uint64), return_inverse=True)
        text = np.array([repr(v) for v in bits.view(np.float64).tolist()], dtype=object)
        yield from map(",".join, text[inverse.reshape(block.shape)].tolist())


def write_rows(path, header, values, labels) -> None:
    """Write `header`, then one line per row of `values` in the module's row grammar:
    its floats in full precision from `format_rows`, which formats each distinct
    value once per block, then the alias of its label ordinal (one outside [0, 5)
    raises ValueError)."""
    codes, which = np.unique(np.asarray(labels, dtype=np.int64), return_inverse=True)
    aliases = [TrafficClass(code).alias for code in codes.tolist()]
    with atomic_write(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        fh.writelines(f"{row},{aliases[i]}\r\n" for row, i in zip(format_rows(values), which.tolist()))


def read_rows(path, header) -> tuple[np.ndarray, np.ndarray, list[int]]:
    """Read a file in the module's row grammar: the finite floats as an (n, len(header) - 1)
    array, the n label ordinals, and the line number of each row."""
    k = len(header) - 1
    values, labels, lines = [], [], []
    with open_text(path) as fh:
        rows = (text.removesuffix("\n").split(",") for text in fh)
        if next(rows, None) != list(header):
            raise FloodgateError(f"{path}: header does not match {','.join(header)}")
        for line, row in enumerate(rows, 2):
            if row == [""]:
                continue
            where = f"{path}:{line}: "
            if len(row) != k + 1:
                raise FloodgateError(f"{where}expected {k + 1} columns, got {len(row)}")
            try:
                floats = strict_numbers(row[:k])
            except ValueError:
                raise FloodgateError(f"{where}non-numeric value") from None
            if not all(map(math.isfinite, floats)):
                raise FloodgateError(f"{where}non-finite value")
            values.append(floats)
            labels.append(int(encode_label(row[k], where)))
            lines.append(line)
    return np.array(values, dtype=np.float64).reshape(-1, k), np.array(labels, dtype=np.int64), lines


def write_csv(ds: Dataset, path) -> None:
    """Write the dataset as `f01,...,f24,label` rows with full-precision floats."""
    write_rows(path, CSV_HEADER, ds.features, ds.labels)


def read_csv(path) -> Dataset:
    """Read a dataset CSV produced by write_csv (or shaped like it)."""
    features, labels, _ = read_rows(path, CSV_HEADER)
    return Dataset(features, labels)
