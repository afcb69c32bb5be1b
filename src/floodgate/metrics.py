"""Confusion matrices and the detection metric suite.

Two evaluation scopes are supported: "overall" collapses the 5x5 matrix to
normal-vs-any-flood, and the per-attack scope restricts it to the four cells
of the {normal, attack} submatrix (only packets of those two classes that
were predicted as one of those two classes participate).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

import numpy as np

from .dataset import NUM_CLASSES, TrafficClass
from .errors import InvalidClass

ATTACK_CLASSES = tuple(c for c in TrafficClass if c is not TrafficClass.NORMAL)


class ConfusionMatrix:
    """5x5 count matrix; rows are true classes, columns predicted classes."""

    def __init__(self, cells=None):
        if cells is None:
            cells = np.zeros((NUM_CLASSES, NUM_CLASSES), dtype=np.int64)
        cells = np.asarray(cells, dtype=np.int64)
        if cells.shape != (NUM_CLASSES, NUM_CLASSES):
            raise ValueError(f"confusion matrix must be {NUM_CLASSES}x{NUM_CLASSES}")
        if (cells < 0).any():
            raise ValueError("confusion matrix cells must be non-negative")
        self.cells = cells

    @property
    def total(self) -> int:
        return int(self.cells.sum())

    def row_sums(self) -> list[int]:
        return [int(s) for s in self.cells.sum(axis=1)]


def build_confusion(pairs: Iterable[tuple[TrafficClass, TrafficClass]]) -> ConfusionMatrix:
    """Count (true, predicted) pairs into a confusion matrix."""
    cells = np.zeros((NUM_CLASSES, NUM_CLASSES), dtype=np.int64)
    for true, predicted in pairs:
        cells[int(true), int(predicted)] += 1
    return ConfusionMatrix(cells)


@dataclass(frozen=True)
class BinaryCounts:
    """Two-class outcome counts: attacks are the positive class."""

    tp: int
    tn: int
    fp: int
    fn: int

    def __post_init__(self):
        if min(self.tp, self.tn, self.fp, self.fn) < 0:
            raise ValueError("counts must be non-negative")

    @property
    def total(self) -> int:
        return self.tp + self.tn + self.fp + self.fn


def collapse_binary(cm: ConfusionMatrix) -> BinaryCounts:
    """Collapse to normal-vs-flood: any attack predicted as any attack is a TP."""
    c = cm.cells
    return BinaryCounts(
        tp=int(c[1:, 1:].sum()),
        tn=int(c[0, 0]),
        fp=int(c[0, 1:].sum()),
        fn=int(c[1:, 0].sum()),
    )


def pairwise_counts(cm: ConfusionMatrix, attack: TrafficClass) -> BinaryCounts:
    """Restrict to the {normal, attack} submatrix: four cells only."""
    attack = TrafficClass(attack)
    if attack is TrafficClass.NORMAL:
        raise InvalidClass("pairwise counts need one of the four attack classes")
    a = int(attack)
    c = cm.cells
    return BinaryCounts(tp=int(c[a, a]), tn=int(c[0, 0]), fp=int(c[0, a]), fn=int(c[a, 0]))


@dataclass(frozen=True)
class MetricSet:
    """Percent metrics plus F-score; None marks an undefined (0/0) value."""

    accuracy: Optional[float]
    precision: Optional[float]
    recall: Optional[float]
    specificity: Optional[float]
    f_score: Optional[float]


def metric_set(c: BinaryCounts) -> MetricSet:
    """Accuracy/precision/recall/specificity as percentages, F-score in [0, 1].

    Any metric whose denominator is zero is reported as None rather than 0.
    """

    def pct(num: int, den: int) -> Optional[float]:
        return 100.0 * num / den if den else None

    accuracy = pct(c.tp + c.tn, c.total)
    precision = pct(c.tp, c.tp + c.fp)
    recall = pct(c.tp, c.tp + c.fn)
    specificity = pct(c.tn, c.tn + c.fp)
    if precision is None or recall is None or precision + recall == 0:
        f_score = None
    else:
        p, r = precision / 100.0, recall / 100.0
        f_score = 2.0 * r * p / (r + p)
    return MetricSet(accuracy, precision, recall, specificity, f_score)


@dataclass(frozen=True)
class Report:
    """Rendered evaluation report: aligned text plus machine-readable CSV."""

    text: str
    csv: str


_CSV_SCOPES = (
    ("overall", None),
    ("syn", TrafficClass.SYN_FLOOD),
    ("ack", TrafficClass.ACK_FLOOD),
    ("http", TrafficClass.HTTP_FLOOD),
    ("udp", TrafficClass.UDP_FLOOD),
)


def _fmt(value: Optional[float], undefined: str) -> str:
    return undefined if value is None else f"{value:.2f}"


def render_report(cm: ConfusionMatrix) -> Report:
    """Render the 5x5 matrix, the overall metric row, and the four pairwise rows."""
    names = [c.display_name for c in TrafficClass]
    scope_metrics = []
    for key, attack in _CSV_SCOPES:
        counts = collapse_binary(cm) if attack is None else pairwise_counts(cm, attack)
        scope_metrics.append((key, attack, metric_set(counts)))

    lines = ["Confusion matrix (rows: true class, columns: predicted class)", ""]
    name_w = max(len(n) for n in names)
    cell_w = max(6, max(len(str(int(v))) for v in cm.cells.flat))
    header = " " * (name_w + 2) + "  ".join(f"{n:>{max(cell_w, len(n))}}" for n in names)
    lines.append(header)
    for i, n in enumerate(names):
        row = "  ".join(
            f"{int(v):>{max(cell_w, len(names[j]))}}" for j, v in enumerate(cm.cells[i])
        )
        lines.append(f"{n:<{name_w}}  " + row)
    lines.append("")

    lines.append("Performance indicators")
    lines.append("")
    scope_names = ["All DDoS Flooding"] + [a.display_name for _, a in _CSV_SCOPES[1:]]
    scope_w = max(len(s) for s in scope_names)
    cols = ("Accuracy", "Precision", "Recall", "Specificity", "F-score")
    lines.append(f"{'Scope':<{scope_w}}  " + "  ".join(f"{c:>11}" for c in cols))
    for (key, attack, ms), scope_name in zip(scope_metrics, scope_names):
        cells = [
            _fmt(ms.accuracy, "undefined"),
            _fmt(ms.precision, "undefined"),
            _fmt(ms.recall, "undefined"),
            _fmt(ms.specificity, "undefined"),
            _fmt(ms.f_score, "undefined"),
        ]
        lines.append(f"{scope_name:<{scope_w}}  " + "  ".join(f"{c:>11}" for c in cells))
    text = "\n".join(lines) + "\n"

    csv_lines = ["scope,accuracy,precision,recall,specificity,f_score"]
    for key, attack, ms in scope_metrics:
        csv_lines.append(
            ",".join(
                [
                    key,
                    _fmt(ms.accuracy, "NA"),
                    _fmt(ms.precision, "NA"),
                    _fmt(ms.recall, "NA"),
                    _fmt(ms.specificity, "NA"),
                    _fmt(ms.f_score, "NA"),
                ]
            )
        )
    return Report(text=text, csv="\n".join(csv_lines) + "\n")
