"""Confusion matrices and the detection metric suite.

A confusion matrix is a (5, 5) int64 array of window counts, rows the true
class and columns the predicted one. Each scope of the report counts normal
traffic against a tuple of attack classes, within the submatrix of normal and
those classes: the "overall" scope against all four floods, a per-attack scope
against one.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

import numpy as np

from .dataset import NUM_CLASSES, TrafficClass


def build_confusion(true, predicted) -> np.ndarray:
    """Count (true, predicted) label pairs into a (5, 5) matrix."""
    codes = NUM_CLASSES * np.asarray(true, dtype=np.int64) + np.asarray(predicted, dtype=np.int64)
    return np.bincount(codes, minlength=NUM_CLASSES * NUM_CLASSES).reshape(NUM_CLASSES, NUM_CLASSES)


class BinaryCounts(NamedTuple):
    """Two-class outcome counts: attacks are the positive class."""

    tp: int
    tn: int
    fp: int
    fn: int


def binary_counts(cm: np.ndarray, attacks) -> BinaryCounts:
    """Normal traffic against the attack classes `attacks`, in their submatrix.

    Only windows whose true and predicted classes are both normal or one of
    `attacks` count; an attack predicted as any of `attacks` is a TP.
    """
    a = list(attacks)
    return BinaryCounts(
        tp=int(cm[a][:, a].sum()), tn=int(cm[0, 0]), fp=int(cm[0, a].sum()), fn=int(cm[a, 0].sum())
    )


class MetricSet(NamedTuple):
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

    accuracy = pct(c.tp + c.tn, sum(c))
    precision = pct(c.tp, c.tp + c.fp)
    recall = pct(c.tp, c.tp + c.fn)
    specificity = pct(c.tn, c.tn + c.fp)
    if precision is None or recall is None or precision + recall == 0:
        f_score = None
    else:
        p, r = precision / 100.0, recall / 100.0
        f_score = 2.0 * r * p / (r + p)
    return MetricSet(accuracy, precision, recall, specificity, f_score)


class Report(NamedTuple):
    """Rendered evaluation report: aligned text plus machine-readable CSV."""

    text: str
    csv: str


# (CSV key, report name, attack classes counted against normal traffic).
_ATTACKS = tuple(c for c in TrafficClass if c is not TrafficClass.NORMAL)
_SCOPES = (("overall", "All DDoS Flooding", _ATTACKS),) + tuple((c.short, c.display_name, (c,)) for c in _ATTACKS)
_HEADINGS = ("Accuracy", "Precision", "Recall", "Specificity", "F-score")


def _fmt(value: Optional[float], undefined: str) -> str:
    return undefined if value is None else f"{value:.2f}"


def render_report(cm: np.ndarray) -> Report:
    """Render the 5x5 matrix, the overall metric row, and the four pairwise rows."""
    names = [c.display_name for c in TrafficClass]
    name_w = max(len(n) for n in names)
    cell_w = max(6, max(len(str(v)) for v in cm.ravel().tolist()))
    widths = [max(cell_w, len(n)) for n in names]
    lines = ["Confusion matrix (rows: true class, columns: predicted class)", ""]
    lines.append(" " * (name_w + 2) + "  ".join(f"{n:>{w}}" for n, w in zip(names, widths)))
    for n, row in zip(names, cm.tolist()):
        lines.append(f"{n:<{name_w}}  " + "  ".join(f"{v:>{w}}" for v, w in zip(row, widths)))
    lines += ["", "Performance indicators", ""]

    scope_w = max(len(name) for _, name, _ in _SCOPES)
    lines.append(f"{'Scope':<{scope_w}}  " + "  ".join(f"{h:>11}" for h in _HEADINGS))
    csv_lines = [",".join(("scope",) + MetricSet._fields)]
    for key, name, attacks in _SCOPES:
        ms = metric_set(binary_counts(cm, attacks))
        lines.append(f"{name:<{scope_w}}  " + "  ".join(f"{_fmt(v, 'undefined'):>11}" for v in ms))
        csv_lines.append(",".join([key] + [_fmt(v, "NA") for v in ms]))
    return Report(text="\n".join(lines) + "\n", csv="\n".join(csv_lines) + "\n")
