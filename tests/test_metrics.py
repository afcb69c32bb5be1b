import numpy as np
import pytest

from floodgate.dataset import TrafficClass
from floodgate.errors import InvalidClass
from floodgate.metrics import (
    BinaryCounts,
    build_confusion,
    collapse_binary,
    metric_set,
    pairwise_counts,
    render_report,
)

# Reference evaluation matrices (rows true, columns predicted) with the
# published metric values they must reproduce; used across the suite.
DETECTION_MATRIX = np.array(
    [
        [2471, 15, 3, 2, 2],
        [10, 523, 0, 0, 0],
        [1, 0, 1133, 0, 0],
        [1, 0, 0, 156, 0],
        [3, 0, 0, 0, 1442],
    ],
    dtype=np.int64,
)

FIELD_MATRIX = np.array(
    [
        [3467, 126, 101, 64, 87],
        [56, 1665, 0, 0, 0],
        [34, 0, 2169, 0, 0],
        [25, 0, 0, 955, 0],
        [29, 0, 0, 0, 1786],
    ],
    dtype=np.int64,
)

ZERO_MATRIX = np.zeros((5, 5), dtype=np.int64)

N, S, A, H, U = TrafficClass


class TestBuildConfusion:
    def test_empty(self):
        cm = build_confusion(np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64))
        assert cm.shape == (5, 5) and cm.dtype == np.int64
        assert cm.sum() == 0

    def test_direct_counting(self):
        cm = build_confusion([N, N, N, N], [N, N, N, S])
        assert cm[0].tolist() == [3, 1, 0, 0, 0]
        assert cm.sum() == 4

    def test_total_equals_input_length(self, rng):
        true, predicted = rng.integers(0, 5, size=(2, 500))
        cm = build_confusion(true, predicted)
        assert cm.sum() == 500
        assert int(np.trace(cm)) <= cm.sum()

    def test_equals_pair_counting_loop(self, rng):
        true, predicted = rng.integers(0, 5, size=(2, 2000))
        expected = np.zeros((5, 5), dtype=np.int64)
        for t, p in zip(true.tolist(), predicted.tolist()):
            expected[t, p] += 1
        assert np.array_equal(build_confusion(true, predicted), expected)

    def test_row_sums_match_true_counts(self):
        assert DETECTION_MATRIX.sum(axis=1).tolist() == [2493, 533, 1134, 157, 1445]
        assert DETECTION_MATRIX.sum() == 5762
        assert FIELD_MATRIX.sum(axis=1).tolist() == [3845, 1721, 2203, 980, 1815]
        assert FIELD_MATRIX.sum() == 10564


class TestCollapseBinary:
    def _oracle(self, c):
        return (
            int(sum(c[t][p] for t in range(1, 5) for p in range(1, 5))),
            int(c[0][0]),
            int(sum(c[0][p] for p in range(1, 5))),
            int(sum(c[t][0] for t in range(1, 5))),
        )

    @pytest.mark.parametrize("cm", [DETECTION_MATRIX, FIELD_MATRIX])
    def test_matches_cell_sum_oracle(self, cm):
        counts = collapse_binary(cm)
        assert (counts.tp, counts.tn, counts.fp, counts.fn) == self._oracle(cm)

    def test_detection_counts(self):
        counts = collapse_binary(DETECTION_MATRIX)
        assert (counts.tn, counts.fp, counts.fn, counts.tp) == (2471, 22, 15, 3254)

    def test_field_counts(self):
        counts = collapse_binary(FIELD_MATRIX)
        assert (counts.tn, counts.fp, counts.fn, counts.tp) == (3467, 378, 144, 6575)

    def test_all_zero(self):
        counts = collapse_binary(ZERO_MATRIX)
        assert counts == BinaryCounts(tp=0, tn=0, fp=0, fn=0)

    def test_count_sum_is_total(self):
        assert sum(collapse_binary(DETECTION_MATRIX)) == DETECTION_MATRIX.sum()


class TestPairwiseCounts:
    def test_syn(self):
        counts = pairwise_counts(DETECTION_MATRIX, S)
        assert (counts.tp, counts.fn, counts.fp, counts.tn) == (523, 10, 15, 2471)

    def test_http(self):
        counts = pairwise_counts(DETECTION_MATRIX, H)
        assert (counts.tp, counts.fn, counts.fp, counts.tn) == (156, 1, 2, 2471)

    def test_normal_rejected(self):
        with pytest.raises(InvalidClass):
            pairwise_counts(DETECTION_MATRIX, N)

    def test_depends_only_on_four_cells(self):
        perturbed = DETECTION_MATRIX.copy()
        perturbed[2][3] += 40
        perturbed[4][2] += 7
        assert pairwise_counts(perturbed, S) == pairwise_counts(
            DETECTION_MATRIX, S
        )


class TestMetricSet:
    def test_formulas_against_direct_arithmetic(self):
        counts = BinaryCounts(tp=523, tn=2471, fp=15, fn=10)
        ms = metric_set(counts)
        assert ms.accuracy == pytest.approx(100 * (523 + 2471) / 3019, abs=1e-12)
        assert ms.precision == pytest.approx(100 * 523 / 538, abs=1e-12)
        assert ms.recall == pytest.approx(100 * 523 / 533, abs=1e-12)
        assert ms.specificity == pytest.approx(100 * 2471 / 2486, abs=1e-12)

    def test_f_score_consistency(self):
        ms = metric_set(collapse_binary(FIELD_MATRIX))
        p, r = ms.precision / 100, ms.recall / 100
        assert ms.f_score == pytest.approx(2 * p * r / (p + r), abs=1e-12)

    def test_all_zero_counts_are_undefined(self):
        ms = metric_set(BinaryCounts(tp=0, tn=0, fp=0, fn=0))
        assert ms.accuracy is None
        assert ms.precision is None
        assert ms.recall is None
        assert ms.specificity is None
        assert ms.f_score is None

    def test_partial_undefined(self):
        # No predicted positives: precision undefined, recall defined (0%).
        ms = metric_set(BinaryCounts(tp=0, tn=5, fp=0, fn=3))
        assert ms.precision is None
        assert ms.recall == 0.0
        assert ms.f_score is None

    def test_zero_precision_and_recall(self):
        ms = metric_set(BinaryCounts(tp=0, tn=1, fp=2, fn=3))
        assert ms.precision == 0.0
        assert ms.recall == 0.0
        assert ms.f_score is None


class TestRenderReport:
    def test_syn_row_precision(self):
        text = render_report(DETECTION_MATRIX).text
        indicators = text.split("Performance indicators")[1]
        syn_line = next(l for l in indicators.splitlines() if l.startswith("SYN Flooding"))
        assert "97.21" in syn_line

    def test_all_zero_matrix_renders_undefined(self):
        report = render_report(ZERO_MATRIX)
        assert "undefined" in report.text
        assert ",NA" in report.csv

    def test_field_overall_accuracy_rounds_to_95_06(self):
        report = render_report(FIELD_MATRIX)
        overall = next(l for l in report.csv.splitlines() if l.startswith("overall,"))
        assert overall.split(",")[1] == "95.06"

    def test_csv_structure(self):
        lines = render_report(DETECTION_MATRIX).csv.strip().splitlines()
        assert lines[0] == "scope,accuracy,precision,recall,specificity,f_score"
        assert [l.split(",")[0] for l in lines[1:]] == ["overall", "syn", "ack", "http", "udp"]
        assert all(len(l.split(",")) == 6 for l in lines)

    def test_matrix_cells_present(self):
        report = render_report(DETECTION_MATRIX)
        for value in ("2471", "523", "1133", "156", "1442"):
            assert value in report.text


# The whole report layout, generated from the matrices above by the
# renderer before it was rewritten over one scope table; every byte counts.
DETECTION_TEXT = """\
Confusion matrix (rows: true class, columns: predicted class)

                Normal traffic  SYN Flooding  ACK Flooding  HTTP Flooding  UDP Flooding
Normal traffic            2471            15             3              2             2
SYN Flooding                10           523             0              0             0
ACK Flooding                 1             0          1133              0             0
HTTP Flooding                1             0             0            156             0
UDP Flooding                 3             0             0              0          1442

Performance indicators

Scope                 Accuracy    Precision       Recall  Specificity      F-score
All DDoS Flooding        99.36        99.33        99.54        99.12         0.99
SYN Flooding             99.17        97.21        98.12        99.40         0.98
ACK Flooding             99.89        99.74        99.91        99.88         1.00
HTTP Flooding            99.89        98.73        99.36        99.92         0.99
UDP Flooding             99.87        99.86        99.79        99.92         1.00
"""

DETECTION_CSV = """\
scope,accuracy,precision,recall,specificity,f_score
overall,99.36,99.33,99.54,99.12,0.99
syn,99.17,97.21,98.12,99.40,0.98
ack,99.89,99.74,99.91,99.88,1.00
http,99.89,98.73,99.36,99.92,0.99
udp,99.87,99.86,99.79,99.92,1.00
"""

ZERO_TEXT = """\
Confusion matrix (rows: true class, columns: predicted class)

                Normal traffic  SYN Flooding  ACK Flooding  HTTP Flooding  UDP Flooding
Normal traffic               0             0             0              0             0
SYN Flooding                 0             0             0              0             0
ACK Flooding                 0             0             0              0             0
HTTP Flooding                0             0             0              0             0
UDP Flooding                 0             0             0              0             0

Performance indicators

Scope                 Accuracy    Precision       Recall  Specificity      F-score
All DDoS Flooding    undefined    undefined    undefined    undefined    undefined
SYN Flooding         undefined    undefined    undefined    undefined    undefined
ACK Flooding         undefined    undefined    undefined    undefined    undefined
HTTP Flooding        undefined    undefined    undefined    undefined    undefined
UDP Flooding         undefined    undefined    undefined    undefined    undefined
"""

ZERO_CSV = """\
scope,accuracy,precision,recall,specificity,f_score
overall,NA,NA,NA,NA,NA
syn,NA,NA,NA,NA,NA
ack,NA,NA,NA,NA,NA
http,NA,NA,NA,NA,NA
udp,NA,NA,NA,NA,NA
"""


@pytest.mark.parametrize(
    "cm, text, csv",
    [(DETECTION_MATRIX, DETECTION_TEXT, DETECTION_CSV), (ZERO_MATRIX, ZERO_TEXT, ZERO_CSV)],
    ids=["detection", "all_zero"],
)
def test_full_layout(cm, text, csv):
    report = render_report(cm)
    assert report.text == text
    assert report.csv == csv
