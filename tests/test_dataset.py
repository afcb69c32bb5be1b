import math
import statistics

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from floodgate.dataset import (
    CSV_HEADER,
    NUM_FEATURES,
    Dataset,
    LabeledRecord,
    TrafficClass,
    encode_label,
    fit_normalization,
    read_csv,
    read_rows,
    stratified_split,
    write_csv,
    write_rows,
)
from floodgate.errors import (
    BadRatios,
    EmptyClass,
    EmptyDataset,
    MalformedRow,
    UnknownLabel,
)
from floodgate.features import read_truth
from floodgate.mlp import MlpModel, forward, init_model


def make_dataset(class_counts, rng=None):
    """Dataset with the given per-class counts; f01 carries a unique record id."""
    labels = np.concatenate(
        [np.full(n, c, dtype=np.int64) for c, n in enumerate(class_counts)]
    )
    feats = np.zeros((len(labels), NUM_FEATURES))
    feats[:, 0] = np.arange(len(labels))
    if rng is not None:
        feats[:, 1:] = rng.normal(size=(len(labels), NUM_FEATURES - 1))
    return Dataset(feats, labels)


class TestLabels:
    def test_exactly_five_classes_with_stable_ordinals(self):
        assert [int(c) for c in TrafficClass] == [0, 1, 2, 3, 4]
        assert TrafficClass.NORMAL == 0
        assert TrafficClass.UDP_FLOOD == 4

    def test_encode_basic(self):
        assert encode_label("normal") is TrafficClass.NORMAL
        assert encode_label("SYN_FLOOD") is TrafficClass.SYN_FLOOD

    @pytest.mark.parametrize(
        "alias,expected",
        [
            ("syn", TrafficClass.SYN_FLOOD),
            ("ack", TrafficClass.ACK_FLOOD),
            ("ack_flood", TrafficClass.ACK_FLOOD),
            ("http", TrafficClass.HTTP_FLOOD),
            ("HTTP_FLOOD", TrafficClass.HTTP_FLOOD),
            ("udp", TrafficClass.UDP_FLOOD),
            ("udp_flood", TrafficClass.UDP_FLOOD),
            ("  Normal  ", TrafficClass.NORMAL),
        ],
    )
    def test_encode_aliases(self, alias, expected):
        assert encode_label(alias) is expected

    def test_unknown_label(self):
        with pytest.raises(UnknownLabel):
            encode_label("teardrop")

    def test_alias_round_trip(self):
        for cls in TrafficClass:
            assert encode_label(cls.alias) is cls


class TestSplit:
    RATIOS = (0.70, 0.15, 0.15)

    def test_published_class_counts_reproduced(self):
        # Reference per-class totals for the 15% test share of a
        # (16619, 3556, 7562, 1044, 9632) dataset.
        counts = (16619, 3556, 7562, 1044, 9632)
        expected_test = [math.floor(n * 0.15 + 0.5) for n in counts]
        assert expected_test == [2493, 533, 1134, 157, 1445]
        ds = make_dataset(counts)
        _, _, test = stratified_split(ds, self.RATIOS, seed=1)
        assert test.class_counts() == expected_test
        assert len(test) == 5762

    def test_rounding_is_half_up(self):
        # 10 * 0.15 = 1.5 rounds up to 2 for both val and test.
        ds = make_dataset((10, 10, 10, 10, 10))
        train, val, test = stratified_split(ds, self.RATIOS, seed=0)
        assert test.class_counts() == [2] * 5
        assert val.class_counts() == [2] * 5
        assert train.class_counts() == [6] * 5

    def test_all_weight_on_train_is_rejected(self):
        ds = make_dataset((5, 5, 5, 5, 5))
        with pytest.raises(BadRatios):
            stratified_split(ds, (1.0, 0.0, 0.0), seed=0)

    @pytest.mark.parametrize(
        "ratios",
        [(0.5, 0.5, 0.5), (0.7, 0.2, 0.2), (-0.1, 0.55, 0.55), (0.7, 0.15), (0.7, math.nan, 0.3), (math.nan, 0.5, 0.5)],
    )
    def test_bad_ratios(self, ratios):
        ds = make_dataset((5, 5, 5, 5, 5))
        with pytest.raises(BadRatios):
            stratified_split(ds, ratios, seed=0)

    def test_class_with_too_few_records(self):
        ds = make_dataset((5, 5, 2, 5, 5))
        with pytest.raises(EmptyClass):
            stratified_split(ds, self.RATIOS, seed=0)

    def test_every_short_class_is_named(self):
        ds = make_dataset((5, 0, 5, 1, 2))
        with pytest.raises(EmptyClass) as err:
            stratified_split(ds, self.RATIOS, seed=0)
        assert str(err.value).endswith("too few in: syn_flood (0), http_flood (1), udp_flood (2)")

    def test_class_left_without_training_records_is_named(self):
        # Per class, half-up rounding gives 2 + 2 of 4 records (and 45 + 45
        # of 100) to validation and test, so normal traffic has none for training.
        ds = make_dataset((4, 100, 100, 100, 100))
        with pytest.raises(EmptyClass) as err:
            stratified_split(ds, (0.1, 0.45, 0.45), seed=0)
        assert str(err.value).endswith("too few in: normal (4)")
        ds = make_dataset((4, 4, 4, 4, 4))
        with pytest.raises(EmptyClass) as err:
            stratified_split(ds, (0.02, 0.49, 0.49), seed=0)
        assert str(err.value).endswith("in: normal (4), syn_flood (4), ack_flood (4), http_flood (4), udp_flood (4)")

    def test_same_seed_same_partitions(self):
        rng = np.random.default_rng(7)
        ds = make_dataset((20, 11, 9, 5, 30), rng)
        a = stratified_split(ds, self.RATIOS, seed=99)
        b = stratified_split(ds, self.RATIOS, seed=99)
        for part_a, part_b in zip(a, b):
            assert np.array_equal(part_a.features, part_b.features)
            assert np.array_equal(part_a.labels, part_b.labels)

    def test_different_seed_shuffles_differently(self):
        ds = make_dataset((50, 50, 50, 50, 50))
        _, _, test_a = stratified_split(ds, self.RATIOS, seed=1)
        _, _, test_b = stratified_split(ds, self.RATIOS, seed=2)
        assert not np.array_equal(test_a.features[:, 0], test_b.features[:, 0])

    @settings(max_examples=30, deadline=None)
    @given(
        counts=st.lists(st.integers(3, 25), min_size=5, max_size=5),
        seed=st.integers(0, 2**64 - 1),
    )
    def test_partition_property(self, counts, seed):
        ds = make_dataset(counts)
        train, val, test = stratified_split(ds, self.RATIOS, seed=seed)
        ids = np.concatenate([p.features[:, 0] for p in (train, val, test)])
        assert len(ids) == len(ds)
        assert sorted(ids.astype(int).tolist()) == list(range(len(ds)))
        for c, n in enumerate(counts):
            assert test.class_counts()[c] == math.floor(n * 0.15 + 0.5)


def normalizing_models(mean, std):
    """A model with the given normalization stats, and the same model with
    identity stats (mean 0, std 1), so that comparing their outputs shows
    how the first normalizes its input."""
    fitted = init_model(0, mean, std)
    unit = MlpModel(np.zeros(NUM_FEATURES), np.ones(NUM_FEATURES), *fitted.params)
    return fitted, unit


class TestNormalization:
    def test_mean_and_population_std(self):
        feats = np.zeros((3, NUM_FEATURES))
        feats[:, 0] = [2.0, 4.0, 6.0]
        ds = Dataset(feats, np.zeros(3, dtype=np.int64))
        mean, std = fit_normalization(ds)
        assert mean[0] == pytest.approx(4.0)
        assert std[0] == pytest.approx(statistics.pstdev([2.0, 4.0, 6.0]), abs=1e-12)
        assert std[0] == pytest.approx(1.63299, abs=1e-5)

    def test_constant_column_clamped(self):
        feats = np.full((3, NUM_FEATURES), 5.0)
        ds = Dataset(feats, np.zeros(3, dtype=np.int64))
        mean, std = fit_normalization(ds)
        assert np.all(mean == 5.0)
        assert np.all(std == 1.0)

    def test_single_record(self):
        feats = np.arange(NUM_FEATURES, dtype=float).reshape(1, -1)
        ds = Dataset(feats, np.zeros(1, dtype=np.int64))
        mean, std = fit_normalization(ds)
        assert np.array_equal(mean, feats[0])
        assert np.all(std == 1.0)

    def test_empty_dataset(self):
        with pytest.raises(EmptyDataset):
            fit_normalization(Dataset())

    def test_apply_centering_and_scaling(self, rng):
        feats = rng.normal(size=(40, NUM_FEATURES)) * 3 + 7
        ds = Dataset(feats, np.zeros(40, dtype=np.int64))
        mean, std = fit_normalization(ds)
        fitted, unit = normalizing_models(mean, std)
        # The model normalizes its input with the fitted stats: the mean row
        # becomes zeros and mean + std becomes ones.
        zeros, ones = np.zeros((1, NUM_FEATURES)), np.ones((1, NUM_FEATURES))
        assert np.allclose(forward(fitted, mean[None, :]), forward(unit, zeros), rtol=0, atol=1e-12)
        assert np.allclose(forward(fitted, (mean + std)[None, :]), forward(unit, ones), rtol=0, atol=1e-12)

    def test_apply_elementwise_example(self):
        fitted, unit = normalizing_models(np.full(NUM_FEATURES, 4.0), np.full(NUM_FEATURES, 2.0))
        # With mean 4 and std 2, a row of sixes is the normalized row of ones.
        ones = np.ones((1, NUM_FEATURES))
        assert np.array_equal(forward(fitted, 6.0 * ones), forward(unit, ones))

    def test_normalized_train_has_zero_mean_unit_std(self, rng):
        feats = rng.normal(size=(200, NUM_FEATURES)) * rng.uniform(0.5, 4.0, NUM_FEATURES)
        ds = Dataset(feats, np.zeros(200, dtype=np.int64))
        mean, std = fit_normalization(ds)
        normalized = (ds.features - mean) / std
        assert np.all(np.abs(normalized.mean(axis=0)) < 1e-9)
        assert np.all(np.abs(normalized.std(axis=0) - 1.0) < 1e-9)


class TestCsv:
    def test_round_trip_identity(self, tmp_path, rng):
        ds = make_dataset((2, 2, 2, 2, 2), rng)
        path = tmp_path / "data.csv"
        write_csv(ds, path)
        back = read_csv(path)
        assert np.array_equal(back.features, ds.features)
        assert np.array_equal(back.labels, ds.labels)
        assert back.class_counts() == ds.class_counts()

    def test_header_written(self, tmp_path):
        path = tmp_path / "data.csv"
        write_csv(Dataset(), path)
        assert path.read_text().strip() == ",".join(CSV_HEADER)
        assert len(read_csv(path)) == 0

    def test_wrong_column_count(self, tmp_path):
        path = tmp_path / "short.csv"
        row = ",".join(["1.0"] * (NUM_FEATURES - 1)) + ",normal"
        path.write_text(",".join(CSV_HEADER) + "\n" + row + "\n")
        with pytest.raises(MalformedRow):
            read_csv(path)

    def test_non_numeric_feature(self, tmp_path):
        path = tmp_path / "bad.csv"
        row = ",".join(["1.0"] * (NUM_FEATURES - 1) + ["oops"]) + ",normal"
        path.write_text(",".join(CSV_HEADER) + "\n" + row + "\n")
        with pytest.raises(MalformedRow):
            read_csv(path)

    def test_non_finite_feature(self, tmp_path):
        path = tmp_path / "nan.csv"
        row = ",".join(["1.0"] * (NUM_FEATURES - 1) + ["nan"]) + ",normal"
        path.write_text(",".join(CSV_HEADER) + "\n" + row + "\n")
        with pytest.raises(MalformedRow):
            read_csv(path)

    @pytest.mark.parametrize("cell", ["1_000", " 2.5 ", "2.5\t", "\u0661"])
    def test_number_forms_float_also_reads_are_rejected(self, tmp_path, cell):
        path = tmp_path / "forms.csv"
        row = ",".join(["1.0"] * (NUM_FEATURES - 1) + [cell]) + ",normal"
        path.write_text(",".join(CSV_HEADER) + "\n" + row + "\n", encoding="utf-8")
        with pytest.raises(MalformedRow) as raised:
            read_csv(path)
        assert str(raised.value) == f"{path}:2: non-numeric value"

    def test_bad_header(self, tmp_path):
        path = tmp_path / "hdr.csv"
        path.write_text("a,b,c\n")
        with pytest.raises(MalformedRow):
            read_csv(path)

    def test_rows_round_trip_bit_exact(self, tmp_path):
        values = np.array([[-0.0, 0.0, 5e-324], [2.2250738585072014e-308 / 3, 1.7e308, -1.7e308]])
        path = tmp_path / "rows.csv"
        write_rows(path, ("a", "b", "c", "label"), values, [TrafficClass.NORMAL, TrafficClass.UDP_FLOOD])
        back, labels, lines = read_rows(path, ("a", "b", "c", "label"))
        assert back.tobytes() == values.tobytes()
        assert labels.tolist() == [0, 4]
        assert lines == [2, 3]

    def test_alias_label_accepted(self, tmp_path):
        path = tmp_path / "alias.csv"
        row = ",".join(["0.0"] * NUM_FEATURES) + ",udp_flood"
        path.write_text(",".join(CSV_HEADER) + "\n" + row + "\n")
        ds = read_csv(path)
        assert ds.labels.tolist() == [int(TrafficClass.UDP_FLOOD)]

    def test_unknown_label_raises(self, tmp_path):
        path = tmp_path / "unk.csv"
        row = ",".join(["0.0"] * NUM_FEATURES) + ",smurf"
        path.write_text(",".join(CSV_HEADER) + "\n" + row + "\n")
        with pytest.raises(UnknownLabel) as raised:
            read_csv(path)
        assert str(raised.value) == f"{path}:2: unknown traffic label: 'smurf'"
        truth = tmp_path / "unk.truth"
        truth.write_text("start_ts,end_ts,label\n0.0,1.0,normal\n1.0,2.0,smurf\n")
        with pytest.raises(UnknownLabel) as raised:
            read_truth(truth)
        assert str(raised.value) == f"{truth}:3: unknown traffic label: 'smurf'"


class TestRecordValidation:
    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError):
            LabeledRecord(np.zeros(23), TrafficClass.NORMAL)

    def test_non_finite_rejected(self):
        bad = np.zeros(NUM_FEATURES)
        bad[3] = np.inf
        with pytest.raises(ValueError):
            LabeledRecord(bad, TrafficClass.NORMAL)

    def test_dataset_iteration(self):
        ds = make_dataset((3, 3, 3, 3, 3))
        records = list(ds)
        assert len(records) == len(ds)
        assert records[0].label is TrafficClass.NORMAL
        assert records[-1].label is TrafficClass.UDP_FLOOD
