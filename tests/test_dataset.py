import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from floodgate.dataset import (
    CSV_HEADER,
    NUM_CLASSES,
    NUM_FEATURES,
    SPLIT,
    Dataset,
    TrafficClass,
    encode_label,
    read_csv,
    read_rows,
    stratified_split,
    write_csv,
    write_rows,
)
from floodgate.errors import FloodgateError
from floodgate.features import read_truth

import oracle


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
        with pytest.raises(FloodgateError, match="^unknown traffic label: 'teardrop'$"):
            encode_label("teardrop")

    def test_alias_round_trip(self):
        for cls in TrafficClass:
            assert encode_label(cls.alias) is cls


class TestSplit:
    RATIOS = SPLIT

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
        with pytest.raises(ValueError, match="^all three ratios must be positive and finite$"):
            stratified_split(ds, (1.0, 0.0, 0.0), seed=0)

    @pytest.mark.parametrize(
        "ratios",
        [(0.5, 0.5, 0.5), (0.7, 0.2, 0.2), (-0.1, 0.55, 0.55), (0.7, 0.15), (0.7, math.nan, 0.3), (math.nan, 0.5, 0.5)],
    )
    def test_bad_ratios(self, ratios):
        ds = make_dataset((5, 5, 5, 5, 5))
        with pytest.raises(ValueError, match="^(ratios must be three numbers|all three ratios must be positive|ratios must sum to 1)"):
            stratified_split(ds, ratios, seed=0)

    def test_class_with_too_few_records(self):
        ds = make_dataset((5, 5, 2, 5, 5))
        with pytest.raises(FloodgateError, match="too few in: ack_flood \\(2\\)$"):
            stratified_split(ds, self.RATIOS, seed=0)

    def test_every_short_class_is_named(self):
        ds = make_dataset((5, 0, 5, 1, 2))
        with pytest.raises(FloodgateError, match="^a class needs at least 3 records") as err:
            stratified_split(ds, self.RATIOS, seed=0)
        assert str(err.value).endswith("too few in: syn_flood (0), http_flood (1), udp_flood (2)")

    def test_class_left_without_training_records_is_named(self):
        # Per class, half-up rounding gives 2 + 2 of 4 records (and 45 + 45
        # of 100) to validation and test, so normal traffic has none for training.
        ds = make_dataset((4, 100, 100, 100, 100))
        with pytest.raises(FloodgateError, match="^a class needs at least 3 records") as err:
            stratified_split(ds, (0.1, 0.45, 0.45), seed=0)
        assert str(err.value).endswith("too few in: normal (4)")
        ds = make_dataset((4, 4, 4, 4, 4))
        with pytest.raises(FloodgateError, match="^a class needs at least 3 records") as err:
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


# `repr` switches to exponent notation at 1e16 and below 1e-4; subnormals; both zeros.
REPR_EDGES = [1e16, 9999999999999998.0, 1e-4, 9.999999999999999e-05, 5e-324, 2.2250738585072014e-308 / 3, -0.0, 0.0]


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
        write_csv(Dataset(np.empty((0, NUM_FEATURES)), np.empty(0, dtype=np.int64)), path)
        assert path.read_text().strip() == ",".join(CSV_HEADER)
        assert len(read_csv(path)) == 0

    def test_wrong_column_count(self, tmp_path):
        path = tmp_path / "short.csv"
        row = ",".join(["1.0"] * (NUM_FEATURES - 1)) + ",normal"
        path.write_text(",".join(CSV_HEADER) + "\n" + row + "\n")
        with pytest.raises(FloodgateError, match=":2: expected 25 columns, got 24$"):
            read_csv(path)

    def test_non_numeric_feature(self, tmp_path):
        path = tmp_path / "bad.csv"
        row = ",".join(["1.0"] * (NUM_FEATURES - 1) + ["oops"]) + ",normal"
        path.write_text(",".join(CSV_HEADER) + "\n" + row + "\n")
        with pytest.raises(FloodgateError, match=":2: non-numeric value$"):
            read_csv(path)

    def test_non_finite_feature(self, tmp_path):
        path = tmp_path / "nan.csv"
        row = ",".join(["1.0"] * (NUM_FEATURES - 1) + ["nan"]) + ",normal"
        path.write_text(",".join(CSV_HEADER) + "\n" + row + "\n")
        with pytest.raises(FloodgateError, match=":2: non-finite value$"):
            read_csv(path)

    @pytest.mark.parametrize("cell", ["1_000", " 2.5 ", "2.5\t", "\u0661"])
    def test_number_forms_float_also_reads_are_rejected(self, tmp_path, cell):
        path = tmp_path / "forms.csv"
        row = ",".join(["1.0"] * (NUM_FEATURES - 1) + [cell]) + ",normal"
        path.write_text(",".join(CSV_HEADER) + "\n" + row + "\n", encoding="utf-8")
        with pytest.raises(FloodgateError, match="non-numeric value") as raised:
            read_csv(path)
        assert str(raised.value) == f"{path}:2: non-numeric value"

    def test_bad_header(self, tmp_path):
        path = tmp_path / "hdr.csv"
        path.write_text("a,b,c\n")
        with pytest.raises(FloodgateError, match="hdr.csv: header does not match f01,f02,"):
            read_csv(path)

    def test_rows_round_trip_bit_exact(self, tmp_path):
        values = np.array([[-0.0, 0.0, 5e-324], [2.2250738585072014e-308 / 3, 1.7e308, -1.7e308]])
        path = tmp_path / "rows.csv"
        write_rows(path, ("a", "b", "c", "label"), values, [TrafficClass.NORMAL, TrafficClass.UDP_FLOOD])
        back, labels, lines = read_rows(path, ("a", "b", "c", "label"))
        assert back.tobytes() == values.tobytes()
        assert labels.tolist() == [0, 4]
        assert lines == [2, 3]

    @settings(max_examples=80, deadline=None)
    @given(data=st.data(), k=st.sampled_from([2, NUM_FEATURES]), as_members=st.booleans())
    def test_rows_are_the_csv_writer_bytes(self, tmp_path_factory, data, k, as_members):
        """Few distinct values, so that rows repeat them; -0.0 beside 0.0 in one column."""
        pool = REPR_EDGES + data.draw(st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=4))
        n = data.draw(st.integers(0, 40))
        values = data.draw(arrays(np.float64, (n, k), elements=st.sampled_from(pool)))
        if n >= 2:
            values[:2, data.draw(st.integers(0, k - 1))] = (-0.0, 0.0)
        labels = data.draw(st.lists(st.integers(0, NUM_CLASSES - 1), min_size=n, max_size=n))
        if as_members:
            labels = [TrafficClass(label) for label in labels]
        header = CSV_HEADER if k == NUM_FEATURES else ("start_ts", "end_ts", "label")
        work = tmp_path_factory.mktemp("rows")
        write_rows(work / "new.csv", header, values, labels)
        oracle.write_rows(work / "old.csv", header, values, labels)
        assert (work / "new.csv").read_bytes() == (work / "old.csv").read_bytes()

    def test_rows_past_a_block_are_the_csv_writer_bytes(self, tmp_path):
        """1,100 rows span three of `format_rows`' 512-row blocks, with values shared between blocks."""
        rng = np.random.default_rng(5)
        values = rng.choice(REPR_EDGES + [0.25, 3.0, 1 / 3], size=(1100, NUM_FEATURES))
        values[::7] = rng.standard_normal((158, NUM_FEATURES))
        labels = rng.integers(0, NUM_CLASSES, 1100)
        write_rows(tmp_path / "new.csv", CSV_HEADER, values, labels)
        oracle.write_rows(tmp_path / "old.csv", CSV_HEADER, values, labels)
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()

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
        with pytest.raises(FloodgateError, match="unknown traffic label") as raised:
            read_csv(path)
        assert str(raised.value) == f"{path}:2: unknown traffic label: 'smurf'"
        truth = tmp_path / "unk.truth"
        truth.write_text("start_ts,end_ts,label\n0.0,1.0,normal\n1.0,2.0,smurf\n")
        with pytest.raises(FloodgateError, match="unknown traffic label") as raised:
            read_truth(truth)
        assert str(raised.value) == f"{truth}:3: unknown traffic label: 'smurf'"


class TestRowGrammar:
    """What `read_rows` reads of the module docstring's row grammar: line ends, blank lines, a
    missing last terminator, header-only and empty files, physical line numbers and no quoting."""

    HEADER = ("a", "b", "label")

    def read(self, path, data: bytes):
        path.write_bytes(data)
        values, labels, lines = read_rows(path, self.HEADER)
        assert values.shape == (len(lines), 2) and labels.shape == (len(lines),)
        return values.tolist(), labels.tolist(), lines

    def error(self, path, data: bytes) -> str:
        """The message of the FloodgateError that reading `data` raises, after the path."""
        path.write_bytes(data)
        with pytest.raises(FloodgateError) as raised:
            read_rows(path, self.HEADER)
        return str(raised.value).removeprefix(str(path))

    @pytest.mark.parametrize("ends", [("\r\n",) * 3, ("\n",) * 3, ("\r",) * 3, ("\r\n", "\r", "\n")])
    def test_each_line_end_and_a_mix_of_them(self, tmp_path, ends):
        lines = ["a,b,label", "1.5,2.0,syn", "-0.0,3e-05,normal"]
        data = "".join(line + end for line, end in zip(lines, ends)).encode()
        assert self.read(tmp_path / "rows.csv", data) == ([[1.5, 2.0], [-0.0, 3e-05]], [1, 0], [2, 3])

    @pytest.mark.parametrize("data, lines", [
        (b"a,b,label\r\n\r\n\n1,2,udp\r\n", [4]),
        (b"a,b,label\n1,2,udp\n\r\n\r\r\n3,4,udp\n", [2, 6]),
        (b"a,b,label\n1,2,udp\n3,4,udp\n\n\r\n", [2, 3]),
    ])
    def test_blank_lines_are_skipped_and_counted(self, tmp_path, data, lines):
        _, labels, got = self.read(tmp_path / "rows.csv", data)
        assert labels == [4] * len(lines) and got == lines

    def test_a_last_row_without_a_line_end(self, tmp_path):
        assert self.read(tmp_path / "rows.csv", b"a,b,label\r\n1,2,ack\r\n3,4,http") == (
            [[1.0, 2.0], [3.0, 4.0]], [2, 3], [2, 3])

    @pytest.mark.parametrize("data", [b"a,b,label", b"a,b,label\r\n", b"a,b,label\n\n"])
    def test_a_header_only_file_has_no_rows(self, tmp_path, data):
        assert self.read(tmp_path / "rows.csv", data) == ([], [], [])

    @pytest.mark.parametrize("data", [b"", b"\r\n", b"\na,b,label\n"])
    def test_an_empty_file_or_blank_first_line_does_not_match_the_header(self, tmp_path, data):
        assert self.error(tmp_path / "rows.csv", data) == ": header does not match a,b,label"

    @pytest.mark.parametrize("data, message", [
        (b"a,b,label\r\n\r\n1,2,udp\r\n\r\n\r\n1,x,udp\r\n", ":6: non-numeric value"),
        (b"a,b,label\n\r\r\n1,2\n", ":4: expected 3 columns, got 2"),
        (b"a,b,label\n1,2,udp\n\n\n1,inf,udp\n", ":5: non-finite value"),
        (b"a,b,label\r1,2,udp\r\r3,4,smurf\r", ":4: unknown traffic label: 'smurf'"),
    ])
    def test_error_line_numbers_count_blank_lines(self, tmp_path, data, message):
        assert self.error(tmp_path / "rows.csv", data) == message

    @pytest.mark.parametrize("data, message", [
        (b'a,b,label\n1,"2",udp\n', ":2: non-numeric value"),
        (b'a,b,label\n1,2,udp\n"1,2",udp\n', ":3: non-numeric value"),
        (b'a,b,label\n1,2,"udp"\n', ":2: unknown traffic label: '\"udp\"'"),
    ])
    def test_a_quote_is_an_ordinary_character(self, tmp_path, data, message):
        """No writer quotes a field, so a quoted one is an error that names its line."""
        assert self.error(tmp_path / "rows.csv", data) == message


class TestRecordValidation:
    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError, match="features must be"):
            Dataset(np.zeros((2, NUM_FEATURES - 1)), [0, 0])
        with pytest.raises(ValueError, match="^labels must match the number of feature rows$"):
            Dataset(np.zeros((2, NUM_FEATURES)), [0])

    @pytest.mark.parametrize("label", [5, -1])
    def test_labels_outside_the_classes_are_rejected(self, tmp_path, label):
        with pytest.raises(ValueError, match=r"^labels must be ordinals in \[0, 5\)$"):
            Dataset(np.zeros((1, NUM_FEATURES)), [label])
        # As `TrafficClass(label)` rejects it, and before any file is made.
        with pytest.raises(ValueError, match=f"^{label} is not a valid TrafficClass$"):
            write_rows(tmp_path / "rows.csv", CSV_HEADER, np.zeros((2, NUM_FEATURES)), [0, label])
        assert not list(tmp_path.iterdir())

    def test_non_finite_rejected(self):
        for value in (np.inf, -np.inf, np.nan):
            bad = np.zeros((2, NUM_FEATURES))
            bad[1, 3] = value
            with pytest.raises(ValueError, match="non-finite"):
                Dataset(bad, [0, 0])

    def test_from_records_takes_feature_label_pairs(self):
        ds = make_dataset((3, 3, 3, 3, 3))
        rebuilt = Dataset.from_records(zip(ds.features.tolist(), map(TrafficClass, ds.labels.tolist())))
        assert np.array_equal(rebuilt.features, ds.features)
        assert np.array_equal(rebuilt.labels, ds.labels)
        assert len(Dataset.from_records([])) == 0
        with pytest.raises(ValueError):
            Dataset.from_records([(np.zeros(NUM_FEATURES - 1), TrafficClass.NORMAL)])

    def test_labels_that_are_not_integers_are_rejected(self):
        # Before, 0.7 and 4.9 were truncated to classes 0 and 4.
        with pytest.raises(ValueError, match="^labels must be integer ordinals, got dtype float64$"):
            Dataset(np.zeros((2, NUM_FEATURES)), [0.7, 4.9])
        with pytest.raises(ValueError, match="^labels must be integer ordinals, got dtype bool$"):
            Dataset(np.zeros((1, NUM_FEATURES)), [True])

    def test_features_that_are_not_numbers_are_rejected(self):
        # Before, the text "1.5" was parsed, bypassing the strict number rule of the CSV reader.
        with pytest.raises(ValueError, match="^features must be numbers, got dtype <U3$"):
            Dataset.from_records([(["1.5"] * NUM_FEATURES, 0)])

    def test_empty_sequences_are_accepted(self):
        ds = Dataset(np.empty((0, NUM_FEATURES)), [])
        assert len(ds) == 0
        assert ds.features.dtype == np.float64 and ds.labels.dtype == np.int64
