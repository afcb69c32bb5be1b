"""The `floodgate` command line, run through `cli.main` on a small seeded scenario.

Covers the exit codes the `cli.py` docstring promises (0 success, 1 usage,
2 input/format, 3 runtime), that a failed command leaves no output file,
where the seed comes from, that `train` splits as the benchmark expects, and
that `classify` and `eval` share one inference path.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

from floodgate import mlp
from floodgate.cli import main
from floodgate.dataset import SPLIT, TrafficClass, read_csv, write_csv
from floodgate.mlp import forward, load_model, predict_batch

# Eight seconds with all four floods, one after another.
SCENARIO = """\
duration 8
benign_rate 150
episode syn_flood 1.0 2.5 600 20
episode ack_flood 2.5 4.0 600 20
episode http_flood 4.0 5.5 300 10
episode udp_flood 5.5 7.0 600 20
"""
WINDOW = "0.1"
EPOCHS = "20"


def run(*argv):
    return main([str(a) for a in argv])


@pytest.fixture(scope="module")
def scenario(tmp_path_factory):
    """Train and test captures, features, a model, a report and predictions, with every exit code."""
    d = tmp_path_factory.mktemp("cli")
    (d / "train.cfg").write_text("seed 1\n" + SCENARIO)
    (d / "test.cfg").write_text("seed 2\n" + SCENARIO)
    codes = {
        "synth": [
            run("synth", "--config", d / f"{part}.cfg", "--out-pcap", d / f"{part}.pcap",
                "--out-truth", d / f"{part}.truth")
            for part in ("train", "test")
        ],
        "extract": [
            run("extract", "--pcap", d / f"{part}.pcap", "--truth", d / f"{part}.truth", "--window", WINDOW,
                "--out", d / f"{part}.csv")
            for part in ("train", "test")
        ],
        "train": [
            run("train", "--data", d / "train.csv", "--out-model", d / "model.txt", "--epochs", EPOCHS, "--seed", 3)
        ],
        "eval": [run("eval", "--data", d / "test.csv", "--model", d / "model.txt", "--report", d / "report.txt")],
        "classify": [
            run("classify", "--pcap", d / "test.pcap", "--model", d / "model.txt", "--window", WINDOW,
                "--out", d / "predictions.csv")
        ],
    }
    return d, codes


def assert_fails_cleanly(directory, code, *argv):
    """The command exits with `code` and leaves the directory exactly as it was."""
    before = sorted(p.name for p in directory.iterdir())
    assert run(*argv) == code
    assert sorted(p.name for p in directory.iterdir()) == before


class TestExitCodes:
    @pytest.mark.parametrize("command", ["synth", "extract", "train", "eval", "classify"])
    def test_success_is_0(self, scenario, command):
        d, codes = scenario
        assert codes[command] and set(codes[command]) == {0}

    def test_outputs_written(self, scenario):
        d, _ = scenario
        for name in ("train.pcap", "train.truth", "train.csv", "model.txt", "report.txt", "report.txt.csv",
                     "predictions.csv"):
            assert (d / name).stat().st_size > 0

    # `0_1` is a number to Python's `float` (1.0), and so a silently wrong window.
    @pytest.mark.parametrize("window", ["1e-7", "nan", "inf", "1e303", "0_1", " 0.1", "\u0661"])
    @pytest.mark.parametrize("command", ["extract", "classify"])
    def test_bad_window_is_usage_error(self, scenario, tmp_path, command, window):
        d, _ = scenario
        model = ["--model", d / "model.txt"] if command == "classify" else []
        assert_fails_cleanly(tmp_path, 1, command, "--pcap", d / "test.pcap", *model, "--window", window,
                             "--out", tmp_path / "out.csv")

    # `int` reads " 1", "1_0" and non-ASCII digits. The learning rate, batch
    # size and split are constants, so `--lr`, `--batch` and `--split` are unknown.
    @pytest.mark.parametrize("flag, value", [
        ("--seed", "-1"), ("--seed", " 1"), ("--seed", "1_0"), ("--seed", "\u0663"),
        ("--epochs", "0"), ("--epochs", "1_0"), ("--epochs", "2.5"),
        ("--lr", "1e-3"), ("--batch", "64"), ("--split", "0.7,0.15,0.15"),
    ])
    def test_bad_train_number_is_usage_error(self, scenario, tmp_path, flag, value):
        d, _ = scenario
        train = ["train", "--data", d / "train.csv", "--out-model", tmp_path / "m.txt", "--epochs", 1]
        assert_fails_cleanly(tmp_path, 1, *train, flag, value)

    @pytest.mark.parametrize("command", ["extract", "classify"])
    def test_bad_magic_is_input_error(self, scenario, tmp_path, command):
        d, _ = scenario
        bad = tmp_path / "bad.pcap"
        bad.write_bytes(b"\xde\xad\xbe\xef" + bytes(20))
        if command == "extract":
            argv = ["extract", "--pcap", bad, "--out", tmp_path / "out.csv"]
        else:
            argv = ["classify", "--pcap", bad, "--model", d / "model.txt", "--out", tmp_path / "out.csv"]
        assert_fails_cleanly(tmp_path, 2, *argv)

    def test_missing_classes_are_named_input_error(self, scenario, tmp_path, capsys):
        d, _ = scenario
        ds = read_csv(d / "train.csv")
        write_csv(ds.subset(np.flatnonzero(np.isin(ds.labels, [TrafficClass.NORMAL, TrafficClass.ACK_FLOOD]))),
                  tmp_path / "two.csv")
        capsys.readouterr()
        assert_fails_cleanly(tmp_path, 2, "train", "--data", tmp_path / "two.csv", "--out-model", tmp_path / "m.txt")
        err = capsys.readouterr().err
        assert "too few in: syn_flood (0), http_flood (0), udp_flood (0)" in err

    def test_empty_validation_split_is_input_error(self, scenario, tmp_path, capsys):
        # With SPLIT, round-half-up splits a class of 3 records (3, 0, 0):
        # every class passes the per-class check, and the validation split is
        # still empty.
        d, _ = scenario
        ds = read_csv(d / "train.csv")
        write_csv(ds.subset(np.concatenate([np.flatnonzero(ds.labels == c)[:3] for c in TrafficClass])),
                  tmp_path / "three.csv")
        capsys.readouterr()
        assert_fails_cleanly(tmp_path, 2, "train", "--data", tmp_path / "three.csv", "--out-model", tmp_path / "m.txt")
        assert capsys.readouterr().err == "floodgate train: train and validation datasets must be non-empty\n"

    @pytest.mark.parametrize("command, flag", [("eval", "--data"), ("eval", "--model"), ("classify", "--model"),
                                               ("extract", "--truth"), ("synth", "--config")])
    def test_non_utf8_input_is_input_error(self, scenario, tmp_path, command, flag):
        d, _ = scenario
        argv = {
            "eval": ["eval", "--data", d / "test.csv", "--model", d / "model.txt", "--report", tmp_path / "r.txt"],
            "classify": ["classify", "--pcap", d / "test.pcap", "--model", d / "model.txt",
                         "--out", tmp_path / "p.csv"],
            "extract": ["extract", "--pcap", d / "test.pcap", "--truth", d / "test.truth",
                        "--out", tmp_path / "f.csv"],
            "synth": ["synth", "--config", d / "test.cfg", "--out-pcap", tmp_path / "s.pcap",
                      "--out-truth", tmp_path / "s.truth"],
        }[command]
        bad = tmp_path / "bad"
        bad.write_bytes(b"\xff\xfe" + "f01,label\n".encode("utf-16-le"))
        argv[argv.index(flag) + 1] = bad
        assert_fails_cleanly(tmp_path, 2, *argv)

    @pytest.mark.parametrize("blocked", [0, 1])
    @pytest.mark.parametrize("command", ["eval", "synth"])
    def test_two_outputs_are_written_both_or_neither(self, scenario, tmp_path, command, blocked):
        d, _ = scenario
        if command == "eval":
            outputs = [tmp_path / "r.txt", tmp_path / "r.txt.csv"]
            argv = ["eval", "--data", d / "test.csv", "--model", d / "model.txt", "--report", outputs[0]]
        else:
            outputs = [tmp_path / "s.pcap", tmp_path / "s.truth"]
            argv = ["synth", "--config", d / "test.cfg", "--out-pcap", outputs[0], "--out-truth", outputs[1]]
        # A directory in the place of one output makes writing that output fail.
        outputs[blocked].mkdir()
        assert_fails_cleanly(tmp_path, 2, *argv)
        assert outputs[blocked].is_dir()

    def test_divergence_is_runtime_error(self, scenario, tmp_path, monkeypatch):
        d, _ = scenario
        monkeypatch.setattr(mlp, "LEARNING_RATE", 1e6)
        train = ["train", "--data", d / "train.csv", "--out-model", tmp_path / "m.txt"]
        assert_fails_cleanly(tmp_path, 3, *train)


class TestSeedSource:
    def test_synth_without_seed_line_equals_seed_0(self, tmp_path):
        for name, line in (("none", ""), ("zero", "seed 0\n"), ("nine", "seed 9\n")):
            (tmp_path / f"{name}.cfg").write_text(line + SCENARIO)
            assert run("synth", "--config", tmp_path / f"{name}.cfg", "--out-pcap", tmp_path / f"{name}.pcap",
                       "--out-truth", tmp_path / f"{name}.truth") == 0
        assert (tmp_path / "none.pcap").read_bytes() == (tmp_path / "zero.pcap").read_bytes()
        assert (tmp_path / "nine.pcap").read_bytes() != (tmp_path / "zero.pcap").read_bytes()

    def test_train_without_seed_equals_seed_0(self, scenario, tmp_path):
        d, _ = scenario
        train = ["train", "--data", d / "train.csv", "--epochs", 2]
        assert run(*train, "--out-model", tmp_path / "five.txt", "--seed", 5) == 0
        assert run(*train, "--out-model", tmp_path / "zero.txt", "--seed", 0) == 0
        assert run(*train, "--out-model", tmp_path / "none.txt") == 0
        assert (tmp_path / "none.txt").read_bytes() == (tmp_path / "zero.txt").read_bytes()
        assert (tmp_path / "five.txt").read_bytes() != (tmp_path / "zero.txt").read_bytes()


def test_train_split_is_the_benchmarks():
    """`eval` in the benchmark scores the rows that `train` held out only while
    its own copy of the split equals `dataset.SPLIT`."""
    bench = Path(__file__).resolve().parent.parent / "perfbench"
    sys.path.insert(0, str(bench))
    try:
        import pipeline
    finally:
        sys.path.remove(str(bench))
    assert pipeline.SPLIT == SPLIT


class TestOneInferencePath:
    def test_classify_labels_equal_eval_predictions(self, scenario, tmp_path):
        d, _ = scenario
        assert run("extract", "--pcap", d / "test.pcap", "--window", WINDOW, "--out", tmp_path / "f.csv") == 0
        model = load_model(d / "model.txt")
        features = read_csv(tmp_path / "f.csv").features
        expected = predict_batch(model, features)
        rows = [line.split(",") for line in (d / "predictions.csv").read_text().splitlines()[1:]]
        assert len(rows) == len(expected) > 0
        assert [row[2] for row in rows] == [TrafficClass(int(c)).alias for c in expected]
        # Several classes occur, so the comparison is not against a constant.
        assert len(set(expected.tolist())) > 1
        # The features CSV round-trips exactly and classify computes the
        # capture in one `forward` call, so even the last bits agree.
        probs = np.array([[float(v) for v in row[3:]] for row in rows])
        assert np.array_equal(probs, forward(model, features))
