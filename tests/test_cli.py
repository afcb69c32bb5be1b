"""The `floodgate` command line, run through `cli.main` on a small seeded scenario.

Covers the exit codes the `cli.py` docstring promises (0 success, 1 usage,
2 input/format, 3 runtime), that a failed command leaves no output file,
where the seed comes from, and that `classify` and `eval` share one
inference path.
"""

import numpy as np
import pytest

from floodgate.cli import SEED_ENV_VAR, main
from floodgate.dataset import TrafficClass, read_csv, write_csv
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


def seed_env_argv(command, d, tmp_path):
    """A `synth` or `train` command line that takes its seed from the environment."""
    (tmp_path / "s.cfg").write_text(SCENARIO)
    if command == "synth":
        return ["synth", "--config", tmp_path / "s.cfg", "--out-pcap", tmp_path / "s.pcap",
                "--out-truth", tmp_path / "s.truth"]
    return ["train", "--data", d / "train.csv", "--out-model", tmp_path / "m.txt", "--epochs", 1]


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

    def test_bad_split_is_usage_error(self, scenario, tmp_path):
        d, _ = scenario
        train = ["train", "--data", d / "train.csv", "--out-model", tmp_path / "m.txt"]
        for split in ("0.5,0.5,0.5", "0.7,nan,0.3", "nan,0.5,0.5"):
            assert_fails_cleanly(tmp_path, 1, *train, "--split", split)

    @pytest.mark.parametrize("window", ["1e-7", "nan", "inf"])
    @pytest.mark.parametrize("command", ["extract", "classify"])
    def test_bad_window_is_usage_error(self, scenario, tmp_path, command, window):
        d, _ = scenario
        model = ["--model", d / "model.txt"] if command == "classify" else []
        assert_fails_cleanly(tmp_path, 1, command, "--pcap", d / "test.pcap", *model, "--window", window,
                             "--out", tmp_path / "out.csv")

    @pytest.mark.parametrize("flag, value", [("--seed", "-1"), ("--lr", "nan"), ("--lr", "inf")])
    def test_bad_train_number_is_usage_error(self, scenario, tmp_path, flag, value):
        d, _ = scenario
        train = ["train", "--data", d / "train.csv", "--out-model", tmp_path / "m.txt", "--epochs", 1]
        assert_fails_cleanly(tmp_path, 1, *train, flag, value)

    @pytest.mark.parametrize("command", ["synth", "train"])
    def test_non_integer_seed_env_is_usage_error(self, scenario, tmp_path, monkeypatch, command):
        d, _ = scenario
        argv = seed_env_argv(command, d, tmp_path)
        monkeypatch.setenv(SEED_ENV_VAR, "seven")
        assert_fails_cleanly(tmp_path, 1, *argv)

    @pytest.mark.parametrize("command", ["synth", "train"])
    def test_negative_seed_env_is_usage_error(self, scenario, tmp_path, monkeypatch, command):
        d, _ = scenario
        argv = seed_env_argv(command, d, tmp_path)
        monkeypatch.setenv(SEED_ENV_VAR, "-1")
        assert_fails_cleanly(tmp_path, 1, *argv)

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

    def test_class_without_training_rows_is_input_error(self, scenario, tmp_path, capsys):
        d, _ = scenario
        ds = read_csv(d / "train.csv")
        # Four normal windows at 0.1,0.45,0.45 go two to validation and two to test;
        # every flood keeps more than ten windows, and so some for training.
        keep = np.flatnonzero(ds.labels != TrafficClass.NORMAL)
        assert min(ds.subset(keep).class_counts()[1:]) > 10
        write_csv(ds.subset(np.concatenate([np.flatnonzero(ds.labels == TrafficClass.NORMAL)[:4], keep])),
                  tmp_path / "few.csv")
        capsys.readouterr()
        assert_fails_cleanly(tmp_path, 2, "train", "--data", tmp_path / "few.csv", "--out-model",
                             tmp_path / "m.txt", "--split", "0.1,0.45,0.45")
        assert capsys.readouterr().err.rstrip().endswith("too few in: normal (4)")

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

    def test_divergence_is_runtime_error(self, scenario, tmp_path):
        d, _ = scenario
        train = ["train", "--data", d / "train.csv", "--out-model", tmp_path / "m.txt"]
        assert_fails_cleanly(tmp_path, 3, *train, "--lr", "1e6")


class TestSeedSource:
    def test_synth_env_seed_equals_config_seed(self, tmp_path, monkeypatch):
        (tmp_path / "env.cfg").write_text(SCENARIO)
        (tmp_path / "line.cfg").write_text("seed 9\n" + SCENARIO)
        monkeypatch.setenv(SEED_ENV_VAR, "9")
        for name in ("env", "line"):
            assert run("synth", "--config", tmp_path / f"{name}.cfg", "--out-pcap", tmp_path / f"{name}.pcap",
                       "--out-truth", tmp_path / f"{name}.truth") == 0
        monkeypatch.delenv(SEED_ENV_VAR)
        assert run("synth", "--config", tmp_path / "env.cfg", "--out-pcap", tmp_path / "zero.pcap",
                   "--out-truth", tmp_path / "zero.truth") == 0
        assert (tmp_path / "env.pcap").read_bytes() == (tmp_path / "line.pcap").read_bytes()
        assert (tmp_path / "zero.pcap").read_bytes() != (tmp_path / "line.pcap").read_bytes()

    def test_train_env_seed_equals_flag_seed(self, scenario, tmp_path, monkeypatch):
        d, _ = scenario
        train = ["train", "--data", d / "train.csv", "--epochs", 2]
        assert run(*train, "--out-model", tmp_path / "flag.txt", "--seed", 5) == 0
        assert run(*train, "--out-model", tmp_path / "zero.txt") == 0
        monkeypatch.setenv(SEED_ENV_VAR, "5")
        assert run(*train, "--out-model", tmp_path / "env.txt") == 0
        assert (tmp_path / "env.txt").read_bytes() == (tmp_path / "flag.txt").read_bytes()
        assert (tmp_path / "zero.txt").read_bytes() != (tmp_path / "flag.txt").read_bytes()


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
