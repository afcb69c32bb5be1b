"""The `floodgate` command line, run through `cli.main` on a small seeded scenario.

Covers the exit codes the `cli.py` docstring promises (0 success, 1 usage,
2 input/format, 3 runtime), that a failed command leaves no output file,
that a bad scenario's error names its file, where the seed comes from, the
`train` defaults, that the smallest `--epochs` and `--window` are accepted,
that `train` says why it stopped and which epoch was best, that its model
bytes do not depend on the number of BLAS threads, that `train` splits as
the benchmark expects, that `extract` and `classify` say what the
frames decoded to and load no lazily imported numpy module, that `classify`
and `eval` share one inference path, that `predictions.csv` has the bytes of
the per-row formatting in `oracle.predictions`, and that a capture of only a
global header gives header-only outputs.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from floodgate import mlp
from floodgate.cli import CLASSIFY_HEADER, build_parser, main
from floodgate.dataset import CSV_HEADER, SPLIT, TrafficClass, read_csv, write_csv
from floodgate.features import extract_features, window_packets
from floodgate.mlp import forward, load_model, predict_batch
from floodgate.pcapio import read_pcap

import oracle
from conftest import ethernet, ipv4, tcp, udp, write_records

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
FRAME = ethernet(ipv4(udp(b"q" * 20), proto=17))


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

    # argparse wraps the usage line to the terminal's width, so only the message line is compared.
    @pytest.mark.parametrize("argv, message", [
        ([], "floodgate: error: the following arguments are required: COMMAND"),
        (["bogus"], "floodgate: error: argument COMMAND: invalid choice: 'bogus' ("),
        (["extract", "--pcap", "x", "--out", "y", "--window", "0"],
         "floodgate extract: error: argument --window: window must be at least 1e-6 s and finite in microseconds"),
    ])
    def test_usage_error_is_argparse_message_and_1(self, capsys, argv, message):
        assert run(*argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("usage: floodgate")
        assert captured.err.splitlines()[-1].startswith(message)

    @pytest.mark.parametrize("flag, shown", [("--help", "usage: floodgate"), ("--version", "floodgate ")])
    def test_help_and_version_are_0(self, capsys, flag, shown):
        assert run(flag) == 0
        assert capsys.readouterr().out.startswith(shown)

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

    @pytest.mark.parametrize("command", ["extract", "classify"])
    def test_out_of_order_capture_is_named_input_error(self, scenario, tmp_path, capsys, command):
        d, _ = scenario
        unsorted = tmp_path / "unsorted.pcap"
        frame = ethernet(ipv4(tcp(), 6))
        write_records(unsorted, [(2, 0, len(frame), frame), (1, 0, len(frame), frame)])
        model = ["--model", d / "model.txt"] if command == "classify" else []
        assert_fails_cleanly(tmp_path, 2, command, "--pcap", unsorted, *model, "--out", tmp_path / "out.csv")
        assert capsys.readouterr().err == (
            f"floodgate {command}: {unsorted}: packet 1 is earlier than its predecessor\n"
        )

    def test_overlapping_truth_is_named_before_the_capture_is_decoded(self, scenario, tmp_path, capsys):
        d, _ = scenario
        truth = tmp_path / "T.csv"
        truth.write_text("start_ts,end_ts,label\n1.0,5.0,syn\n4.0,6.0,ack\n")
        capsys.readouterr()
        assert_fails_cleanly(tmp_path, 2, "extract", "--pcap", d / "test.pcap", "--truth", truth,
                             "--out", tmp_path / "out.csv")
        out, err = capsys.readouterr()
        assert err == f"floodgate extract: {truth}:3: interval [4.0, 6.0) overlaps [1.0, 5.0)\n"
        assert "decoded" not in out

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
        assert capsys.readouterr().err == (
            "floodgate train: the validation split is empty; training rows per class: "
            "normal (3), syn_flood (3), ack_flood (3), http_flood (3), udp_flood (3)\n"
        )

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

    @pytest.mark.parametrize("config, message", [
        ("duration 5\nbogus 1\n", "line 2: unknown directive 'bogus'"),
        ("duration 10\nepisode syn 1 3 100 4\nepisode udp 2 4 100 4\n", "episodes overlap: [1.0, 3.0) and [2.0, 4.0)"),
    ])
    def test_a_bad_scenario_names_its_file(self, tmp_path, capsys, config, message):
        (tmp_path / "bad.cfg").write_text(config)
        capsys.readouterr()
        assert_fails_cleanly(tmp_path, 2, "synth", "--config", tmp_path / "bad.cfg",
                             "--out-pcap", tmp_path / "s.pcap", "--out-truth", tmp_path / "s.truth")
        assert capsys.readouterr().err == f"floodgate synth: {tmp_path / 'bad.cfg'}: {message}\n"

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


def test_train_says_why_it_stopped(scenario, tmp_path, capsys):
    d, _ = scenario
    capsys.readouterr()
    assert run("train", "--data", d / "train.csv", "--out-model", tmp_path / "m.txt", "--epochs", 2) == 0
    assert capsys.readouterr().out.splitlines()[-2:] == [
        "stopped at epoch 2: reached the --epochs cap",
        f"saved model to {tmp_path / 'm.txt'}",
    ]


def test_train_defaults_to_100_epochs_and_seed_0():
    args = build_parser().parse_args(["train", "--data", "d.csv", "--out-model", "m.txt"])
    assert (args.epochs, args.seed) == (100, 0)


def test_one_epoch_is_accepted_and_stops_at_the_cap(scenario, tmp_path, capsys):
    d, _ = scenario
    capsys.readouterr()
    assert run("train", "--data", d / "train.csv", "--out-model", tmp_path / "m.txt", "--epochs", 1) == 0
    out = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0] for line in out if line.startswith("epoch ")] == ["epoch   1"]
    assert out[-2] == "stopped at epoch 1: reached the --epochs cap"


def test_best_epoch_line_prints_that_epochs_figures(scenario, tmp_path, capsys):
    """At seed 3, epochs 3 and 4 differ in `val_acc`, so the line cannot borrow the epoch before."""
    d, _ = scenario
    capsys.readouterr()
    assert run("train", "--data", d / "train.csv", "--out-model", tmp_path / "m.txt", "--epochs", 4,
               "--seed", 3) == 0
    out = capsys.readouterr().out.splitlines()
    figures = {int(line[6:9]): line[line.index("val_loss="):] for line in out if line.startswith("epoch ")}
    best_line = next(line for line in out if line.startswith("best epoch "))
    best = int(best_line.split()[2].rstrip(":"))
    assert best > 1 and figures[best - 1].split("val_acc=")[1] != figures[best].split("val_acc=")[1]
    assert best_line == f"best epoch {best}: {figures[best]}"


def test_the_shortest_window_is_accepted(tmp_path):
    """`--window 1e-6` is one microsecond: three records 0, 1 and 3 µs apart make three windows."""
    pcap, out = tmp_path / "t.pcap", tmp_path / "f.csv"
    write_records(pcap, [(1, usec, len(FRAME), FRAME) for usec in (0, 1, 3)])
    assert run("extract", "--pcap", pcap, "--window", "1e-6", "--out", out) == 0
    assert len(out.read_text().splitlines()) == 1 + 3


@pytest.mark.parametrize("command", ["extract", "classify"])
def test_extract_and_classify_say_what_they_decoded(scenario, tmp_path, capsys, command):
    """One frame of each transport and one UDP frame captured short of its length."""
    d, _ = scenario
    frames = [ethernet(ipv4(tcp(), 6)), ethernet(ipv4(udp(b"abcd"), 17)), ethernet(ipv4(bytes(8), 1)),
              ethernet(bytes(28), 0x0806)]
    snapped = ethernet(ipv4(udp(bytes(100)), 17))
    pcap = tmp_path / "kinds.pcap"
    write_records(pcap, [(i, 0, len(f), f) for i, f in enumerate(frames)] + [(4, 0, len(snapped), snapped[:50])])
    model = ["--model", d / "model.txt"] if command == "classify" else []
    capsys.readouterr()
    assert run(command, "--pcap", pcap, *model, "--out", tmp_path / "out.csv") == 0
    assert capsys.readouterr().out.splitlines()[0] == (
        "decoded 5 frames: tcp 1, udp 2, other IP 1, non-IP 1; captured short 1"
    )


def test_a_capture_of_only_a_global_header_writes_header_only_files(scenario, tmp_path):
    d, _ = scenario
    write_records(tmp_path / "empty.pcap", [])
    assert run("extract", "--pcap", tmp_path / "empty.pcap", "--out", tmp_path / "f.csv") == 0
    assert run("classify", "--pcap", tmp_path / "empty.pcap", "--model", d / "model.txt",
               "--out", tmp_path / "p.csv") == 0
    assert (tmp_path / "f.csv").read_bytes() == (",".join(CSV_HEADER) + "\r\n").encode()
    assert (tmp_path / "p.csv").read_bytes() == (CLASSIFY_HEADER + "\n").encode()


def test_blas_threads_do_not_change_model_bytes(scenario, tmp_path):
    """The benchmark trains with one OpenBLAS thread; a user's default may be several."""
    d, _ = scenario
    src = str(Path(mlp.__file__).resolve().parents[1])
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=src)
        argv = ["train", "--data", d / "train.csv", "--out-model", tmp_path / f"{threads}.txt", "--epochs", EPOCHS]
        subprocess.run([sys.executable, "-m", "floodgate.cli", *map(str, argv)], env=env, check=True,
                       stdout=subprocess.DEVNULL, timeout=120)
    assert (tmp_path / "1.txt").read_bytes() == (tmp_path / "2.txt").read_bytes()


def test_extract_and_classify_load_no_lazy_numpy_module(scenario, tmp_path):
    """A plain `np.unique(x)` imports numpy.ma on its first call, 10-17 ms and
    about 1.1 MB in every stage that makes it; a fresh interpreter shows it."""
    d, _ = scenario
    src = str(Path(mlp.__file__).resolve().parents[1])
    extract = ["extract", "--pcap", str(d / "test.pcap"), "--window", WINDOW, "--out", str(tmp_path / "f.csv")]
    classify = ["classify", "--pcap", str(d / "test.pcap"), "--model", str(d / "model.txt"), "--window", WINDOW,
                "--out", str(tmp_path / "p.csv")]
    code = (
        "import sys\nfrom floodgate import cli\n"
        f"codes = [cli.main({extract!r}), cli.main({classify!r})]\n"
        "print(codes, 'numpy.ma' in sys.modules)\n"
    )
    child = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src), capture_output=True,
                           text=True, check=True, timeout=120)
    assert child.stdout.splitlines()[-1] == "[0, 0] False"


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

    # At 0.005 s the test capture has 1,600 windows, more than one of `format_rows`' blocks.
    @pytest.mark.parametrize("window", [WINDOW, "0.005"])
    def test_predictions_are_the_per_row_bytes(self, scenario, tmp_path, window):
        """`predictions.csv` is what `classify` wrote when it built each row from its own list."""
        d, _ = scenario
        out = tmp_path / "p.csv"
        assert run("classify", "--pcap", d / "test.pcap", "--model", d / "model.txt", "--window", window,
                   "--out", out) == 0
        packets = read_pcap(d / "test.pcap")
        windows = window_packets(packets, float(window))
        probs = forward(load_model(d / "model.txt"), extract_features(packets, windows))
        assert window == WINDOW or len(windows) > 512
        expected = oracle.predictions(CLASSIFY_HEADER, windows.start_ts, windows.end_ts, probs)
        assert out.read_bytes() == expected.encode()
