"""Command-line pipeline driver: synth -> extract -> train -> eval -> classify.

Exit codes: 0 success, 1 usage error, 2 bad input (a `FloodgateError`, or an
`OSError` reading or writing a file), 3 training divergence (`NonFiniteLoss`).
By the rule in `errors`, a `ValueError` is a caller's bug, not bad input, so it
ends in a traceback. A failed run leaves no output: each file is written
atomically, and the first of two is removed if the second fails.

`train` takes only the number of epochs and the seed; the learning rate and
batch size are `mlp.LEARNING_RATE` and `mlp.BATCH_SIZE`, and the split is
`dataset.SPLIT`. A scenario's seed is its `seed` line, a model's `--seed`;
both default to 0. Every number on the command line is read by
`ioutil.strict_numbers`, as the package's files are.
"""

from __future__ import annotations

import argparse
import math
import sys

import numpy as np

from . import __version__
from .dataset import SPLIT, Dataset, TrafficClass, read_csv, stratified_split, write_csv
from .errors import FloodgateError, NonFiniteLoss
from .features import extract_features, label_windows, read_truth, window_packets
from .ioutil import atomic_write, removed_on_failure, strict_numbers
from .metrics import build_confusion, render_report
from .mlp import forward, load_model, predict_batch, save_model, train
from .pcapio import read_pcap
from .synth import load_scenario, run_scenario

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INPUT = 2
EXIT_RUNTIME = 3

CLASSIFY_HEADER = "window_start,window_end,predicted_label,p_normal,p_syn,p_ack,p_http,p_udp"


def _integer(text: str, minimum: int) -> int:
    try:
        value = strict_numbers([text], int)[0]
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer") from None
    if value < minimum:
        raise argparse.ArgumentTypeError(f"value must be at least {minimum}")
    return value


def _positive_int(text: str) -> int:
    return _integer(text, 1)


def _seed(text: str) -> int:
    return _integer(text, 0)


def _window(text: str) -> float:
    try:
        value = strict_numbers([text])[0]
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not a number") from None
    # `window_packets` counts whole microseconds; a range test also rejects nan.
    if not (1e-6 <= value and math.isfinite(value * 1e6)):
        raise argparse.ArgumentTypeError("window must be at least 1e-6 s and finite in microseconds")
    return value


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="floodgate", description=__doc__.split("\n\n")[0])
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    p = sub.add_parser("synth", help="generate a synthetic traffic scenario")
    p.add_argument("--config", required=True, help="scenario config file")
    p.add_argument("--out-pcap", required=True, help="output pcap path")
    p.add_argument("--out-truth", required=True, help="output ground-truth CSV path")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("extract", help="extract windowed features from a pcap")
    p.add_argument("--pcap", required=True, help="input pcap file")
    p.add_argument("--truth", help="ground-truth CSV; windows default to normal without it")
    p.add_argument("--window", type=_window, default=1.0, help="window length in seconds")
    p.add_argument("--out", required=True, help="output dataset CSV path")
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser("train", help="train the classifier on a dataset CSV")
    p.add_argument("--data", required=True, help="dataset CSV")
    p.add_argument("--out-model", required=True, help="output model path")
    p.add_argument("--seed", type=_seed, default=0, help="seed of the split and the model (default 0)")
    p.add_argument("--epochs", type=_positive_int, default=100, help="most epochs to train (default 100)")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a model on labeled data")
    p.add_argument("--data", required=True, help="labeled dataset CSV")
    p.add_argument("--model", required=True, help="model file")
    p.add_argument("--report", required=True, help="output report path (CSV twin at <path>.csv)")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("classify", help="classify each window of a pcap")
    p.add_argument("--pcap", required=True, help="input pcap file")
    p.add_argument("--model", required=True, help="model file")
    p.add_argument("--window", type=_window, default=1.0, help="window length in seconds")
    p.add_argument("--out", required=True, help="output predictions CSV")
    p.set_defaults(func=cmd_classify)

    return parser


def cmd_synth(args) -> int:
    cfg = load_scenario(args.config)
    count = run_scenario(cfg, args.out_pcap, args.out_truth)
    print(f"wrote {count} packets to {args.out_pcap}")
    print(f"wrote {len(cfg.episodes)} truth intervals to {args.out_truth}")
    return EXIT_OK


def cmd_extract(args) -> int:
    packets = read_pcap(args.pcap)
    windows = window_packets(packets, args.window)
    truth = read_truth(args.truth) if args.truth else []
    ds = Dataset(extract_features(packets, windows), label_windows(windows, truth))
    write_csv(ds, args.out)
    counts = ds.class_counts()
    print(f"extracted {len(ds)} windows from {len(packets)} packets into {args.out}")
    for cls in TrafficClass:
        print(f"  {cls.alias}: {counts[cls]}")
    return EXIT_OK


def cmd_train(args) -> int:
    train_ds, val_ds, _test_ds = stratified_split(read_csv(args.data), SPLIT, args.seed)
    model, history = train(train_ds, val_ds, epochs=args.epochs, seed=args.seed)
    save_model(model, args.out_model)

    for i in range(len(history)):
        print(
            f"epoch {i + 1:3d}: train_loss={history.train_loss[i]:.6f} "
            f"val_loss={history.val_loss[i]:.6f} val_acc={100 * history.val_accuracy[i]:.2f}%"
        )
    best = int(np.argmin(history.val_loss))
    print(
        f"best epoch {best + 1}: val_loss={history.val_loss[best]:.6f} "
        f"val_acc={100 * history.val_accuracy[best]:.2f}%"
    )
    print(f"saved model to {args.out_model}")
    return EXIT_OK


def cmd_eval(args) -> int:
    model = load_model(args.model)
    ds = read_csv(args.data)
    predicted = predict_batch(model, ds.features)
    report = render_report(build_confusion(ds.labels, predicted))
    with atomic_write(args.report, "w") as fh:
        fh.write(report.text)
    csv_path = f"{args.report}.csv"
    with removed_on_failure(args.report), atomic_write(csv_path, "w") as fh:
        fh.write(report.csv)
    print(report.text, end="")
    print(f"wrote report to {args.report} and {csv_path}")
    return EXIT_OK


def cmd_classify(args) -> int:
    model = load_model(args.model)
    packets = read_pcap(args.pcap)
    windows = window_packets(packets, args.window)
    probs = forward(model, extract_features(packets, windows))
    labels = probs.argmax(axis=1).tolist()
    lines = [CLASSIFY_HEADER]
    for start, end, label, row in zip(windows.start_ts.tolist(), windows.end_ts.tolist(), labels, probs.tolist()):
        lines.append(",".join([repr(start), repr(end), TrafficClass(label).alias] + [repr(p) for p in row]))
    with atomic_write(args.out, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    print(f"classified {len(lines) - 1} windows into {args.out}")
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        if code is None:
            return EXIT_OK
        return code if isinstance(code, int) else EXIT_USAGE
    try:
        return args.func(args)
    except (FloodgateError, OSError) as exc:
        print(f"floodgate {args.command}: {exc}", file=sys.stderr)
        return EXIT_RUNTIME if isinstance(exc, NonFiniteLoss) else EXIT_INPUT


if __name__ == "__main__":
    raise SystemExit(main())
