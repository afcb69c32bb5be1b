"""Command-line pipeline driver: synth -> extract -> train -> eval -> classify.

Exit codes: 0 success, 1 usage error, 2 bad input (a `FloodgateError`, or an
`OSError` reading or writing a file), 3 training divergence (`NonFiniteLoss`).
A usage error prints argparse's own usage line and message; `main` turns its
exit status 2 into 1.
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
from .dataset import SPLIT, Dataset, TrafficClass, format_rows, read_csv, stratified_split, write_csv
from .errors import FloodgateError, NonFiniteLoss
from .features import extract_features, label_windows, read_truth, window_packets
from .ioutil import atomic_write, removed_on_failure, strict_numbers
from .metrics import build_confusion, render_report
from .mlp import forward, load_model, predict_batch, save_model, train
from .pcapio import NON_IP, OTHER_IP, TCP, UDP, read_pcap
from .synth import load_scenario, run_scenario

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INPUT = 2
EXIT_RUNTIME = 3

CLASSIFY_HEADER = ",".join(["window_start", "window_end", "predicted_label"] + [f"p_{c.short}" for c in TrafficClass])


def _integer(text: str, minimum: int) -> int:
    try:
        value = strict_numbers([text], int)[0]
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer") from None
    if value < minimum:
        raise argparse.ArgumentTypeError(f"value must be at least {minimum}")
    return value


def _window(text: str) -> float:
    try:
        value = strict_numbers([text])[0]
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not a number") from None
    # `window_packets` counts whole microseconds; a range test also rejects nan.
    if not (1e-6 <= value and math.isfinite(value * 1e6)):
        raise argparse.ArgumentTypeError("window must be at least 1e-6 s and finite in microseconds")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="floodgate", description=__doc__.split("\n\n")[0])
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
    p.add_argument("--seed", type=lambda text: _integer(text, 0), default=0,
                   help="seed of the split and the model (default %(default)s)")
    p.add_argument("--epochs", type=lambda text: _integer(text, 1), default=100,
                   help="most epochs to train (default %(default)s)")
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


def _read_windows(path, window_len: float):
    """The packets of the capture at `path` and their windows; `read_pcap`'s errors name the capture.

    Prints what the frames decoded to: the count per transport, and of frames
    captured shorter than their length. A capture of floods over IPv6, say,
    decodes as all non-IP and so has no TCP or UDP features.
    """
    packets = read_pcap(path)
    windows = window_packets(packets, window_len)
    count = np.bincount(packets.transport, minlength=4)
    short = np.count_nonzero(packets.captured_len < packets.original_len)
    print(f"decoded {len(packets)} frames: tcp {count[TCP]}, udp {count[UDP]}, other IP {count[OTHER_IP]}, "
          f"non-IP {count[NON_IP]}; captured short {short}")
    return packets, windows


def cmd_extract(args) -> int:
    truth = read_truth(args.truth) if args.truth else []
    packets, windows = _read_windows(args.pcap, args.window)
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
    best = history.best_epoch
    print(
        f"best epoch {best}: val_loss={history.val_loss[best - 1]:.6f} "
        f"val_acc={100 * history.val_accuracy[best - 1]:.2f}%"
    )
    stop = f"patience ran out (best epoch {best})" if history.patience_ran_out else "reached the --epochs cap"
    print(f"stopped at epoch {len(history)}: {stop}")
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
    packets, windows = _read_windows(args.pcap, args.window)
    probs = forward(model, extract_features(packets, windows))
    aliases = [c.alias for c in TrafficClass]
    bounds = format_rows(np.column_stack([windows.start_ts, windows.end_ts]))
    rows = zip(bounds, probs.argmax(axis=1).tolist(), format_rows(probs))
    with atomic_write(args.out, "w") as fh:
        fh.write(CLASSIFY_HEADER + "\n")
        fh.writelines(f"{bound},{aliases[label]},{p}\n" for bound, label, p in rows)
    print(f"classified {len(windows)} windows into {args.out}")
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code == 0 else EXIT_USAGE
    try:
        return args.func(args)
    except (FloodgateError, OSError) as exc:
        print(f"floodgate {args.command}: {exc}", file=sys.stderr)
        return EXIT_RUNTIME if isinstance(exc, NonFiniteLoss) else EXIT_INPUT


if __name__ == "__main__":
    raise SystemExit(main())
