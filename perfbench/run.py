"""Floodgate benchmark: seeded captures through the CLI pipeline.

    python3 perfbench/run.py --workload flood_mix --seed 1 --seconds 30 --trace 0

Run from the root of a floodgate checkout; the package is used from its
`src/` directory as it stands, with nothing to build. One run:

1. Set-up: synthesizes the workload's training and held-out test captures
   with `floodgate.synth` (plus the header rewrite on wild_headers), three
   times without a cache; `setup_s` is the median.
2. End to end: repeats `floodgate extract -> train -> eval -> classify`, each
   stage its own child process, one at a time, for `--seconds` seconds (at
   least three passes) and reports medians. Every output is checked and
   hashed; a stage that exits non-zero, writes a wrong output or hashes
   differently from an earlier pass counts as a failed operation. Times
   are reported at reference machine speed (see `pipeline.SpeedProbe`);
   the raw wall-time medians are in the detail line.
3. With `--trace 1`: half the time end to end, then one in-process traced
   pass of the same stages, reporting the per-layer metrics instead.

The last line of standard output is the JSON result; the line before it
holds the output hashes, the workload's measured properties and the run's
context. Working files live under `.perfbench/` in the checkout and are
removed at the end.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import signal
import statistics
import sys
import tempfile
import time
import tracemalloc
from collections import Counter
from pathlib import Path

from pipeline import STAGES, CheckFailed, Pipeline, SpeedProbe, run_child, sha256
from tracing import Tracer
from workloads import WORKLOADS, header_shares, setup_captures

SETUP_REPEATS = 3
MIN_PASSES = 3
# Stop starting passes after this long even if MIN_PASSES is not reached,
# so that a run ends well within three minutes.
HARD_LIMIT_S = 100.0
IMPORT_PROBES = 5

# name, unit, better, bound: what a user of the pipeline sees.
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("extract_s", "s", "lower", 0.25),
    ("train_s", "s", "lower", 0.25),
    ("classify_s", "s", "lower", 0.25),
    ("pipeline_s", "s", "lower", 0.25),
    ("extract_peak_rss_mb", "MB", "lower", 0.15),
    ("classify_peak_rss_mb", "MB", "lower", 0.15),
    ("eval_accuracy_pct", "%", "higher", 0.03),
    ("classify_accuracy_pct", "%", "higher", 0.03),
)

# name, unit, better, and the end-to-end metric it should move (see
# workloads.py for the workload on which each should move most).
PER_LAYER = (
    ("synth.run_scenario.us_per_pkt", "us/pkt", "lower", "setup_s"),
    ("pcapio.read_frames.us_per_pkt", "us/pkt", "lower", "extract_s, classify_s (record-walk floor)"),
    ("pcapio.read_pcap.us_per_pkt", "us/pkt", "lower", "extract_s, classify_s"),
    ("pcapio.read_pcap.peak_bytes_per_pkt", "B/pkt", "lower", "extract_peak_rss_mb, classify_peak_rss_mb"),
    ("pcapio.outcome.tcp", "count", "higher", "classify_accuracy_pct"),
    ("pcapio.outcome.udp", "count", "higher", "classify_accuracy_pct"),
    ("pcapio.outcome.other_ip", "count", "lower", "classify_accuracy_pct"),
    ("pcapio.outcome.non_ip", "count", "lower", "classify_accuracy_pct"),
    ("pcapio.outcome.truncated", "count", "lower", "classify_accuracy_pct"),
    ("features.window_packets.us_per_pkt", "us/pkt", "lower", "extract_s, classify_s"),
    ("features.windows.slots", "count", "lower", "extract_s, classify_s"),
    ("features.windows.nonempty", "count", "lower", "extract_s, classify_s"),
    ("features.label_windows.us_per_pkt", "us/pkt", "lower", "extract_s"),
    ("features.extract_features.us_per_window", "us/window", "lower", "classify_s"),
    ("dataset.from_records.ms", "ms", "lower", "extract_s"),
    ("dataset.write_csv.us_per_row", "us/row", "lower", "extract_s"),
    ("dataset.read_csv.us_per_row", "us/row", "lower", "train_s, pipeline_s"),
    ("dataset.stratified_split.ms", "ms", "lower", "train_s, pipeline_s"),
    ("mlp.train.ms_per_epoch", "ms/epoch", "lower", "train_s"),
    ("mlp.train.rows", "count", "lower", "train_s"),
    ("mlp.train.epochs", "count", "lower", "train_s"),
    ("mlp.train.best_epoch", "count", "lower", "train_s"),
    ("mlp.train.useful_ratio", "ratio", "higher", "train_s (best epoch over epochs run)"),
    ("mlp.save_model.ms", "ms", "lower", "train_s"),
    ("mlp.load_model.ms", "ms", "lower", "classify_s"),
    ("mlp.forward.us_per_window", "us/window", "lower", "classify_s"),
    ("mlp.predict_batch.us_per_row", "us/row", "lower", "pipeline_s"),
    ("metrics.render_report.ms", "ms", "lower", "pipeline_s"),
    ("cli.import_ms", "ms", "lower", "every stage time"),
    *(
        (f"cli.{stage}.{metric}", unit, "lower", note.format(stage=stage))
        for stage in ("extract", "train", "eval", "classify")
        for metric, unit, note in (
            ("self_ms", "ms", "{stage} stage time (CLI code outside every layer call)"),
            ("cpu_s", "s", "{stage} stage time (child user+sys CPU; separates noise from work)"),
            ("trace_overhead_ms", "ms", "none (traced stage minus end-to-end stage less start-up)"),
        )
    ),
)



class Ops:
    """Attempted and failed operations, and the output hashes of each repeat."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []
        self.hashes: dict[str, str] = {}

    def ok(self, label: str, hashes: dict[str, str]) -> None:
        """An operation that succeeded; it fails if an output differs from an earlier repeat."""
        self.attempted += 1
        changed = [name for name, digest in hashes.items() if self.hashes.setdefault(name, digest) != digest]
        if changed:
            self.failures.append(f"{label}: {', '.join(changed)} differ between repeats at one seed")

    def fail(self, label: str, message: str) -> None:
        self.attempted += 1
        self.failures.append(f"{label}: {message}")


def _median(values):
    return statistics.median(values) if values else None


def _ratio(num, den):
    return num / den if den else None


def run_setup(workload, seed: int, work: Path, ops: Ops, repeats: int, tracer=None):
    """Synthesize the captures `repeats` times.

    Returns their paths, and the set-up wall times both raw and at reference
    speed.
    """
    import floodgate.synth

    speed = SpeedProbe()
    walls, at_speed = [], []
    for _ in range(repeats):
        with tracer.patched(floodgate.synth, "run_scenario", "synth.run_scenario") if tracer else contextlib.nullcontext():
            start = time.perf_counter()
            inputs = setup_captures(workload, seed, work)
            walls.append(time.perf_counter() - start)
        at_speed.append(speed.at_speed(walls[-1]))
        ops.ok("setup", {path.name: sha256(path) for path in inputs.values()})
    return inputs, walls, at_speed


def run_end_to_end(pipe, ops: Ops, seconds: float, min_passes: int) -> dict:
    """Repeat the four stages until `seconds` have passed; returns each stage's runs."""
    runs = {stage: [] for stage in STAGES}
    start = time.perf_counter()
    passes = 0
    while not ops.failures:
        elapsed = time.perf_counter() - start
        if elapsed >= seconds and (passes >= min_passes or elapsed >= HARD_LIMIT_S):
            break
        done = {}
        for stage in STAGES:
            try:
                done[stage] = pipe.run_stage(stage)
            except CheckFailed as exc:
                ops.fail(stage, str(exc))
                break
            ops.ok(stage, pipe.output_hashes(stage))
        else:
            for stage, run in done.items():
                runs[stage].append(run)
        passes += 1
    return runs


def end_to_end_metrics(setup_s, runs, pipe) -> dict:
    """Medians over the run, times at reference speed (see pipeline.SpeedProbe)."""
    times = {stage: [r.at_speed_s for r in rs] for stage, rs in runs.items()}
    return {
        "setup_s": _median(setup_s),
        "extract_s": _median(times["extract"]),
        "train_s": _median(times["train"]),
        "classify_s": _median(times["classify"]),
        "pipeline_s": _median([sum(ts) for ts in zip(*times.values())]),
        "extract_peak_rss_mb": _median([r.peak_rss_mb for r in runs["extract"]]),
        "classify_peak_rss_mb": _median([r.peak_rss_mb for r in runs["classify"]]),
        "eval_accuracy_pct": pipe.eval_accuracy_pct,
        "classify_accuracy_pct": pipe.classify_accuracy_pct,
    }


def import_probe(pipe) -> tuple[float, float]:
    """Median wall ms of a bare interpreter, and of importing floodgate.cli beyond it."""
    bare, loaded = [], []
    log = pipe.work / "probe.log"
    for _ in range(IMPORT_PROBES):
        bare.append(run_child([sys.executable, "-c", "pass"], pipe.env, log).wall_s)
        loaded.append(run_child([sys.executable, "-c", "import floodgate.cli"], pipe.env, log).wall_s)
    bare_ms = 1e3 * statistics.median(bare)
    return bare_ms, 1e3 * statistics.median(loaded) - bare_ms


def traced_pass(pipe, tracer, ops: Ops) -> None:
    """The four stages in process, through `floodgate.cli.main`, with spans on every layer call."""
    from floodgate import cli

    with open(pipe.work / "traced.log", "w") as log, contextlib.redirect_stdout(log), tracer.patched_cli():
        for stage in STAGES:
            label = f"traced {stage}"
            try:
                with tracer.span(f"cli.{stage}"):
                    code = cli.main(pipe.argv(stage, prefix="traced_"))
                if code != 0:
                    raise CheckFailed(f"exited {code}")
                pipe.check(stage, prefix="traced_")
            except Exception as exc:  # a traced stage that raises is a failed operation
                ops.fail(label, f"{type(exc).__name__}: {exc}")
                return
            # The traced pass must reproduce the end-to-end outputs exactly.
            ops.ok(label, pipe.output_hashes(stage, prefix="traced_"))


def packet_layer_probe(pcap: Path, tracer) -> tuple[float, dict[str, int]]:
    """Record-walk span, then a tracemalloc sub-run of read_pcap.

    Returns read_pcap's peak traced bytes per packet and the decode outcome
    counts of the capture's PacketMeta records.
    """
    from floodgate.pcapio import read_frames, read_pcap

    tracer.wrap("pcapio.read_frames", read_frames)(pcap)
    tracemalloc.start()
    try:
        packets = read_pcap(pcap)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    outcomes = Counter(p.transport.value for p in packets)
    counts = {k: outcomes.get(k, 0) for k in ("tcp", "udp", "other_ip", "non_ip")}
    counts["truncated"] = sum(p.captured_len < p.original_len for p in packets)
    return peak / len(packets), counts


def layer_metrics(tr, runs, peak_per_pkt, outcomes, bare_ms, import_ms) -> dict:
    us = lambda name, under=None: 1e3 * tr.total_ms(name, under)  # noqa: E731
    all_pkts = tr.count("pcapio.read_pcap", "packets")
    epochs = tr.count("mlp.train", "epochs")
    values = {
        "synth.run_scenario.us_per_pkt": _ratio(us("synth.run_scenario"), tr.count("synth.run_scenario", "packets")),
        "pcapio.read_frames.us_per_pkt": _ratio(us("pcapio.read_frames"), tr.count("pcapio.read_frames", "packets")),
        "pcapio.read_pcap.us_per_pkt": _ratio(us("pcapio.read_pcap"), all_pkts),
        "pcapio.read_pcap.peak_bytes_per_pkt": peak_per_pkt,
        **{f"pcapio.outcome.{k}": v for k, v in outcomes.items()},
        "features.window_packets.us_per_pkt": _ratio(us("features.window_packets"), all_pkts),
        "features.windows.slots": tr.count("features.window_packets", "slots", under="cli.extract"),
        "features.windows.nonempty": tr.count("features.label_windows", "windows"),
        "features.label_windows.us_per_pkt": _ratio(
            us("features.label_windows"), tr.count("pcapio.read_pcap", "packets", under="cli.extract")
        ),
        "features.extract_features.us_per_window": _ratio(
            us("features.extract_features"), tr.calls("features.extract_features")
        ),
        "dataset.from_records.ms": tr.total_ms("dataset.from_records"),
        "dataset.write_csv.us_per_row": _ratio(us("dataset.write_csv"), tr.count("dataset.write_csv", "rows")),
        "dataset.read_csv.us_per_row": _ratio(us("dataset.read_csv"), tr.count("dataset.read_csv", "rows")),
        "dataset.stratified_split.ms": tr.total_ms("dataset.stratified_split"),
        "mlp.train.ms_per_epoch": _ratio(tr.total_ms("mlp.train"), epochs),
        "mlp.train.rows": tr.count("mlp.train", "rows"),
        "mlp.train.epochs": epochs,
        "mlp.train.best_epoch": tr.count("mlp.train", "best_epoch"),
        "mlp.train.useful_ratio": _ratio(tr.count("mlp.train", "best_epoch"), epochs),
        "mlp.save_model.ms": _ratio(tr.total_ms("mlp.save_model"), tr.calls("mlp.save_model")),
        "mlp.load_model.ms": _ratio(tr.total_ms("mlp.load_model"), tr.calls("mlp.load_model")),
        "mlp.forward.us_per_window": _ratio(us("mlp.forward"), tr.calls("mlp.forward")),
        "mlp.predict_batch.us_per_row": _ratio(us("mlp.predict_batch"), tr.count("mlp.predict_batch", "rows")),
        "metrics.render_report.ms": tr.total_ms("metrics.render_report"),
        "cli.import_ms": import_ms,
    }
    for stage, stage_runs in runs.items():
        span = tr.named(f"cli.{stage}")
        wall_ms = _median([1e3 * r.wall_s for r in stage_runs])
        values[f"cli.{stage}.self_ms"] = tr.self_ms(span[0]) if span else None
        values[f"cli.{stage}.cpu_s"] = _median([r.cpu_s for r in stage_runs])
        values[f"cli.{stage}.trace_overhead_ms"] = (
            span[0].duration_ns / 1e6 - (wall_ms - bare_ms - import_ms) if span and wall_ms else None
        )
    return values


def workload_properties(pipe, outcomes, shares) -> dict:
    truth = pipe.train_truth
    nonempty = len(truth.window_starts)
    return {
        "packets": truth.packets,
        "window_slots": truth.slots,
        "nonempty_windows": nonempty,
        "packets_per_nonempty_window": _ratio(truth.packets, nonempty),
        "decode_outcome_share": {k: v / truth.packets for k, v in outcomes.items()},
        "tcp_option_share": shares["tcp_option_share"],
        "ip_option_share": shares["ip_option_share"],
        "vlan_share": shares["vlan_share"],
        "truncated_frames": shares["truncated_frames"],
    }


def run_context(src: Path) -> dict:
    import numpy

    return {
        "src_lines": sum(len(p.read_bytes().splitlines()) for p in sorted(src.rglob("*.py"))),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
    }


def run_benchmark(workload, seed: int, seconds: float, trace: bool, work: Path, src: Path):
    """One run; returns the result object and the detail object."""
    ops = Ops()
    tracer = Tracer() if trace else None
    inputs, setup_walls, setup_s = run_setup(workload, seed, work, ops, 1 if trace else SETUP_REPEATS, tracer)
    pipe = Pipeline(workload, seed, work, src, inputs, SpeedProbe())
    runs = run_end_to_end(pipe, ops, seconds / 2 if trace else seconds, 1 if trace else MIN_PASSES)
    detail = {
        "workload": workload.name,
        "seed": seed,
        "passes": len(runs["extract"]),
        "raw_wall_s": {
            "setup": _median(setup_walls),
            **{stage: _median([r.wall_s for r in rs]) for stage, rs in runs.items()},
        },
        "context": run_context(src),
    }

    if trace:
        bare_ms, import_ms = import_probe(pipe)
        if not ops.failures:
            traced_pass(pipe, tracer, ops)
        peak_per_pkt, outcomes = packet_layer_probe(inputs["train_pcap"], tracer)
        metrics = layer_metrics(tracer, runs, peak_per_pkt, outcomes, bare_ms, import_ms)
        detail["properties"] = workload_properties(pipe, outcomes, header_shares(inputs["train_pcap"]))
        units = {name: unit for name, unit, _, _ in PER_LAYER}
    else:
        metrics = end_to_end_metrics(setup_s, runs, pipe)
        units = {name: unit for name, unit, _, _ in END_TO_END}

    detail.update(attempted=ops.attempted, failed=len(ops.failures), failures=ops.failures, hashes=ops.hashes)
    result = {
        "correct": not ops.failures,
        "attempted": ops.attempted,
        "failed": len(ops.failures),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    return result, detail


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="measured time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: report per-layer metrics from a traced pass instead")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    # On SIGTERM, unwind so that the running child is killed and reaped and
    # the working directory removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    root = Path(__file__).resolve().parent.parent
    src = root / "src"
    if not (src / "floodgate" / "cli.py").is_file():
        print(f"perfbench: {src / 'floodgate'} not found; run from the root of a floodgate checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    # Single-threaded BLAS, here and in the children, set before numpy is
    # first imported: with one child at a time on one thread the load stays
    # within nproc, and a BLAS pool does not stall a stage whenever the
    # hypervisor takes the other vCPU of a 2-vCPU machine away.
    os.environ.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    scratch = root / ".perfbench"
    scratch.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(prefix=f"{args.workload}-", dir=scratch) as tmp:
        result, detail = run_benchmark(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace),
                                       Path(tmp), src)
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
