"""End-to-end stages: `floodgate <stage>` child processes and their output checks.

Each stage runs as its own `python -m floodgate.cli ...` child, one at a time.
Wall time is taken in the parent; CPU time and peak RSS come from the child's
rusage via `os.wait4`. Every output is checked against what the benchmark
computes itself from the inputs, and hashed so that repeats can be compared.
"""

from __future__ import annotations

import csv
import hashlib
import dataclasses
import os
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from workloads import WINDOW_S, Workload

STAGES = ("extract", "train", "eval", "classify")
CHILD_TIMEOUT_S = 60.0
SPLIT = (0.7, 0.15, 0.15)
REPORT_SCOPES = ("overall", "syn", "ack", "http", "udp")


class CheckFailed(Exception):
    """A stage ran but its output is wrong or missing."""


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


# Machine-speed reference. On a shared VM the CPU's speed swings by up to
# 1.8x over tens of seconds (a fixed loop went from 20 to 36 ms within 100 s
# on a 2-vCPU VM, with the extract stage moving from 0.8 to 1.6 s in step),
# which no run length averages out. So a fixed pure-Python loop is timed
# between the timed steps, and each step's wall time is also reported at the
# speed at which that loop takes REFERENCE_NOMINAL_S, using the mean of the
# loop timings just before and after the step. Over 11 windows of 30 s on
# sparse_windows this cut the quartile spread of the stage medians from
# 0.19-0.26 (raw wall time) to 0.05-0.10. The loop does not touch floodgate,
# so a change to the program cannot move it.
REFERENCE_LOOPS = 100_000
REFERENCE_NOMINAL_S = 0.010


def reference_s() -> float:
    """Best of three timings of the fixed reference loop."""
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        x = 0
        for i in range(REFERENCE_LOOPS):
            x += i * i % 7
        best = min(best, time.perf_counter() - start)
    return best


class SpeedProbe:
    """The reference loop, timed between a run's timed steps."""

    def __init__(self) -> None:
        self.last = reference_s()

    def at_speed(self, wall_s: float) -> float:
        """The wall time of the step that just ended, at reference speed."""
        before, self.last = self.last, reference_s()
        return wall_s * REFERENCE_NOMINAL_S * 2 / (before + self.last)


@dataclass(frozen=True)
class ChildRun:
    exit_code: int
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    at_speed_s: float | None = None  # wall_s at reference speed, for pipeline stages


def run_child(argv: list[str], env: dict[str, str], log: Path) -> ChildRun:
    """Run one child to completion and return its exit code, times and peak RSS."""
    with open(log, "wb") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=subprocess.STDOUT, env=env)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return ChildRun(proc.returncode, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0)


def child_env(src: Path) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(src), env.get("PYTHONPATH")) if p)
    return env


# --- what the outputs must be, computed from the inputs -----------------------


@dataclass(frozen=True)
class CaptureTruth:
    """Non-empty windows of one capture and their midpoint labels."""

    packets: int
    slots: int
    window_starts: list[float]
    labels: list[str]

    @classmethod
    def from_capture(cls, pcap: Path, truth_csv: Path) -> "CaptureTruth":
        from floodgate.features import read_truth
        from floodgate.pcapio import read_frames

        len_us = round(WINDOW_S * 1e6)
        frames = read_frames(pcap)
        windows = sorted({(f.ts_sec * 1_000_000 + f.ts_usec) // len_us for f in frames})
        intervals = read_truth(truth_csv)
        starts, labels = [], []
        for w in windows:
            start, end = (w * len_us) / 1e6, ((w + 1) * len_us) / 1e6
            mid = (start + end) / 2.0
            label = next((cls_.alias for s, e, cls_ in intervals if s <= mid < e), "normal")
            starts.append(start)
            labels.append(label)
        slots = windows[-1] - windows[0] + 1 if windows else 0
        return cls(len(frames), slots, starts, labels)


def _rows(path: Path) -> list[list[str]]:
    if not path.is_file():
        raise CheckFailed(f"{path.name} was not written")
    with open(path, newline="") as fh:
        return [row for row in csv.reader(fh) if row]


def check_features(path: Path, expected: CaptureTruth) -> None:
    rows = _rows(path)[1:]
    if len(rows) != len(expected.labels):
        raise CheckFailed(f"{path.name}: {len(rows)} rows for {len(expected.labels)} non-empty windows")
    labels = [row[-1] for row in rows]
    if labels != expected.labels:
        bad = next(i for i, (a, b) in enumerate(zip(labels, expected.labels)) if a != b)
        raise CheckFailed(f"{path.name}: row {bad + 1} labelled {labels[bad]}, truth {expected.labels[bad]}")


def check_model(path: Path) -> None:
    from floodgate.errors import FloodgateError
    from floodgate.mlp import load_model

    if not path.is_file():
        raise CheckFailed(f"{path.name} was not written")
    try:
        load_model(path)
    except FloodgateError as exc:
        raise CheckFailed(f"{path.name} does not load: {exc}") from None


def check_report(path: Path) -> float:
    """Check the report and its CSV twin; returns the overall accuracy in %."""
    if not path.is_file():
        raise CheckFailed(f"{path.name} was not written")
    rows = _rows(Path(f"{path}.csv"))
    scopes = {row[0]: row for row in rows[1:]}
    if tuple(scopes) != REPORT_SCOPES:
        raise CheckFailed(f"{path.name}.csv has scopes {list(scopes)}, want {list(REPORT_SCOPES)}")
    return float(scopes["overall"][1])


def check_predictions(path: Path, expected: CaptureTruth) -> float:
    """Check one row per non-empty window, in order, with valid probabilities.

    Returns the share (in %) of rows whose label is the truth label at the
    window midpoint.
    """
    from floodgate.dataset import TrafficClass

    aliases = [c.alias for c in TrafficClass]
    rows = _rows(path)[1:]
    if len(rows) != len(expected.window_starts):
        raise CheckFailed(f"{path.name}: {len(rows)} rows for {len(expected.window_starts)} non-empty windows")
    correct = 0
    for i, (row, start, truth) in enumerate(zip(rows, expected.window_starts, expected.labels)):
        if float(row[0]) != start:
            raise CheckFailed(f"{path.name}: row {i + 1} starts at {row[0]}, want {start!r}")
        probs = [float(p) for p in row[3:]]
        if len(probs) != len(aliases) or abs(sum(probs) - 1.0) > 1e-9:
            raise CheckFailed(f"{path.name}: row {i + 1} probabilities do not sum to 1")
        if row[2] != aliases[max(range(len(probs)), key=probs.__getitem__)]:
            raise CheckFailed(f"{path.name}: row {i + 1} label {row[2]} is not the argmax")
        correct += row[2] == truth
    return 100.0 * correct / len(rows)


# --- the pipeline ----------------------------------------------------------------


class Pipeline:
    """The four CLI stages of one workload, with their inputs and checks.

    Output paths carry a prefix so that a traced pass can write next to the
    end-to-end one and be compared with it by hash.
    """

    def __init__(self, workload: Workload, seed: int, work: Path, src: Path, inputs: dict[str, Path],
                 speed: SpeedProbe):
        self.workload = workload
        self.speed = speed
        self.seed = seed
        self.work = work
        self.inputs = inputs
        self.env = child_env(src)
        self.train_truth = CaptureTruth.from_capture(inputs["train_pcap"], inputs["train_truth"])
        self.test_truth = CaptureTruth.from_capture(inputs["test_pcap"], inputs["test_truth"])
        self.test_split = work / "test_split.csv"
        self.eval_accuracy_pct: float | None = None
        self.classify_accuracy_pct: float | None = None

    def paths(self, prefix: str = "") -> dict[str, Path]:
        names = ("features.csv", "model.txt", "report.txt", "predictions.csv")
        return {name.split(".")[0]: self.work / f"{prefix}{name}" for name in names}

    def argv(self, stage: str, prefix: str = "") -> list[str]:
        """The `floodgate` arguments of one stage, as a user would type them."""
        p, inputs, window = self.paths(prefix), self.inputs, str(WINDOW_S)
        return {
            "extract": ["extract", "--pcap", str(inputs["train_pcap"]), "--truth", str(inputs["train_truth"]),
                        "--window", window, "--out", str(p["features"])],
            "train": ["train", "--data", str(p["features"]), "--out-model", str(p["model"]),
                      "--seed", str(self.seed), *self.workload.train_args],
            "eval": ["eval", "--data", str(self.test_split), "--model", str(p["model"]),
                     "--report", str(p["report"])],
            "classify": ["classify", "--pcap", str(inputs["test_pcap"]), "--model", str(p["model"]),
                         "--window", window, "--out", str(p["predictions"])],
        }[stage]

    def outputs(self, stage: str, prefix: str = "") -> list[Path]:
        p = self.paths(prefix)
        return {
            "extract": [p["features"]],
            "train": [p["model"]],
            "eval": [p["report"], Path(f"{p['report']}.csv")],
            "classify": [p["predictions"]],
        }[stage]

    def output_hashes(self, stage: str, prefix: str = "") -> dict[str, str]:
        """SHA-256 of each output, keyed by its name without the prefix."""
        return {path.name.removeprefix(prefix): sha256(path) for path in self.outputs(stage, prefix)}

    def check(self, stage: str, prefix: str = "") -> None:
        """Check one stage's outputs; raises CheckFailed."""
        p = self.paths(prefix)
        try:
            if stage == "extract":
                check_features(p["features"], self.train_truth)
                if not self.test_split.exists():
                    self._write_test_split(p["features"])
            elif stage == "train":
                check_model(p["model"])
            elif stage == "eval":
                self.eval_accuracy_pct = check_report(p["report"])
            else:
                self.classify_accuracy_pct = check_predictions(p["predictions"], self.test_truth)
        except (ValueError, IndexError, KeyError) as exc:
            raise CheckFailed(f"{stage}: malformed output ({type(exc).__name__}: {exc})") from None

    def _write_test_split(self, features: Path) -> None:
        """The test split that `train` holds out, for `eval` to score."""
        from floodgate.dataset import read_csv, stratified_split, write_csv

        _, _, test = stratified_split(read_csv(features), SPLIT, self.seed)
        write_csv(test, self.test_split)

    def run_stage(self, stage: str) -> ChildRun:
        """Run one stage as a child and check it; raises CheckFailed."""
        for path in self.outputs(stage):
            path.unlink(missing_ok=True)
        log = self.work / f"{stage}.log"
        run = run_child([sys.executable, "-m", "floodgate.cli", *self.argv(stage)], self.env, log)
        run = dataclasses.replace(run, at_speed_s=self.speed.at_speed(run.wall_s))
        if run.exit_code != 0:
            tail = log.read_text(errors="replace").strip().splitlines()
            raise CheckFailed(f"{stage} exited {run.exit_code}: {tail[-1] if tail else ''}")
        self.check(stage)
        return run
