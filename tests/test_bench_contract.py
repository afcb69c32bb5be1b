"""The benchmark in `perfbench/` still runs clean against this package.

One small wild-header workload goes through the benchmark's own set-up,
one end-to-end pass, the traced pass and the packet-layer probe, and every
metric the benchmark reports must come out as a finite number. A change to
a name, option or result shape the benchmark relies on shows up here as a
failed operation or a missing metric. `perfbench/` is only imported.
"""

import math
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def perfbench():
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        import pipeline
        import run
        import tracing
        import workloads
    finally:
        sys.path.remove(str(ROOT / "perfbench"))
    return pipeline, run, tracing, workloads


def test_benchmark_runs_clean(perfbench, tmp_path):
    pipeline, run, tracing, workloads = perfbench
    workload = workloads.Workload(
        "contract", "six seconds of flood_mix traffic with wild headers",
        duration=6.0, benign_rate=200.0, flood_len=1.0, flood_rate=2000.0, attackers=40, wild=True,
    )
    ops = run.Ops()
    tracer = tracing.Tracer()
    inputs, _, setup_s = run.run_setup(workload, 1, tmp_path, ops, 1, tracer)
    pipe = pipeline.Pipeline(workload, 1, tmp_path, ROOT / "src", inputs, pipeline.SpeedProbe())
    runs = run.run_end_to_end(pipe, ops, 0.0, 1)
    run.traced_pass(pipe, tracer, ops)
    peak_per_pkt, outcomes = run.packet_layer_probe(inputs["train_pcap"], tracer)

    assert ops.failures == []
    metrics = {
        **run.end_to_end_metrics(setup_s, runs, pipe),
        **run.layer_metrics(tracer, runs, peak_per_pkt, outcomes, 0.0, 0.0),
    }
    expected = [name for name, *_ in run.END_TO_END] + [name for name, *_ in run.PER_LAYER]
    assert sorted(metrics) == sorted(expected)
    not_finite = {name: value for name, value in metrics.items()
                  if not isinstance(value, (int, float)) or not math.isfinite(value)}
    assert not_finite == {}
