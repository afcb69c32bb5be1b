"""Tests of the benchmark's own parts: the wild-header rewrite, output checks and span arithmetic.

    PYTHONPATH=src python -m pytest -q perfbench
"""

import json
from pathlib import Path

import pytest

from floodgate.pcapio import Frame, decode_frame, read_frames, write_pcap
from floodgate.synth import FLAG_ACK, FLAG_PSH, FLAG_SYN, HTTP_GET, build_tcp_frame, build_udp_frame, parse_scenario, run_scenario

import pipeline
import run
import tracing
import workloads

CLIENT, SERVER = 0xC0A8010A, 0x0A00000A


@pytest.fixture(scope="module")
def wild_capture(tmp_path_factory):
    """A 10 s flood_mix-shaped capture (~10k frames) after the wild rewrite."""
    work = tmp_path_factory.mktemp("wild")
    cfg = parse_scenario(
        "duration 10\nseed 3\nbenign_rate 200\n"
        "episode syn 1 3 2000 40\nepisode http 4 6 2000 40\nepisode udp 7 9 2000 40\n"
    )
    run_scenario(cfg, work / "raw.pcap", work / "truth.csv")
    workloads.rewrite_wild(work / "raw.pcap", work / "wild.pcap", 3)
    return work / "raw.pcap", work / "wild.pcap"


class TestWildRewrite:
    def test_shares_match_the_stated_draws(self, wild_capture):
        raw, wild = wild_capture
        shares = workloads.header_shares(wild)
        assert shares["frames"] == len(read_frames(raw)) > 9000
        assert shares["tcp_option_share"] == pytest.approx(workloads.TCP_OPTION_SHARE, abs=0.03)
        assert shares["ip_option_share"] == pytest.approx(workloads.IP_OPTION_SHARE, abs=0.004)
        assert shares["vlan_share"] == pytest.approx(workloads.VLAN_SHARE, abs=0.01)
        assert workloads.header_shares(raw)["tcp_option_share"] == 0.0

    def test_snapped_file_reads_back_truncated(self, wild_capture):
        raw, wild = wild_capture
        before, after = read_frames(raw), read_frames(wild)
        assert [(f.ts_sec, f.ts_usec) for f in after] == [(f.ts_sec, f.ts_usec) for f in before]
        assert max(len(f.data) for f in after) == workloads.WILD_SNAPLEN
        assert workloads.header_shares(wild)["truncated_frames"] > 0

    @pytest.mark.parametrize(
        "frame",
        [
            build_tcp_frame(CLIENT, SERVER, 40000, 80, FLAG_SYN),
            build_tcp_frame(SERVER, CLIENT, 80, 40000, FLAG_SYN | FLAG_ACK),
            build_tcp_frame(CLIENT, SERVER, 40000, 80, FLAG_ACK),
            build_tcp_frame(CLIENT, SERVER, 40000, 80, FLAG_PSH | FLAG_ACK, payload=HTTP_GET),
            build_udp_frame(CLIENT, SERVER, 5353, 53, payload=b"q" * 30),
        ],
        ids=["syn", "synack", "ack", "http_get", "udp"],
    )
    @pytest.mark.parametrize("ip_option", [False, True])
    def test_options_keep_the_decoded_fields(self, frame, ip_option):
        fields = ("transport", "src_ip", "dst_ip", "src_port", "dst_port", "tcp_flags", "ttl",
                  "payload_len", "payload_prefix")
        rewritten = workloads.rewrite_frame(frame, 12345, True, ip_option, False)
        before, after = decode_frame(frame), decode_frame(rewritten)
        assert {f: getattr(after, f) for f in fields} == {f: getattr(before, f) for f in fields}
        is_tcp = frame[23] == 6
        assert len(rewritten) - len(frame) == (20 if frame[47] & FLAG_SYN else 12) * is_tcp + 4 * ip_option

    def test_vlan_tag_is_inserted_before_the_ethertype(self):
        frame = build_udp_frame(CLIENT, SERVER, 5353, 53, payload=b"q")
        tagged = workloads.rewrite_frame(frame, 0, False, False, True)
        assert tagged[12:16] == b"\x81\x00\x00\x64"
        assert tagged[:12] + tagged[16:] == frame


class TestOutputChecks:
    def test_capture_truth_counts_nonempty_windows_and_midpoint_labels(self, tmp_path):
        frame = build_udp_frame(CLIENT, SERVER, 1, 2)
        stamps = [(10, 0), (10, 50_000), (10, 350_000), (11, 120_000)]
        write_pcap(tmp_path / "t.pcap", [Frame(s, u, frame) for s, u in stamps])
        (tmp_path / "t.csv").write_text("start_ts,end_ts,label\n10.3,10.9,udp_flood\n")
        truth = pipeline.CaptureTruth.from_capture(tmp_path / "t.pcap", tmp_path / "t.csv")
        assert (truth.packets, truth.slots) == (4, 12)
        assert truth.window_starts == [10.0, 10.3, 11.1]
        assert truth.labels == ["normal", "udp_flood", "normal"]

    def test_predictions_must_match_their_argmax(self, tmp_path):
        truth = pipeline.CaptureTruth(2, 2, [0.0, 0.1], ["normal", "syn_flood"])
        head = "window_start,window_end,predicted_label,p_normal,p_syn,p_ack,p_http,p_udp\n"
        good = head + "0.0,0.1,normal,0.9,0.1,0.0,0.0,0.0\n0.1,0.2,normal,0.6,0.4,0.0,0.0,0.0\n"
        (tmp_path / "p.csv").write_text(good)
        assert pipeline.check_predictions(tmp_path / "p.csv", truth) == 50.0
        (tmp_path / "p.csv").write_text(good.replace("0.1,0.2,normal", "0.1,0.2,syn_flood"))
        with pytest.raises(pipeline.CheckFailed, match="argmax"):
            pipeline.check_predictions(tmp_path / "p.csv", truth)

    def test_repeats_that_hash_differently_fail(self):
        ops = run.Ops()
        ops.ok("train", {"model.txt": "aa"})
        ops.ok("traced train", {"model.txt": "aa"})
        assert ops.failures == []
        ops.ok("train", {"model.txt": "bb"})
        assert (ops.attempted, ops.failures) == (3, ["train: model.txt differ between repeats at one seed"])


class TestSelfTime:
    def test_union_of_overlapping_and_clipped_children(self):
        assert tracing.self_time_ns(0, 100, []) == 100
        assert tracing.self_time_ns(0, 100, [(50, 60), (10, 20), (15, 30)]) == 70
        assert tracing.self_time_ns(10, 100, [(0, 20), (90, 120)]) == 70

    def test_nested_spans(self):
        tr = tracing.Tracer()
        tr.spans = [
            tracing.Span("cli.extract", 0, 100),
            tracing.Span("pcapio.read_pcap", 10, 40, parent=0),
            tracing.Span("pcapio.inner", 20, 30, parent=1),
            tracing.Span("features.window_packets", 50, 70, parent=0),
        ]
        assert tr.self_ms(tr.spans[0]) == pytest.approx(50e-6)
        assert tr.self_ms(tr.spans[1]) == pytest.approx(20e-6)
        assert tr.total_ms("pcapio.inner", under="cli.extract") == pytest.approx(10e-6)
        assert tr.named("pcapio.inner", under="features.window_packets") == []

    def test_patched_functions_record_parented_spans_and_are_restored(self):
        tr = tracing.Tracer()

        class Owner:
            @staticmethod
            def read_pcap(path):
                return [1, 2, 3]

        original = vars(Owner)["read_pcap"]
        with tr.span("cli.extract"), tr.patched(Owner, "read_pcap", "pcapio.read_pcap"):
            assert Owner.read_pcap("x") == [1, 2, 3]
        assert vars(Owner)["read_pcap"] is original
        assert [(s.name, s.parent) for s in tr.spans] == [("cli.extract", -1), ("pcapio.read_pcap", 0)]
        assert tr.count("pcapio.read_pcap", "packets", under="cli.extract") == 3


def test_benchmark_json_matches_the_metric_tables():
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    assert [(w["name"], w["why"]) for w in spec["workloads"]] == [
        (w.name, w.why) for w in workloads.WORKLOADS.values()
    ]
    assert [tuple(m.values()) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [tuple(m.values()) for m in spec["per_layer"]] == [row[:3] for row in run.PER_LAYER]
