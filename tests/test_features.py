import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from floodgate.dataset import TrafficClass
from floodgate.errors import MalformedRow, OverlappingTruth, UnsortedInput
from floodgate.features import (
    FEATURE_NAMES,
    extract_features,
    label_windows,
    read_truth,
    window_packets,
    write_truth,
)
from floodgate.pcapio import Transport

from conftest import make_meta, packets_from_metas

F = {name: i for i, name in enumerate(FEATURE_NAMES)}


def windowed(pkts, length):
    return window_packets(packets_from_metas(pkts), length)


def counts(windows):
    """Packets per window."""
    return np.diff(windows.bounds).tolist()


def features(pkts, length=1.0):
    """The feature row of packets that all fall in one window."""
    packets = packets_from_metas(pkts)
    windows = window_packets(packets, length)
    assert len(windows) == 1
    return extract_features(packets, windows)[0]

# TCP flags octets: FIN 0x01, SYN 0x02, RST 0x04, ACK 0x10.
SYN = 0x02
SYNACK = 0x12
ACK = 0x10
FIN = 0x11
RST = 0x04


class TestWindowing:
    def test_single_window(self):
        pkts = [make_meta(ts=t) for t in (0.1, 0.5, 0.9)]
        windows = windowed(pkts, 1.0)
        assert len(windows) == 1
        assert (windows.start_ts[0], windows.end_ts[0]) == (0.0, 1.0)
        assert counts(windows) == [3]

    def test_two_windows(self):
        pkts = [make_meta(ts=0.5), make_meta(ts=1.5)]
        windows = windowed(pkts, 1.0)
        assert len(windows) == 2
        assert counts(windows) == [1, 1]

    def test_boundary_packet_goes_to_later_window(self):
        windows = windowed([make_meta(ts=1.0)], 1.0)
        assert len(windows) == 1
        assert (windows.start_ts[0], windows.end_ts[0]) == (1.0, 2.0)

    def test_empty_windows_inside_span_are_skipped(self):
        pkts = [make_meta(ts=0.2), make_meta(ts=3.7)]
        windows = windowed(pkts, 1.0)
        assert len(windows) == 2
        assert windows.start_ts.tolist() == [0.0, 3.0]
        assert windows.end_ts.tolist() == [1.0, 4.0]
        assert counts(windows) == [1, 1]

    def test_unsorted_input(self):
        pkts = [make_meta(ts=t) for t in (1.0, 2.0, 2.0, 1.5, 1.0)]
        with pytest.raises(UnsortedInput, match="^packet 3 is earlier than its predecessor$"):
            windowed(pkts, 1.0)

    def test_sub_second_windows(self):
        # 0.3 s lies exactly on a 0.1 s boundary; integer-microsecond
        # arithmetic must put it in [0.3, 0.4).
        windows = windowed([make_meta(ts=0.3)], 0.1)
        assert (windows.start_ts[0], windows.end_ts[0]) == (0.3, 0.4)

    def test_bad_window_length(self):
        with pytest.raises(ValueError):
            windowed([], 0.0)

    def test_no_packets_no_windows(self):
        packets = packets_from_metas([])
        windows = window_packets(packets, 1.0)
        assert len(windows) == 0
        assert extract_features(packets, windows).shape == (0, len(FEATURE_NAMES))
        assert label_windows(windows, []).shape == (0,)

    def test_every_packet_in_exactly_one_window(self, rng):
        stamps = np.sort(rng.uniform(0, 20, size=300))
        pkts = [make_meta(ts=float(t)) for t in stamps]
        windows = windowed(pkts, 0.5)
        assert sum(counts(windows)) == len(pkts)
        for w in range(len(windows)):
            for p in pkts[windows.bounds[w] : windows.bounds[w + 1]]:
                assert windows.start_ts[w] <= p.timestamp < windows.end_ts[w]

    def test_window_length_preserved(self, rng):
        stamps = np.sort(rng.uniform(0, 9, size=40))
        for length in (0.1, 0.25, 1.0, 2.5, 1e13):  # 1e13 s is 1e19 us, past int64
            windows = windowed([make_meta(ts=float(t)) for t in stamps], length)
            assert np.all(np.abs((windows.end_ts - windows.start_ts) - length) < 1e-9)


class TestExtract:
    def test_single_tcp_syn(self):
        pkt = make_meta(ts=0.4, size=60, flags=SYN, ttl=64)
        v = features([pkt])
        assert v[F["packet_count"]] == 1
        assert v[F["byte_count"]] == 60
        assert v[F["mean_packet_size"]] == 60
        assert v[F["std_packet_size"]] == 0
        assert v[F["tcp_ratio"]] == 1 and v[F["udp_ratio"]] == 0
        assert v[F["syn_count"]] == 1 and v[F["syn_ratio"]] == 1
        assert v[F["dst_port_entropy"]] == 0
        assert v[F["mean_interarrival"]] == 0 and v[F["std_interarrival"]] == 0
        assert v[F["mean_ttl"]] == 64
        assert v[F["unique_src_ips"]] == 1
        assert v[F["unique_five_tuples"]] == 1

    def test_two_port_uniform_entropy(self):
        pkts = [
            make_meta(ts=0.1, transport=Transport.UDP, dst_port=53, flags=0),
            make_meta(ts=0.2, transport=Transport.UDP, dst_port=53),
            make_meta(ts=0.3, transport=Transport.UDP, dst_port=123),
            make_meta(ts=0.4, transport=Transport.UDP, dst_port=123),
        ]
        v = features(pkts)
        assert v[F["dst_port_entropy"]] == pytest.approx(1.0)
        assert v[F["unique_dst_ports"]] == 2

    def test_small_udp_window(self):
        pkts = [
            make_meta(ts=0.1 * i, transport=Transport.UDP, payload_len=32) for i in range(10)
        ]
        v = features(pkts)
        assert v[F["small_udp_ratio"]] == 1.0
        assert v[F["udp_ratio"]] == 1.0
        assert v[F["tcp_ratio"]] == 0.0

    def test_pure_ack_definition(self):
        pkts = [
            make_meta(ts=0.1, flags=ACK, payload_len=0),  # counts
            make_meta(ts=0.2, flags=ACK, payload_len=10),  # payload: not pure
            make_meta(ts=0.3, flags=SYNACK, payload_len=0),  # SYN set: not pure
        ]
        v = features(pkts)
        assert v[F["pure_ack_count"]] == 1
        assert v[F["pure_ack_ratio"]] == pytest.approx(1 / 3)
        assert v[F["synack_count"]] == 1

    def test_fin_rst_ratio(self):
        pkts = [
            make_meta(ts=0.1, flags=FIN),
            make_meta(ts=0.2, flags=RST),
            make_meta(ts=0.3, flags=ACK),
            make_meta(ts=0.4, transport=Transport.UDP),
        ]
        v = features(pkts)
        assert v[F["finrst_ratio"]] == pytest.approx(0.5)

    def test_http_request_detection(self):
        pkts = [
            make_meta(ts=0.1, flags=ACK, dst_port=80, payload_len=20, payload_prefix=b"GET / HT"),
            make_meta(ts=0.2, flags=ACK, dst_port=8080, payload_len=20, payload_prefix=b"POST /fo"),
            make_meta(ts=0.3, flags=ACK, dst_port=443, payload_len=20, payload_prefix=b"GET / HT"),
            make_meta(ts=0.4, flags=ACK, dst_port=80, payload_len=20, payload_prefix=b"HTTP/1.1"),
            make_meta(ts=0.5, transport=Transport.UDP, dst_port=80, payload_prefix=b"GET / HT"),
        ]
        v = features(pkts)
        # Only TCP packets to 80/8080 whose payload starts with a method count.
        assert v[F["http_request_count"]] == 2
        assert v[F["http_request_ratio"]] == pytest.approx(0.4)

    def test_interarrival_stats(self):
        stamps = [0.0, 0.1, 0.3, 0.6]
        pkts = [make_meta(ts=t) for t in stamps]
        v = features(pkts)
        gaps = np.diff(stamps)
        assert v[F["mean_interarrival"]] == pytest.approx(gaps.mean(), abs=1e-9)
        assert v[F["std_interarrival"]] == pytest.approx(gaps.std(), abs=1e-9)

    def test_mean_ttl_ignores_non_ip(self):
        pkts = [
            make_meta(ts=0.1, ttl=64),
            make_meta(ts=0.2, ttl=128),
            make_meta(
                ts=0.3, transport=Transport.NON_IP, src_ip=0, dst_ip=0,
                src_port=0, dst_port=0, ttl=0,
            ),
        ]
        v = features(pkts)
        assert v[F["mean_ttl"]] == pytest.approx(96.0)
        assert v[F["unique_src_ips"]] == 1

    def test_window_of_only_non_ip_packets(self):
        pkts = [
            make_meta(
                ts=0.1 * i, transport=Transport.NON_IP, src_ip=0, dst_ip=0,
                src_port=0, dst_port=0, ttl=0,
            )
            for i in range(3)
        ]
        v = features(pkts)
        assert v[F["other_ratio"]] == 1.0
        assert v[F["mean_ttl"]] == 0.0
        assert v[F["unique_five_tuples"]] == 0.0
        assert np.isfinite(v).all()

    def test_ratio_sum_and_entropy_bounds(self, rng):
        transports = [Transport.TCP, Transport.UDP, Transport.OTHER_IP, Transport.NON_IP]
        for _ in range(20):
            n = int(rng.integers(1, 40))
            pkts = []
            t = 0.0
            for _ in range(n):
                t += float(rng.uniform(0, 0.02))
                tr = transports[int(rng.integers(len(transports)))]
                has_ip = tr is not Transport.NON_IP
                has_port = tr in (Transport.TCP, Transport.UDP)
                pkts.append(
                    make_meta(
                        ts=t,
                        size=int(rng.integers(54, 1500)),
                        transport=tr,
                        src_ip=int(rng.integers(1, 6)) if has_ip else 0,
                        dst_ip=2 if has_ip else 0,
                        src_port=int(rng.integers(1024, 1030)) if has_port else 0,
                        dst_port=int(rng.integers(1, 5)) if has_port else 0,
                        flags=SYN * int(rng.integers(2)) if tr is Transport.TCP else 0,
                        ttl=64 if has_ip else 0,
                        payload_len=int(rng.integers(0, 200)),
                    )
                )
            v = features(pkts, 10.0)
            assert v[F["tcp_ratio"]] + v[F["udp_ratio"]] + v[F["other_ratio"]] == pytest.approx(
                1.0, abs=1e-12
            )
            assert 0 <= v[F["dst_port_entropy"]] <= math.log2(n) + 1e-12
            assert 0 <= v[F["src_ip_entropy"]] <= math.log2(n) + 1e-12
            assert np.isfinite(v).all()

    def test_permutation_invariance(self, rng):
        pkts = []
        t = 0.0
        for i in range(25):
            t += float(rng.uniform(0, 0.05))
            pkts.append(
                make_meta(
                    ts=t,
                    size=int(rng.integers(54, 400)),
                    src_ip=int(rng.integers(1, 4)),
                    dst_port=int(rng.integers(1, 4)),
                    flags=SYN if rng.integers(2) else ACK,
                )
            )
        base = features(pkts, 10.0)
        shuffled = list(pkts)
        rng.shuffle(shuffled)
        shuffled.sort(key=lambda p: (p.ts_sec, p.ts_usec))
        again = features(shuffled, 10.0)
        assert np.array_equal(base, again)

    def test_identical_packet_stream(self):
        pkts = [make_meta(ts=0.1 * i) for i in range(8)]
        v = features(pkts)
        assert v[F["std_packet_size"]] == 0
        assert v[F["dst_port_entropy"]] == 0 and v[F["src_ip_entropy"]] == 0
        assert v[F["unique_src_ips"]] == 1
        assert v[F["unique_dst_ports"]] == 1
        assert v[F["unique_five_tuples"]] == 1

    def test_packet_count_conserved_across_windows(self, rng):
        stamps = np.sort(rng.uniform(0, 30, size=500))
        pkts = [make_meta(ts=float(t)) for t in stamps]
        packets = packets_from_metas(pkts)
        total = extract_features(packets, window_packets(packets, 1.0))[:, F["packet_count"]].sum()
        assert total == 500


class TestLabeling:
    def test_containment(self):
        windows = windowed([make_meta(ts=0.5)], 1.0)
        labels = label_windows(windows, [(0.0, 10.0, TrafficClass.UDP_FLOOD)])
        assert labels.dtype == np.int64
        assert labels.tolist() == [TrafficClass.UDP_FLOOD]

    def test_uncovered_defaults_to_normal(self):
        windows = windowed([make_meta(ts=20.5)], 1.0)
        labels = label_windows(windows, [(0.0, 10.0, TrafficClass.UDP_FLOOD)])
        assert labels.tolist() == [TrafficClass.NORMAL]

    def test_overlapping_truth(self):
        windows = windowed([make_meta(ts=0.5)], 1.0)
        truth = [(0.0, 5.0, TrafficClass.SYN_FLOOD), (3.0, 8.0, TrafficClass.ACK_FLOOD)]
        with pytest.raises(OverlappingTruth):
            label_windows(windows, truth)

    def test_adjacent_intervals_allowed(self):
        windows = windowed([make_meta(ts=0.5), make_meta(ts=5.5)], 1.0)
        truth = [(0.0, 5.0, TrafficClass.SYN_FLOOD), (5.0, 8.0, TrafficClass.ACK_FLOOD)]
        labels = label_windows(windows, truth)
        assert labels.tolist() == [TrafficClass.SYN_FLOOD, TrafficClass.ACK_FLOOD]

    def test_empty_windows_skipped(self):
        windows = windowed([make_meta(ts=0.2), make_meta(ts=3.7)], 1.0)
        labels = label_windows(windows, [])
        assert len(labels) == 2

    def test_midpoint_rule(self):
        # Window [0, 1): midpoint 0.5; an interval ending at 0.5 does not cover it.
        windows = windowed([make_meta(ts=0.1)], 1.0)
        assert label_windows(windows, [(0.0, 0.5, TrafficClass.SYN_FLOOD)])[0] == TrafficClass.NORMAL
        assert label_windows(windows, [(0.5, 1.0, TrafficClass.SYN_FLOOD)])[0] == TrafficClass.SYN_FLOOD


class TestTruthCsv:
    def test_round_trip(self, tmp_path):
        truth = [(0.0, 10.5, TrafficClass.SYN_FLOOD), (20.0, 30.0, TrafficClass.UDP_FLOOD)]
        path = tmp_path / "truth.csv"
        write_truth(path, truth)
        assert read_truth(path) == truth

    def test_header_only_when_empty(self, tmp_path):
        path = tmp_path / "truth.csv"
        write_truth(path, [])
        assert path.read_text().strip() == "start_ts,end_ts,label"
        assert read_truth(path) == []

    def test_malformed_rows(self, tmp_path):
        path = tmp_path / "truth.csv"
        path.write_text("start_ts,end_ts,label\n1.0,zzz,syn\n")
        with pytest.raises(MalformedRow):
            read_truth(path)
        path.write_text("start_ts,end_ts,label\n5.0,1.0,syn\n")
        with pytest.raises(MalformedRow):
            read_truth(path)
        path.write_text("bogus\n")
        with pytest.raises(MalformedRow):
            read_truth(path)


@settings(max_examples=50, deadline=None)
@given(
    stamps=st.lists(st.floats(0, 100, allow_nan=False), min_size=1, max_size=60),
    length=st.sampled_from([0.25, 0.5, 1.0, 2.0]),
)
def test_windowing_partition_property(stamps, length):
    stamps = sorted(round(s, 6) for s in stamps)
    pkts = [make_meta(ts=t) for t in stamps]
    windows = windowed(pkts, length)
    assert sum(counts(windows)) == len(pkts)
    assert min(counts(windows)) >= 1
    # Windows follow one another without overlap; gaps between them hold no packets.
    assert (windows.start_ts[1:] >= windows.end_ts[:-1]).all()
