"""Hostile captures: each gives correct features or a typed error, promptly."""

import numpy as np

from floodgate import cli
from floodgate.features import FEATURE_NAMES, extract_features, window_packets
from floodgate.pcapio import read_pcap

import oracle
from conftest import ethernet, ipv4, udp, write_records

F = {name: i for i, name in enumerate(FEATURE_NAMES)}
FRAME = ethernet(ipv4(udp(b"q" * 20), proto=17))


def test_bogus_early_timestamp_costs_no_empty_windows(tmp_path):
    # A record at ts 0 in front of one at 1.79e9 s: a dense tiling of 0.1 s
    # windows would be 1.79e10 slots; only the two that hold packets exist.
    path = tmp_path / "t.pcap"
    write_records(path, [(0, 0, len(FRAME), FRAME), (1_790_000_000, 0, len(FRAME), FRAME)])
    windows = window_packets(read_pcap(path), 0.1)
    assert windows.start_ts.tolist() == [0.0, 1_790_000_000.0]
    assert windows.end_ts.tolist() == [0.1, 1_790_000_000.1]
    out = tmp_path / "features.csv"
    assert cli.main(["extract", "--pcap", str(path), "--window", "0.1", "--out", str(out)]) == 0
    assert len(out.read_text().splitlines()) == 1 + 2


def test_huge_original_lengths_give_the_reference_sizes(tmp_path):
    # Squares of 0xFFFFFFFF do not fit in int64. f02 is the exact int64 sum,
    # and f03/f04 follow the one mean-and-std rule, as the oracle's loop does.
    huge = 0xFFFFFFFF
    records = [(10, 1000, huge, FRAME), (10, 2000, huge, FRAME), (20, 0, 60, FRAME), (20, 5, huge, FRAME)]
    records += [(30, i, 1500, FRAME) for i in range(50)] + [(30, 60, huge, FRAME)]
    path = tmp_path / "t.pcap"
    write_records(path, records)
    packets = read_pcap(path)
    got = extract_features(packets, window_packets(packets, 1.0))
    want = oracle.features(list(packets), 1.0)
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
    assert got[0, F["byte_count"]] == 2.0 * huge
    assert got[0, F["std_packet_size"]] == 0.0


def test_near_max_original_lengths_in_every_window_give_the_reference_features(tmp_path):
    # 0xFFFFFFFF and 0xFFFFFFFE alternate across 40 windows, so every window
    # mixes two near-2**32 sizes and a std of half a byte; in the windows
    # with odd packet counts, the mean sits off the midpoint of the two.
    sizes = (0xFFFFFFFF, 0xFFFFFFFE)
    records = [(w, i * 1000, sizes[i % 2], FRAME) for w in range(40) for i in range(2 + w % 5)]
    path = tmp_path / "t.pcap"
    write_records(path, records)
    packets = read_pcap(path)
    got = extract_features(packets, window_packets(packets, 1.0))
    assert len(got) == 40
    assert np.isfinite(got).all()
    want = oracle.features(list(packets), 1.0)
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
    assert got[0, F["std_packet_size"]] == 0.5


def test_truncated_last_record_fails_extract_without_output(tmp_path, capsys):
    path = tmp_path / "t.pcap"
    write_records(path, [(1, 0, len(FRAME), FRAME), (1, 10, len(FRAME), FRAME)])
    path.write_bytes(path.read_bytes()[:-5])
    out = tmp_path / "features.csv"
    assert cli.main(["extract", "--pcap", str(path), "--window", "0.1", "--out", str(out)]) == cli.EXIT_INPUT
    assert "only" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["t.pcap"]
