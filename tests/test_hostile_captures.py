"""Hostile captures: each gives correct features or a typed error, promptly."""

import io
import os
import tempfile
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from floodgate import cli
from floodgate.features import FEATURE_NAMES, extract_features, window_packets
from floodgate.pcapio import read_pcap
from floodgate.synth import parse_scenario, run_scenario

import oracle
from conftest import ethernet, ipv4, read_records, udp, write_records

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


@pytest.fixture(scope="module")
def small_capture(tmp_path_factory):
    """The bytes of a 2 s synth capture of benign traffic and a SYN flood (about 400 packets)."""
    work = tmp_path_factory.mktemp("small")
    cfg = parse_scenario("duration 2\nseed 5\nbenign_rate 100\nepisode syn 0.5 1 400 5\n")
    run_scenario(cfg, work / "c.pcap", work / "c.truth")
    return (work / "c.pcap").read_bytes()


# `extract` peaks (tracemalloc) at about 4.4 times the size of the capture
# above, and at 9.4-10.0 times that of a capture of zero-length records, the
# smallest records there are. Some runs add up to about 1 MiB that the
# interpreter allocates on a path's first call or keeps for a while.
EXTRACT_PEAK_PER_FILE_BYTE = 16
EXTRACT_PEAK_FIXED_BYTES = 1 << 20


@settings(max_examples=100, deadline=None)
@given(rnd=st.randoms(use_true_random=False))
def test_mutated_capture_gives_its_windows_or_a_typed_error(small_capture, rnd):
    """1-8 bytes of a capture overwritten at random: `extract` writes one row per
    non-empty window that conftest's record-by-record walk finds, or exits 2 with a
    message and no output file, within a stated multiple of the file size."""
    data = bytearray(small_capture)
    for _ in range(rnd.randint(1, 8)):
        data[rnd.randrange(len(data))] = rnd.randrange(256)
    with tempfile.TemporaryDirectory() as tmp:
        pcap, out, err = Path(tmp) / "m.pcap", Path(tmp) / "m.csv", io.StringIO()
        pcap.write_bytes(data)
        tracemalloc.start()
        try:
            with redirect_stdout(io.StringIO()), redirect_stderr(err):
                code = cli.main(["extract", "--pcap", str(pcap), "--window", "0.1", "--out", str(out)])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        if code == cli.EXIT_OK:
            windows = {(sec * 10**6 + usec) // 100_000 for sec, usec, _, _ in read_records(pcap)}
            assert len(out.read_text().splitlines()) == 1 + len(windows)
        else:
            assert code == cli.EXIT_INPUT and err.getvalue().startswith("floodgate extract: ")
            assert os.listdir(tmp) == ["m.pcap"]
    assert peak <= EXTRACT_PEAK_PER_FILE_BYTE * len(data) + EXTRACT_PEAK_FIXED_BYTES
