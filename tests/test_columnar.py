"""The columnar decode and feature path against the per-packet reference.

Decode: every record of a capture read by `read_pcap` must equal what
`decode_frame` makes of it. Features: every window's row must equal the
per-packet loop in `oracle.py` bit for bit (compared as uint64, because
`==` treats -0.0 and 0.0 as equal).
"""

import sys
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from floodgate.features import extract_features, window_packets
from floodgate.pcapio import (
    Frame,
    PacketMeta,
    Packets,
    Transport,
    decode_frame,
    read_frames,
    read_pcap,
)
from floodgate.synth import parse_scenario, run_scenario

import oracle
from conftest import ethernet, ipv4, make_meta, read_records, tcp, udp, write_records

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

U32 = st.integers(0, 2**32 - 1)


def assert_bitwise_equal(got, want):
    assert got.shape == want.shape
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), np.argwhere(
        got.view(np.uint64) != want.view(np.uint64)
    )


# --- decode -----------------------------------------------------------------


@st.composite
def built_frames(draw):
    """Ethernet/IPv4/TCP-or-UDP frames with options, fragments, odd lengths and truncation."""
    payload = draw(st.binary(max_size=40))
    proto = draw(st.sampled_from([6, 17, 1]))
    if proto == 6:
        segment = tcp(
            payload,
            sport=draw(st.integers(0, 65535)),
            dport=draw(st.sampled_from([80, 8080, 443, 22])),
            flags=draw(st.integers(0, 255)),
            offset_words=draw(st.integers(5, 15)),
        )
        if draw(st.booleans()):  # a data offset below 5 words is invalid
            segment = segment[:12] + bytes([draw(st.integers(0, 4)) << 4]) + segment[13:]
    elif proto == 17:
        segment = udp(payload, length=draw(st.one_of(st.none(), st.integers(0, 80))))
    else:
        segment = payload
    ihl_words = draw(st.integers(5, 15))
    total_len = draw(st.one_of(st.none(), st.integers(0, ihl_words * 4 + len(segment) + 20)))
    packet = ipv4(
        segment,
        proto=proto,
        ttl=draw(st.integers(0, 255)),
        ihl_words=ihl_words,
        total_len=total_len,
        frag_offset=draw(st.sampled_from([0, 0, 0x4000, 0x2000, 5, 0x1FFF])),
    )
    if draw(st.booleans()):  # a bad version or IHL in the first byte
        packet = bytes([draw(st.integers(0, 255))]) + packet[1:]
    frame = ethernet(packet, ethertype=draw(st.sampled_from([0x0800, 0x0800, 0x0800, 0x86DD, 0x8100])))
    return frame[: draw(st.integers(0, len(frame)))] if draw(st.booleans()) else frame


records = st.lists(
    st.tuples(U32, U32, U32, st.one_of(st.binary(max_size=80), built_frames())), max_size=25
)


@settings(max_examples=300, deadline=None)
@given(records=records, endian=st.sampled_from("<>"))
def test_read_pcap_decodes_every_record_like_decode_frame(records, endian):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "t.pcap"
        write_records(path, records, endian)
        packets = read_pcap(path)
        frames = read_frames(path)
    want = [decode_frame(data, s, u, orig) for s, u, orig, data in records]
    assert len(packets) == len(want)
    assert list(packets) == want
    assert [packets[i] for i in range(len(packets))] == want
    assert frames == [Frame(s, u, data) for s, u, _, data in records]
    again = Packets.from_metas(want)
    for name in Packets.__dataclass_fields__:
        assert np.array_equal(getattr(again, name), getattr(packets, name)), name


def test_from_metas_rejects_records_decode_frame_cannot_make():
    good = decode_frame(ethernet(ipv4(udp(b"x"), proto=17)))
    assert Packets.from_metas([good])[0] == good
    with pytest.raises(ValueError, match="packet 1: payload prefix of 9 bytes exceeds 8"):
        Packets.from_metas([good, PacketMeta(0, 0, 60, 60, payload_prefix=b"123456789")])


# --- features -----------------------------------------------------------------

PORTED = (Transport.TCP, Transport.UDP)


@st.composite
def packet_streams(draw):
    """Time-ordered PacketMeta lists shaped like decoded frames, with repeated keys."""
    n = draw(st.integers(1, 60))
    clock = draw(st.integers(0, 2_000_000_000)) * 1_000_000
    metas = []
    for _ in range(n):
        clock += draw(st.one_of(st.sampled_from([0, 1, 99_999, 100_000]), st.integers(0, 400_000)))
        transport = draw(st.sampled_from(list(Transport)))
        ip = transport is not Transport.NON_IP
        ported = transport in PORTED
        size = draw(st.one_of(st.integers(0, 1600), st.sampled_from([65535, 2**31, 2**32 - 1])))
        metas.append(
            PacketMeta(
                ts_sec=clock // 1_000_000,
                ts_usec=clock % 1_000_000,
                captured_len=min(size, 96),
                original_len=size,
                transport=transport,
                src_ip=draw(st.sampled_from([1, 2, 0xC0A8010A, 2**32 - 1])) if ip else 0,
                dst_ip=draw(st.sampled_from([3, 0x0A00000A])) if ip else 0,
                src_port=draw(st.sampled_from([0, 1024, 40000, 65535])) if ported else 0,
                dst_port=draw(st.sampled_from([53, 80, 8080, 65535])) if ported else 0,
                tcp_flags=draw(st.integers(0, 63)),
                ttl=draw(st.sampled_from([1, 64, 128, 255])) if ip else 0,
                payload_len=draw(st.sampled_from([0, 1, 64, 65, 1400])),
                payload_prefix=draw(st.sampled_from([b"", b"GET", b"GET / HT", b"POST /x", b"PUT \x00", b"HTTP/1.1"])),
            )
        )
    return metas


@settings(max_examples=300, deadline=None)
@given(metas=packet_streams(), window_len=st.sampled_from([1e-6, 0.0137, 0.1, 0.25, 1.0, 3600.0]))
def test_features_equal_the_per_packet_loop(metas, window_len):
    packets = Packets.from_metas(metas)
    windows = window_packets(packets, window_len)
    reference = oracle.windows(metas, window_len)
    assert windows.start_ts.tolist() == [start for start, _, _ in reference]
    assert windows.end_ts.tolist() == [end for _, end, _ in reference]
    assert_bitwise_equal(extract_features(packets, windows), oracle.features(metas, window_len))


def test_last_bit_cases_of_log2_and_squares():
    # Entropy terms need math.log2: np.log2(28 / 31) differs in the last bit,
    # and so does the entropy of counts 28, 1, 1, 1. Squared gap deviations
    # need pow: x * x rounds differently for these four stamps' gaps.
    flows = [53] * 28 + [1, 2, 3]
    first = [
        make_meta(transport=Transport.UDP, src_ip=port, dst_port=port)
        for port in flows
    ]
    second = [replace(make_meta(), ts_sec=1_731_009_969, ts_usec=us) for us in (25_176, 83_773, 85_718, 87_730)]
    metas = [replace(m, ts_sec=100, ts_usec=i) for i, m in enumerate(first)] + second
    packets = Packets.from_metas(metas)
    assert_bitwise_equal(extract_features(packets, window_packets(packets, 1.0)), oracle.features(metas, 1.0))


def test_hostile_microseconds_are_kept_as_read(tmp_path):
    # ts_usec >= 10**6 is not a valid pcap timestamp, but it is read as it is
    # and windows and gaps follow from ts_sec * 10**6 + ts_usec as before.
    frame = ethernet(ipv4(udp(b"q"), proto=17))
    records = [(5, 999_999, 60, frame), (5, 2_500_000, 60, frame), (8, 0, 60, frame)]
    write_records(tmp_path / "t.pcap", records)
    packets = read_pcap(tmp_path / "t.pcap")
    assert [(m.ts_sec, m.ts_usec) for m in packets] == [(5, 999_999), (5, 2_500_000), (8, 0)]
    metas = list(packets)
    windows = window_packets(packets, 1.0)
    assert windows.start_ts.tolist() == [5.0, 7.0, 8.0]
    assert_bitwise_equal(extract_features(packets, windows), oracle.features(metas, 1.0))


# --- captures shaped like the benchmark workloads --------------------------------

SHAPES = {
    "flood_mix": "duration 4\nbenign_rate 200\nepisode syn 0.5 1 2000 40\nepisode ack 1.5 2 2000 40\n"
    "episode http 2.5 3 2000 40\nepisode udp 3.2 3.8 2000 40\n",
    "sparse_windows": "duration 60\nbenign_rate 20\nepisode syn 5 10 200 4\nepisode ack 20 25 200 4\n"
    "episode http 35 40 200 4\nepisode udp 50 55 200 4\n",
}


@pytest.fixture(scope="module")
def shaped_captures(tmp_path_factory):
    """Small flood_mix and sparse_windows captures, plus flood_mix after the wild-header rewrite."""
    sys.path.insert(0, str(PERFBENCH))
    try:
        import workloads
    finally:
        sys.path.remove(str(PERFBENCH))
    work = tmp_path_factory.mktemp("shapes")
    paths = {}
    for name, text in SHAPES.items():
        paths[name] = work / f"{name}.pcap"
        run_scenario(parse_scenario(f"seed 7\n{text}"), paths[name], work / f"{name}.csv")
    paths["wild_headers"] = work / "wild_headers.pcap"
    workloads.rewrite_wild(paths["flood_mix"], paths["wild_headers"], 7)
    return paths


@pytest.mark.parametrize("shape", ["flood_mix", "sparse_windows", "wild_headers"])
def test_workload_shaped_captures_match_the_reference(shaped_captures, shape):
    path = shaped_captures[shape]
    packets = read_pcap(path)
    metas = [decode_frame(data, s, u, orig) for s, u, orig, data in read_records(path)]
    assert list(packets) == metas
    assert len(metas) > 1000
    windows = window_packets(packets, 0.1)
    assert_bitwise_equal(extract_features(packets, windows), oracle.features(metas, 0.1))
