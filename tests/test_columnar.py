"""The columnar decode and feature path against the per-packet reference.

Decode: every record of a capture read by `read_pcap` must equal what
`oracle.decode_frame` makes of it, and `pcapio.decode_frame`, the one-row
call of the same decoder, must give that record's row. Features: every
window's row must equal the per-packet loop in `oracle.py` bit for bit
(compared as uint64, because `==` treats -0.0 and 0.0 as equal).
"""

import sys
import tempfile
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from floodgate.dataset import TrafficClass
from floodgate.features import HTTP_PORTS, extract_features, label_windows, window_packets
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
from conftest import ethernet, ipv4, make_meta, packets_from_metas, read_records, tcp, udp, write_records

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

U32 = st.integers(0, 2**32 - 1)
PORT = st.integers(0, 65535)


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


# Arbitrary stamps, written in time order: `read_pcap` rejects any other.
records = st.lists(
    st.tuples(U32, U32, U32, st.one_of(st.binary(max_size=80), built_frames())), max_size=25
).map(lambda rs: sorted(rs, key=lambda r: r[0] * 1_000_000 + r[1]))


# Payloads of 3 bytes: the 4 bytes at their start run into the next record's header.
SHORT_PAYLOADS = [ethernet(ipv4(tcp(b"GET"), proto=6)), ethernet(ipv4(udp(b"GET"), proto=17)), b"\xff" * 16]


@settings(max_examples=300, deadline=None)
@given(records=records, endian=st.sampled_from("<>"))
@example(records=[(1, 0, len(frame), frame) for frame in SHORT_PAYLOADS], endian="<")
def test_read_pcap_decodes_every_record_like_decode_frame(records, endian):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "t.pcap"
        write_records(path, records, endian)
        packets = read_pcap(path)
        frames = read_frames(path)
    want = [oracle.decode_frame(data, s * 1_000_000 + u, orig) for s, u, orig, data in records]
    assert len(packets) == len(want)
    assert list(packets) == want
    # One row decoded alone equals the same row decoded in a batch, given its record header's fields.
    alone = [decode_frame(data) for _, _, _, data in records]
    assert [replace(m, ts_us=p.ts_us, original_len=p.original_len) for m, p in zip(alone, packets)] == list(packets)
    assert frames == [Frame(s, u, data) for s, u, _, data in records]
    again = packets_from_metas(want)
    for name in Packets.__dataclass_fields__:
        assert np.array_equal(getattr(again, name), getattr(packets, name)), name


def test_from_metas_rejects_records_decode_frame_cannot_make():
    good = decode_frame(ethernet(ipv4(udp(b"GET /"), proto=17)))
    assert good.payload_prefix == oracle.payload_word(b"GET ")
    highest = replace(good, payload_prefix=2**32 - 1)
    assert list(packets_from_metas([good, highest])) == [good, highest]
    for word in (-1, 2**32):
        with pytest.raises(ValueError, match=f"packet 1: payload prefix {word} is not a 32-bit word"):
            packets_from_metas([good, PacketMeta(0, 60, 60, payload_prefix=word)])


# --- features -----------------------------------------------------------------

PORTED = (Transport.TCP, Transport.UDP)


# Each field's strategy for `packet_streams`, built once: building them for
# every packet drawn took most of the feature tests' time.
GAP = st.one_of(st.sampled_from([0, 1, 99_999, 100_000]), st.integers(0, 400_000))
TRANSPORT = st.sampled_from(list(Transport))
SIZE = st.one_of(st.integers(0, 1600), st.sampled_from([65535, 2**31, 2**32 - 1]))
SRC_IP = st.one_of(st.sampled_from([1, 2, 0xC0A8010A, 2**32 - 1]), U32)
DST_IP = st.one_of(st.sampled_from([3, 0x0A00000A]), U32)
SRC_PORT = st.one_of(st.sampled_from([0, 1024, 40000, 65535]), PORT)
DST_PORT = st.one_of(st.sampled_from([53, 80, 8080, 65535]), PORT)
FLAGS = st.integers(0, 63)
TTL = st.sampled_from([1, 64, 128, 255])
PAYLOAD_LEN = st.sampled_from([0, 1, 64, 65, 1400])
# Payload words: none captured, the methods, "HTTP", "\0GET" (a 3-byte "GET" shifted right) and any other.
PREFIX = st.one_of(
    st.sampled_from([0, *(oracle.payload_word(m) for m in (b"GET ", b"POST", b"HEAD", b"PUT ", b"HTTP", b"\0GET"))]),
    U32,
)


@st.composite
def packet_streams(draw):
    """Time-ordered PacketMeta lists shaped like decoded frames, with repeated
    keys and, mixed in, addresses and ports from their whole range."""
    n = draw(st.integers(1, 60))
    clock = draw(st.integers(0, 2_000_000_000)) * 1_000_000
    metas = []
    for _ in range(n):
        clock += draw(GAP)
        transport = draw(TRANSPORT)
        ip = transport is not Transport.NON_IP
        ported = transport in PORTED
        size = draw(SIZE)
        metas.append(
            PacketMeta(
                ts_us=clock,
                captured_len=min(size, 96),
                original_len=size,
                transport=transport,
                src_ip=draw(SRC_IP) if ip else 0,
                dst_ip=draw(DST_IP) if ip else 0,
                src_port=draw(SRC_PORT) if ported else 0,
                dst_port=draw(DST_PORT) if ported else 0,
                tcp_flags=draw(FLAGS),
                ttl=draw(TTL) if ip else 0,
                payload_len=draw(PAYLOAD_LEN),
                payload_prefix=draw(PREFIX),
            )
        )
    return metas


# 2.5e-6 rounds half-even to 2 us; 1e13 s is 10**19 us, past int64, so its bounds come from floats.
WINDOW_LENS = [1e-6, 2.5e-6, 0.0137, 0.1, 0.25, 1.0, 3600.0, 1e13]


def flow_pair(**second):
    """Two packets of one 0.1 s window, the second changed only by `second`."""
    first = make_meta(transport=Transport.TCP, src_ip=2**32 - 1, dst_ip=2**31, src_port=0x0400, dst_port=0x8000)
    return [replace(first, ts_us=1_000_000), replace(first, ts_us=1_000_001, **second)]


@settings(max_examples=300, deadline=None)
@given(metas=packet_streams(), window_len=st.sampled_from(WINDOW_LENS))
@example(metas=flow_pair(src_port=0x8400), window_len=0.1)  # the ports differ in their high bit only
@example(metas=flow_pair(transport=Transport.UDP), window_len=0.1)
@example(metas=flow_pair(src_port=0x0401, dst_port=0), window_len=0.1)  # dst_port's top bit moves to src_port's low bit
def test_features_equal_the_per_packet_loop(metas, window_len):
    packets = packets_from_metas(metas)
    windows = window_packets(packets, window_len)
    reference = oracle.windows(metas, window_len)
    assert windows.start_ts.tolist() == [start for start, _, _ in reference]
    assert windows.end_ts.tolist() == [end for _, end, _ in reference]
    assert_bitwise_equal(extract_features(packets, windows), oracle.features(metas, window_len))


def test_last_bit_cases_of_log2_and_squares():
    # Entropy terms need math.log2: np.log2(28 / 31) differs in the last bit,
    # and so does the entropy of counts 28, 1, 1, 1. Squared gap deviations
    # are one product each: with `x ** 2` (libm pow), these four stamps' f19
    # differs in the last bit.
    flows = [53] * 28 + [1, 2, 3]
    first = [
        make_meta(transport=Transport.UDP, src_ip=port, dst_port=port)
        for port in flows
    ]
    second = [replace(make_meta(), ts_us=1_731_009_969_000_000 + us) for us in (25_176, 301_464, 426_972, 778_531)]
    metas = [replace(m, ts_us=100_000_000 + i) for i, m in enumerate(first)] + second
    packets = packets_from_metas(metas)
    assert_bitwise_equal(extract_features(packets, window_packets(packets, 1.0)), oracle.features(metas, 1.0))


def test_hostile_microseconds_are_kept_as_read(tmp_path):
    # ts_usec >= 10**6 is not a valid pcap timestamp, but it is read as it is:
    # ts_us = ts_sec * 10**6 + ts_usec, and windows and gaps follow from that.
    frame = ethernet(ipv4(udp(b"q"), proto=17))
    records = [(5, 999_999, 60, frame), (5, 2_500_000, 60, frame), (8, 0, 60, frame)]
    write_records(tmp_path / "t.pcap", records)
    packets = read_pcap(tmp_path / "t.pcap")
    assert [m.ts_us for m in packets] == [5_999_999, 7_500_000, 8_000_000]
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
    metas = [oracle.decode_frame(data, s * 1_000_000 + u, orig) for s, u, orig, data in read_records(path)]
    assert list(packets) == metas
    assert len(metas) > 1000
    windows = window_packets(packets, 0.1)
    assert_bitwise_equal(extract_features(packets, windows), oracle.features(metas, 0.1))


# --- a capture cut at a window boundary -------------------------------------


def sliced(packets, start, stop):
    """Rows start:stop of every `Packets` column."""
    return Packets(*(getattr(packets, f.name)[start:stop] for f in fields(Packets)))


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    benign_rate=st.sampled_from([50, 200]),
    kind=st.sampled_from(["syn", "ack", "http", "udp"]),
    window_len=st.sampled_from([0.1, 0.25, 1.0]),
    data=st.data(),
)
def test_a_capture_cut_at_a_window_boundary_extracts_exactly(seed, benign_rate, kind, window_len, data):
    """Features need nothing from an earlier window: the halves of a capture cut
    at a window's first packet give the whole capture's rows, bit for bit."""
    with tempfile.TemporaryDirectory() as tmp:
        cfg = parse_scenario(f"duration 2\nseed {seed}\nbenign_rate {benign_rate}\nepisode {kind} 0.5 1.5 400 5\n")
        run_scenario(cfg, Path(tmp) / "c.pcap", Path(tmp) / "c.truth")
        packets = read_pcap(Path(tmp) / "c.pcap")
    windows = window_packets(packets, window_len)
    whole = extract_features(packets, windows)

    def halves(cut):
        """Each half's feature rows, and the window starts of both halves."""
        parts = (sliced(packets, 0, cut), sliced(packets, cut, None))
        part_windows = [window_packets(part, window_len) for part in parts]
        rows = [extract_features(part, w) for part, w in zip(parts, part_windows)]
        return rows, np.concatenate([w.start_ts for w in part_windows])

    w = data.draw(st.integers(1, len(windows) - 1), label="boundary window")
    (head, tail), starts = halves(windows.bounds[w])
    assert_bitwise_equal(np.vstack([head, tail]), whole)
    assert np.array_equal(starts, windows.start_ts)

    # A cut after a window's first packet splits that window into two rows.
    sizes = np.diff(windows.bounds)
    w = data.draw(st.sampled_from(np.flatnonzero(sizes >= 2).tolist()), label="split window")
    cut = windows.bounds[w] + data.draw(st.integers(1, sizes[w] - 1), label="packets before the cut")
    (head, tail), starts = halves(cut)
    assert len(head) + len(tail) == len(whole) + 1
    assert_bitwise_equal(head[:w], whole[:w])
    assert_bitwise_equal(tail[1:], whole[w + 1 :])
    assert np.array_equal(np.delete(starts, w), windows.start_ts)


# --- metamorphic relations ----------------------------------------------------

MAX_STAMP_US = 2**32 * 1_000_000  # a pcap record's seconds field is 32 bits


def moved(meta, us):
    """`meta` with its stamp moved by `us` microseconds."""
    return replace(meta, ts_us=meta.ts_us + us)


@settings(max_examples=200, deadline=None)
@given(metas=packet_streams(), window_len=st.sampled_from(WINDOW_LENS), data=st.data())
def test_moving_a_capture_by_whole_windows_keeps_features_and_labels(metas, window_len, data):
    """A capture's date changes nothing: moved by any whole number of windows
    that 32-bit seconds allow, with truth intervals on window boundaries moved
    alike, it gives the same feature bits and labels."""
    len_us = round(window_len * 1e6)
    first, last = metas[0].ts_us // len_us, metas[-1].ts_us // len_us
    moved_by = data.draw(st.integers(-first, (MAX_STAMP_US - 1) // len_us - last), label="windows moved")
    edges = sorted(data.draw(st.sets(st.integers(first, last + 1), min_size=2, max_size=6), label="truth edges"))
    classes = data.draw(st.lists(st.sampled_from(list(TrafficClass)), min_size=len(edges) - 1,
                                 max_size=len(edges) - 1), label="truth classes")

    def features_and_labels(slots):
        truth = [
            (((a + slots) * len_us) / 1e6, ((b + slots) * len_us) / 1e6, cls)
            for a, b, cls in zip(edges, edges[1:], classes)
        ]
        packets = packets_from_metas([moved(m, slots * len_us) for m in metas])
        windows = window_packets(packets, window_len)
        return extract_features(packets, windows), label_windows(windows, truth)

    features, labels = features_and_labels(0)
    moved_features, moved_labels = features_and_labels(moved_by)
    assert_bitwise_equal(moved_features, features)
    assert np.array_equal(moved_labels, labels)


@settings(max_examples=200, deadline=None)
@given(metas=packet_streams(), window_len=st.sampled_from(WINDOW_LENS), data=st.data())
def test_renaming_addresses_and_ports_keeps_features(metas, window_len, data):
    """Renaming IPv4 addresses by a bijection, and ports other than the HTTP
    ports by one that fixes those, gives the same feature bits."""
    ip = [m for m in metas if m.transport is not Transport.NON_IP]
    ported = [m for m in ip if m.transport in PORTED]
    addresses = sorted({m.src_ip for m in ip} | {m.dst_ip for m in ip})
    ports = sorted(({m.src_port for m in ported} | {m.dst_port for m in ported}) - set(HTTP_PORTS))
    new_addresses = data.draw(st.lists(U32, min_size=len(addresses), max_size=len(addresses), unique=True))
    new_ports = data.draw(
        st.lists(st.integers(0, 65535).filter(lambda p: p not in HTTP_PORTS), min_size=len(ports),
                 max_size=len(ports), unique=True)
    )
    address = dict(zip(addresses, new_addresses))
    port = dict(zip(ports, new_ports)) | {p: p for p in HTTP_PORTS}

    def renamed(m):
        if m.transport is Transport.NON_IP:
            return m
        m = replace(m, src_ip=address[m.src_ip], dst_ip=address[m.dst_ip])
        return replace(m, src_port=port[m.src_port], dst_port=port[m.dst_port]) if m.transport in PORTED else m

    packets = packets_from_metas(metas)
    renamed_packets = packets_from_metas([renamed(m) for m in metas])
    assert_bitwise_equal(
        extract_features(renamed_packets, window_packets(renamed_packets, window_len)),
        extract_features(packets, window_packets(packets, window_len)),
    )
