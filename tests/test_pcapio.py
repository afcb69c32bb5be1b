import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from floodgate.cli import main
from floodgate.errors import BadMagic, FrameTooLarge, TruncatedRecord, UnsupportedLinkType
from floodgate.pcapio import (
    Frame,
    Transport,
    decode_frame,
    read_frames,
    read_pcap,
    write_pcap,
)

from conftest import ethernet, ipv4, tcp, udp


def random_frames(rng, count, max_len=400):
    frames = []
    clock_us = 1_700_000_000 * 1_000_000
    for _ in range(count):
        clock_us += int(rng.integers(0, 2_000_000))
        data = rng.integers(0, 256, size=int(rng.integers(0, max_len))).astype(np.uint8).tobytes()
        frames.append(Frame(clock_us // 1_000_000, clock_us % 1_000_000, data))
    return frames


class TestRoundTrip:
    def test_frames_and_timestamps_identity(self, tmp_path, rng):
        frames = random_frames(rng, 50)
        path = tmp_path / "t.pcap"
        write_pcap(path, frames)
        assert read_frames(path) == frames

    def test_read_pcap_preserves_timestamps(self, tmp_path, rng):
        frames = random_frames(rng, 50)
        path = tmp_path / "t.pcap"
        write_pcap(path, frames)
        metas = read_pcap(path)
        assert [(m.ts_sec, m.ts_usec) for m in metas] == [(f.ts_sec, f.ts_usec) for f in frames]
        stamps = [m.timestamp for m in metas]
        assert stamps == sorted(stamps)

    def test_empty_file_is_just_the_global_header(self, tmp_path):
        path = tmp_path / "empty.pcap"
        write_pcap(path, [])
        assert path.stat().st_size == 24
        assert read_frames(path) == []

    def test_large_random_round_trip(self, tmp_path, rng):
        frames = random_frames(rng, 1000)
        path = tmp_path / "big.pcap"
        write_pcap(path, frames)
        assert read_frames(path) == frames

    def test_frame_too_large(self, tmp_path):
        with pytest.raises(FrameTooLarge):
            write_pcap(tmp_path / "huge.pcap", [Frame(0, 0, b"\x00" * 70000)])
        assert not (tmp_path / "huge.pcap").exists()

    @pytest.mark.parametrize("ts_sec, ts_usec", [(2**32, 0), (-1, 0), (0, 2**32)])
    def test_timestamp_outside_32_bits(self, tmp_path, ts_sec, ts_usec):
        with pytest.raises(ValueError, match="32-bit range"):
            write_pcap(tmp_path / "late.pcap", [Frame(0, 0, b"ok"), Frame(ts_sec, ts_usec, b"late")])
        assert not (tmp_path / "late.pcap").exists()


class TestFileErrors:
    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.pcap"
        path.write_bytes(struct.pack("<I", 0xDEADBEEF) + b"\x00" * 20)
        with pytest.raises(BadMagic, match="unknown magic 0xdeadbeef"):
            read_pcap(path)

    def test_pcapng_named(self, tmp_path):
        # Section header block: type 0x0A0D0D0A, then the byte-order magic.
        path = tmp_path / "capture.pcapng"
        path.write_bytes(struct.pack("<III", 0x0A0D0D0A, 28, 0x1A2B3C4D) + b"\x00" * 16)
        with pytest.raises(BadMagic, match="pcapng is not supported; convert with editcap -F pcap"):
            read_pcap(path)
        assert main(["extract", "--pcap", str(path), "--out", str(tmp_path / "f.csv")]) == 2

    @pytest.mark.parametrize("endian", ["<", ">"])
    def test_nanosecond_pcap_named(self, tmp_path, endian):
        path = tmp_path / "nsec.pcap"
        path.write_bytes(struct.pack(endian + "IHHiIII", 0xA1B23C4D, 2, 4, 0, 0, 65535, 1))
        with pytest.raises(BadMagic, match="nanosecond pcap is not supported"):
            read_frames(path)
        assert main(["extract", "--pcap", str(path), "--out", str(tmp_path / "f.csv")]) == 2

    def test_big_endian_accepted(self, tmp_path):
        path = tmp_path / "be.pcap"
        header = struct.pack(">IHHiIII", 0xA1B2C3D4, 2, 4, 0, 0, 65535, 1)
        record = struct.pack(">IIII", 12, 34, 4, 4) + b"abcd"
        path.write_bytes(header + record)
        frames = read_frames(path)
        assert frames == [Frame(12, 34, b"abcd")]

    def test_truncated_record_header(self, tmp_path, rng):
        path = tmp_path / "t.pcap"
        write_pcap(path, random_frames(rng, 3))
        data = path.read_bytes()
        path.write_bytes(data[:-3])
        with pytest.raises(TruncatedRecord):
            read_frames(path)

    def test_record_claims_more_than_remains(self, tmp_path):
        path = tmp_path / "t.pcap"
        header = struct.pack("<IHHiIII", 0xA1B2C3D4, 2, 4, 0, 0, 65535, 1)
        record = struct.pack("<IIII", 0, 0, 100, 100) + b"only-ten-b"
        path.write_bytes(header + record)
        with pytest.raises(TruncatedRecord):
            read_frames(path)

    def test_unsupported_linktype(self, tmp_path):
        path = tmp_path / "t.pcap"
        path.write_bytes(struct.pack("<IHHiIII", 0xA1B2C3D4, 2, 4, 0, 0, 65535, 101))
        with pytest.raises(UnsupportedLinkType):
            read_frames(path)


class TestDecode:
    """`decode_frame` is a one-row call of `read_pcap`'s decoder, so these cases test its columnar rules."""

    def test_minimal_tcp_syn(self):
        frame = ethernet(ipv4(tcp(flags=0x02, sport=40000, dport=80), proto=6, ttl=64))
        meta = decode_frame(frame, 5, 123456)
        assert meta.transport is Transport.TCP
        assert meta.tcp_flags == 0x02
        assert meta.payload_len == 0
        assert meta.src_port == 40000 and meta.dst_port == 80
        assert meta.ttl == 64
        assert (meta.ts_sec, meta.ts_usec) == (5, 123456)

    def test_syn_ack_flag_bits(self):
        meta = decode_frame(ethernet(ipv4(tcp(flags=0x12), proto=6)))
        assert meta.tcp_flags == 0x12

    def test_all_flag_bits(self):
        assert decode_frame(ethernet(ipv4(tcp(flags=0x3F), proto=6))).tcp_flags == 0x3F
        # The two bits above URG (ECE, CWR) are not kept.
        assert decode_frame(ethernet(ipv4(tcp(flags=0xFF), proto=6))).tcp_flags == 0x3F

    def test_udp_payload_from_length_field(self):
        # UDP length 108 means 100 payload bytes regardless of capture size.
        frame = ethernet(ipv4(udp(payload=b"\x00" * 100, length=108), proto=17))
        meta = decode_frame(frame)
        assert meta.transport is Transport.UDP
        assert meta.payload_len == 100

    def test_tcp_payload_len_formula(self):
        for ihl_words in (5, 6, 8):
            for offset_words in (5, 6, 7):
                for payload_size in (0, 1, 37):
                    seg = tcp(payload=b"p" * payload_size, offset_words=offset_words)
                    frame = ethernet(ipv4(seg, proto=6, ihl_words=ihl_words))
                    meta = decode_frame(frame)
                    total = ihl_words * 4 + len(seg)
                    expected = max(0, total - ihl_words * 4 - offset_words * 4)
                    assert meta.payload_len == expected
                    assert meta.transport is Transport.TCP

    def test_payload_prefix_capped_at_eight_bytes(self):
        frame = ethernet(ipv4(tcp(payload=b"GET /index.html HTTP/1.1", flags=0x18), proto=6))
        meta = decode_frame(frame)
        assert meta.payload_prefix == b"GET /ind"

    def test_arp_is_non_ip(self):
        meta = decode_frame(ethernet(b"\x00" * 28, ethertype=0x0806))
        assert meta.transport is Transport.NON_IP
        assert meta.src_ip == 0 and meta.dst_ip == 0 and meta.ttl == 0
        assert meta.tcp_flags == 0 == decode_frame(b"").tcp_flags

    def test_non_first_fragment_degrades_to_other_ip(self):
        frame = ethernet(ipv4(tcp(), proto=6, frag_offset=5))
        meta = decode_frame(frame)
        assert meta.transport is Transport.OTHER_IP
        assert meta.src_port == 0 and meta.dst_port == 0 and meta.tcp_flags == 0

    def test_unknown_ip_protocol(self):
        frame = ethernet(ipv4(b"\x00" * 8, proto=47))
        meta = decode_frame(frame)
        assert meta.transport is Transport.OTHER_IP
        assert meta.src_ip == 0x0A000001 and meta.ttl == 64

    def test_truncated_ip_header(self):
        frame = ethernet(b"\x45\x00\x00")
        meta = decode_frame(frame)
        assert meta.transport is Transport.NON_IP
        assert meta.src_ip == 0

    def test_short_frame(self):
        meta = decode_frame(b"\x01\x02\x03")
        assert meta.transport is Transport.NON_IP
        assert meta.captured_len == 3

    def test_addresses_decoded(self):
        frame = ethernet(ipv4(udp(), proto=17, src="192.168.1.10", dst="10.0.0.10"))
        meta = decode_frame(frame)
        assert meta.src_ip == (192 << 24) | (168 << 16) | (1 << 8) | 10
        assert meta.dst_ip == (10 << 24) | 10

    @settings(max_examples=200, deadline=None)
    @given(data=st.binary(max_size=120))
    def test_decode_never_raises(self, data):
        meta = decode_frame(data)
        assert meta.captured_len == len(data)
        assert len(meta.payload_prefix) <= 8
        if meta.transport is not Transport.TCP:
            assert meta.tcp_flags == 0
