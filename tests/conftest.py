"""Shared test helpers: byte-level frame and pcap record encoders, PacketMeta factories.

The frame encoders here are written field-by-field from the wire layouts so
they stay independent of the package's own builders.
"""

import struct

import numpy as np
import pytest

from floodgate.pcapio import PacketMeta, Transport


def ethernet(payload: bytes, ethertype: int = 0x0800) -> bytes:
    return b"\xaa" * 6 + b"\xbb" * 6 + ethertype.to_bytes(2, "big") + payload


def ipv4(
    payload: bytes,
    proto: int,
    src: str = "10.0.0.1",
    dst: str = "10.0.0.2",
    ttl: int = 64,
    ihl_words: int = 5,
    total_len: int | None = None,
    frag_offset: int = 0,
) -> bytes:
    options = b"\x00" * (ihl_words * 4 - 20)
    if total_len is None:
        total_len = ihl_words * 4 + len(payload)
    head = bytes(
        [
            (4 << 4) | ihl_words,
            0,
        ]
    )
    head += total_len.to_bytes(2, "big")
    head += (0).to_bytes(2, "big")  # identification
    head += frag_offset.to_bytes(2, "big")  # flags + fragment offset
    head += bytes([ttl, proto])
    head += (0).to_bytes(2, "big")  # checksum (decoder ignores it)
    head += bytes(int(o) for o in src.split("."))
    head += bytes(int(o) for o in dst.split("."))
    return head + options + payload


def tcp(
    payload: bytes = b"",
    sport: int = 1234,
    dport: int = 80,
    flags: int = 0x02,
    offset_words: int = 5,
) -> bytes:
    options = b"\x00" * (offset_words * 4 - 20)
    head = struct.pack("!HHII", sport, dport, 0, 0)
    head += bytes([offset_words << 4, flags])
    head += struct.pack("!HHH", 65535, 0, 0)
    return head + options + payload


def udp(payload: bytes = b"", sport: int = 5000, dport: int = 53, length: int | None = None) -> bytes:
    if length is None:
        length = 8 + len(payload)
    return struct.pack("!HHHH", sport, dport, length, 0) + payload


def write_records(path, records, endian="<"):
    """A pcap file whose records are (ts_sec, ts_usec, orig_len, data), incl_len = len(data)."""
    with open(path, "wb") as fh:
        fh.write(struct.pack(endian + "IHHiIII", 0xA1B2C3D4, 2, 4, 0, 0, 65535, 1))
        for ts_sec, ts_usec, orig_len, data in records:
            fh.write(struct.pack(endian + "IIII", ts_sec, ts_usec, len(data), orig_len))
            fh.write(data)


def read_records(path):
    """(ts_sec, ts_usec, orig_len, data) of each record of a little-endian pcap, read with struct."""
    out = []
    with open(path, "rb") as fh:
        fh.read(24)
        while head := fh.read(16):
            ts_sec, ts_usec, incl_len, orig_len = struct.unpack("<IIII", head)
            out.append((ts_sec, ts_usec, orig_len, fh.read(incl_len)))
    return out


def make_meta(
    ts: float = 0.0,
    size: int = 60,
    transport: Transport = Transport.TCP,
    src_ip: int = 0x0A000001,
    dst_ip: int = 0x0A000002,
    src_port: int = 1234,
    dst_port: int = 80,
    flags: int = 0,
    ttl: int = 64,
    payload_len: int = 0,
    payload_prefix: bytes = b"",
) -> PacketMeta:
    sec = int(ts)
    usec = round((ts - sec) * 1e6)
    return PacketMeta(
        ts_sec=sec,
        ts_usec=usec,
        captured_len=size,
        original_len=size,
        transport=transport,
        src_ip=src_ip,
        dst_ip=dst_ip,
        src_port=src_port,
        dst_port=dst_port,
        tcp_flags=flags,
        ttl=ttl,
        payload_len=payload_len,
        payload_prefix=payload_prefix,
    )


@pytest.fixture
def rng():
    return np.random.default_rng(20240901)
