"""Classic pcap reading/writing and Ethernet/IPv4/TCP/UDP header decoding.

Only the classic tcpdump format is handled (24-byte global header, 16-byte
record headers, linktype 1 = Ethernet). The writer always emits little-endian
microsecond files; the reader accepts either byte order. Decoding degrades
instead of failing: whatever cannot be parsed is reported at the most
specific layer that was reached.

There is one decoder, `_decode`, which fills `Packets` columns for all
records at once: each header field is read for every record with one array
gather, masked by the tests that record's captured bytes pass. `read_pcap`
walks a file's records and decodes them all; `decode_frame` is its one-row
call, and its `PacketMeta` is one row of `Packets`, field for field.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Iterator

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import FloodgateError
from .ioutil import atomic_write

MAGIC_USEC = 0xA1B2C3D4
MAGIC_USEC_SWAPPED = 0xD4C3B2A1
# Other capture formats, by their first four bytes, named when a file is rejected.
_OTHER_FORMATS = {0x0A0D0D0A: "pcapng", 0xA1B23C4D: "nanosecond pcap", 0x4D3CB2A1: "nanosecond pcap"}
SNAPLEN = 65535
LINKTYPE_ETHERNET = 1
MAX_FRAME_LEN = 65535
PAYLOAD_PREFIX_LEN = 8

ETHERTYPE_IPV4 = 0x0800
PROTO_TCP = 6
PROTO_UDP = 17

_GLOBAL_LE = struct.Struct("<IHHiIII")
_RECORD_LE = np.dtype([("ts_sec", "<u4"), ("ts_usec", "<u4"), ("incl_len", "<u4"), ("orig_len", "<u4")])


class Transport(Enum):
    NON_IP = "non_ip"
    OTHER_IP = "other_ip"
    TCP = "tcp"
    UDP = "udp"


# The code of each transport in the `Packets.transport` column.
NON_IP, OTHER_IP, TCP, UDP = range(len(Transport))
_TRANSPORTS = tuple(Transport)


@dataclass(frozen=True)
class Frame:
    """A raw captured frame: timestamp plus link-layer bytes."""

    ts_sec: int
    ts_usec: int
    data: bytes


@dataclass
class PacketMeta:
    """One row of `Packets`: the decoded fields of one record, encoded as the columns are.

    The IPv4 fields (`src_ip`, `dst_ip`, `ttl`) are 0 where `transport` is
    NON_IP, and the ports are 0 where it is not TCP or UDP. `tcp_flags` holds
    the low six bits of the TCP flags octet (FIN SYN RST PSH ACK URG), and
    `payload_prefix` at most PAYLOAD_PREFIX_LEN leading payload bytes.
    """

    ts_sec: int
    ts_usec: int
    captured_len: int
    original_len: int
    transport: Transport = Transport.NON_IP
    src_ip: int = 0
    dst_ip: int = 0
    src_port: int = 0
    dst_port: int = 0
    tcp_flags: int = 0
    ttl: int = 0
    payload_len: int = 0
    payload_prefix: bytes = b""

    @property
    def timestamp(self) -> float:
        return self.ts_sec + self.ts_usec / 1e6


@dataclass(frozen=True, eq=False)
class Packets:
    """Decoded packet metadata of a whole capture as columns, one row per record.

    Row i holds the decoded fields of record i, encoded as in PacketMeta:
    `transport` holds the codes NON_IP, OTHER_IP, TCP and UDP, and
    `payload_prefix` the prefix bytes zero-padded to PAYLOAD_PREFIX_LEN, with
    their count in `prefix_len`. Indexing and iteration yield the rows as
    PacketMeta records.
    """

    ts_sec: np.ndarray
    ts_usec: np.ndarray
    captured_len: np.ndarray
    original_len: np.ndarray
    transport: np.ndarray
    src_ip: np.ndarray
    dst_ip: np.ndarray
    src_port: np.ndarray
    dst_port: np.ndarray
    tcp_flags: np.ndarray
    ttl: np.ndarray
    payload_len: np.ndarray
    prefix_len: np.ndarray
    payload_prefix: np.ndarray  # (n, PAYLOAD_PREFIX_LEN) uint8; every other column is int64

    @classmethod
    def empty(cls, n: int) -> "Packets":
        """`n` rows of non-IP packets with every field zero."""
        return cls(
            *(np.zeros(n, dtype=np.int64) for _ in _INT_COLUMNS),
            np.zeros((n, PAYLOAD_PREFIX_LEN), dtype=np.uint8),
        )

    def __len__(self) -> int:
        return len(self.ts_sec)

    def __getitem__(self, i: int) -> PacketMeta:
        return _meta(*(int(getattr(self, name)[i]) for name in _INT_COLUMNS), self.payload_prefix[i].tobytes())

    def __iter__(self) -> Iterator[PacketMeta]:
        columns = [getattr(self, name).tolist() for name in _INT_COLUMNS]
        return (_meta(*row) for row in zip(*columns, map(bytes, self.payload_prefix)))


_INT_COLUMNS = tuple(Packets.__dataclass_fields__)[:-1]


def _meta(ts_sec, ts_usec, cap, orig, code, src, dst, sport, dport, flags, ttl, plen, prefix_len, prefix):
    """One row of Packets, its values in column order, as a PacketMeta."""
    return PacketMeta(
        ts_sec, ts_usec, cap, orig, _TRANSPORTS[code], src, dst, sport, dport, flags, ttl, plen, prefix[:prefix_len]
    )


def _walk(path) -> tuple[bytes, str, list[int]]:
    """Read a whole pcap file and walk its record headers once.

    Returns the file's bytes, its struct byte-order prefix, and the offset of
    each record's frame data, which follows its 16-byte record header.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    if len(data) < 4:
        raise FloodgateError(f"{path}: too short to be a pcap file")
    magic = struct.unpack_from("<I", data)[0]
    if magic == MAGIC_USEC:
        endian = "<"
    elif magic == MAGIC_USEC_SWAPPED:
        endian = ">"
    elif magic in _OTHER_FORMATS:
        raise FloodgateError(f"{path}: {_OTHER_FORMATS[magic]} is not supported; convert with editcap -F pcap")
    else:
        raise FloodgateError(f"{path}: unknown magic 0x{magic:08x}")
    if len(data) < 24:
        raise FloodgateError(f"{path}: incomplete global header")
    linktype = struct.unpack_from(endian + "IHHiIII", data)[6]
    if linktype != LINKTYPE_ETHERNET:
        raise FloodgateError(f"{path}: linktype {linktype} (only Ethernet is supported)")

    incl_len = struct.Struct(endian + "I").unpack_from
    starts: list[int] = []
    append = starts.append
    pos, last = 24, len(data) - 16
    while pos <= last:
        pos += 16
        append(pos)
        pos += incl_len(data, pos - 8)[0]
    if pos > len(data):
        claimed = pos - starts[-1]
        raise FloodgateError(f"{path}: record claims {claimed} bytes, only {len(data) - starts[-1]} remain")
    if pos < len(data):
        raise FloodgateError(f"{path}: incomplete record header")
    return data, endian, starts


def _field(buf: np.ndarray, at: np.ndarray, dtype: str) -> np.ndarray:
    """The field of `dtype` at each byte offset in `at`, as int64.

    Callers pass only offsets whose field lies inside its record's captured bytes.
    """
    dtype = np.dtype(dtype)
    return sliding_window_view(buf, dtype.itemsize)[at].view(dtype)[:, 0].astype(np.int64)


def _set_prefix(out: Packets, buf: np.ndarray, rows: np.ndarray, at: np.ndarray, count: np.ndarray) -> None:
    """Copy `count` (at most PAYLOAD_PREFIX_LEN) bytes at `at` into each row's prefix."""
    out.prefix_len[rows] = count
    for j in range(PAYLOAD_PREFIX_LEN):
        has = count > j
        out.payload_prefix[rows[has], j] = buf[at[has] + j]


def read_pcap(path) -> Packets:
    """Decode every record of a pcap file into packet metadata columns, in file order."""
    data, endian, offsets = _walk(path)
    offsets = np.array(offsets, dtype=np.int64)  # and let the list go
    buf = np.frombuffer(data, dtype=np.uint8)
    header = sliding_window_view(buf, 16)[offsets - 16].view(endian + "u4")
    out = Packets.empty(len(offsets))
    out.ts_sec[:], out.ts_usec[:], out.captured_len[:], out.original_len[:] = header.T
    _decode(buf, offsets, out)
    return out


def decode_frame(data: bytes, ts_sec: int = 0, ts_usec: int = 0, original_len: int | None = None) -> PacketMeta:
    """Decode one Ethernet frame as `read_pcap` decodes a record; never raises."""
    out = Packets.empty(1)
    out.ts_sec[0], out.ts_usec[0], out.captured_len[0] = ts_sec, ts_usec, len(data)
    out.original_len[0] = len(data) if original_len is None else original_len
    # Four zero bytes give every field gather a window to view; the captured length bounds the reads.
    _decode(np.frombuffer(data + bytes(4), dtype=np.uint8), np.zeros(1, dtype=np.int64), out)
    return out[0]


def _decode(buf: np.ndarray, offsets: np.ndarray, out: Packets) -> None:
    """Fill the header columns of `out` from the frame at each offset into `buf`.

    Each step keeps the rows whose captured bytes (`out.captured_len`) hold
    the next header; the other rows keep the layer they reached.
    """
    cap = out.captured_len

    # Ethernet carrying IPv4, version 4, 20 <= IHL <= captured IP bytes.
    rows = np.flatnonzero(cap >= 14 + 20)
    rows = rows[_field(buf, offsets[rows] + 12, ">u2") == ETHERTYPE_IPV4]
    ip = offsets[rows] + 14
    ihl = (buf[ip] & 0x0F).astype(np.int64) * 4
    ok = (buf[ip] >> 4 == 4) & (ihl >= 20) & (cap[rows] - 14 >= ihl)
    rows, ip, ihl = rows[ok], ip[ok], ihl[ok]
    total_len = _field(buf, ip + 2, ">u2")
    out.transport[rows] = OTHER_IP
    out.ttl[rows] = buf[ip + 8]
    out.src_ip[rows] = _field(buf, ip + 12, ">u4")
    out.dst_ip[rows] = _field(buf, ip + 16, ">u4")
    out.payload_len[rows] = np.maximum(total_len - ihl, 0)

    # Transport headers, in first fragments only, within a body clipped to
    # min(captured, max(IHL, total length)).
    first = (_field(buf, ip + 6, ">u2") & 0x1FFF) == 0
    proto = buf[ip + 9]
    body = ip + ihl
    body_len = np.minimum(cap[rows] - 14, np.maximum(ihl, total_len)) - ihl

    tcp = first & (proto == PROTO_TCP) & (body_len >= 14)
    t_rows, t_body, t_len, t_rest = rows[tcp], body[tcp], body_len[tcp], (total_len - ihl)[tcp]
    data_off = (buf[t_body + 12] >> 4).astype(np.int64) * 4
    ok = data_off >= 20
    t_rows, t_body, t_len, t_rest, data_off = t_rows[ok], t_body[ok], t_len[ok], t_rest[ok], data_off[ok]
    out.transport[t_rows] = TCP
    out.src_port[t_rows] = _field(buf, t_body, ">u2")
    out.dst_port[t_rows] = _field(buf, t_body + 2, ">u2")
    out.tcp_flags[t_rows] = buf[t_body + 13] & 0x3F
    out.payload_len[t_rows] = np.maximum(t_rest - data_off, 0)
    _set_prefix(out, buf, t_rows, t_body + data_off, np.clip(t_len - data_off, 0, PAYLOAD_PREFIX_LEN))

    udp = first & (proto == PROTO_UDP) & (body_len >= 8)
    u_rows, u_body, u_len = rows[udp], body[udp], body_len[udp]
    out.transport[u_rows] = UDP
    out.src_port[u_rows] = _field(buf, u_body, ">u2")
    out.dst_port[u_rows] = _field(buf, u_body + 2, ">u2")
    u_payload = np.maximum(_field(buf, u_body + 4, ">u2") - 8, 0)
    out.payload_len[u_rows] = u_payload
    _set_prefix(out, buf, u_rows, u_body + 8, np.minimum(np.minimum(u_len - 8, u_payload), PAYLOAD_PREFIX_LEN))


def read_frames(path) -> list[Frame]:
    """Read raw frames plus timestamps; the exact inverse of write_pcap."""
    data, endian, offsets = _walk(path)
    header = struct.Struct(endian + "III").unpack_from
    frames: list[Frame] = []
    append = frames.append
    for start in offsets:
        ts_sec, ts_usec, incl_len = header(data, start - 16)
        append(Frame(ts_sec, ts_usec, data[start : start + incl_len]))
    return frames


def record_headers(ts_sec, ts_usec, frame_len) -> np.ndarray:
    """The 16-byte little-endian record header of each frame, as an (n, 16) uint8 array.

    Raises ValueError for a frame longer than MAX_FRAME_LEN or a timestamp
    outside the format's unsigned 32 bits.
    """
    ts_sec, ts_usec, frame_len = (np.asarray(a, dtype=np.int64) for a in (ts_sec, ts_usec, frame_len))
    if len(frame_len) and frame_len.max() > MAX_FRAME_LEN:
        raise ValueError(f"frame of {frame_len.max()} bytes exceeds {MAX_FRAME_LEN}")
    for stamp in (ts_sec, ts_usec):
        if len(stamp) and not 0 <= stamp.min() <= stamp.max() <= 0xFFFFFFFF:
            raise ValueError("timestamp outside the 32-bit range of a pcap record")
    out = np.empty(len(frame_len), _RECORD_LE)
    out["ts_sec"], out["ts_usec"], out["incl_len"], out["orig_len"] = ts_sec, ts_usec, frame_len, frame_len
    return out.view(np.uint8).reshape(-1, 16)


def write_records(path, chunks: Iterable) -> None:
    """Write a little-endian microsecond pcap file: the global header, then
    each chunk of records (`record_headers` rows, each followed by its frame)."""
    with atomic_write(path, "wb") as fh:
        fh.write(_GLOBAL_LE.pack(MAGIC_USEC, 2, 4, 0, 0, SNAPLEN, LINKTYPE_ETHERNET))
        for chunk in chunks:
            fh.write(chunk)


def write_pcap(path, frames: Iterable[Frame]) -> None:
    """Write frames as a little-endian microsecond pcap file."""
    frames = list(frames)
    headers = record_headers(
        [f.ts_sec for f in frames], [f.ts_usec for f in frames], [len(f.data) for f in frames]
    )
    write_records(path, (header.tobytes() + frame.data for header, frame in zip(headers, frames)))
