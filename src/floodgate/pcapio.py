"""Classic pcap reading/writing and Ethernet/IPv4/TCP/UDP header decoding.

Only the classic tcpdump format is handled (24-byte global header, 16-byte
record headers, linktype 1 = Ethernet). The writer always emits little-endian
microsecond files; the reader accepts either byte order. Decoding degrades
instead of failing: whatever cannot be parsed is reported at the most
specific layer that was reached.

There is one decoder, `_decode`, which fills `Packets` columns for all
records at once: each header (Ethernet with the fixed IPv4 header, then TCP
or UDP) is read for every record with one array gather, masked by the tests
that record's captured bytes pass. A gather indexes a stride-1 view of the
file's bytes whose item i is the header's bytes at offset i, so it copies
only the headers it reads; a structured dtype names their fields, and synth
writes frames through the same dtypes and view (`byte_items`). `read_pcap`
reads `RECORD_HEADER`, and `record_headers` writes it over its caller's rows.
`read_pcap` walks a file's records and decodes them all; `decode_frame` is
its one-row call, and its `PacketMeta` is one row of `Packets`, field for
field. A decoded packet's time is one integer, `ts_us`: its record header's
ts_sec * 10**6 + ts_usec as read, even a ts_usec of 10**6 or more; a capture
whose stamps go backwards is rejected, with the file and the packet named.
Of the payload it keeps one word, `payload_prefix`, which the HTTP-method
test reads: the first 4 bytes as one big-endian integer, or 0 where fewer
were captured.
"""

from __future__ import annotations

import struct
from array import array
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Iterator

import numpy as np

from .errors import FloodgateError
from .ioutil import atomic_write

MAGIC_USEC = 0xA1B2C3D4
MAGIC_USEC_SWAPPED = 0xD4C3B2A1
# Other capture formats, by their first four bytes, named when a file is rejected.
_OTHER_FORMATS = {0x0A0D0D0A: "pcapng", 0xA1B23C4D: "nanosecond pcap", 0x4D3CB2A1: "nanosecond pcap"}
SNAPLEN = 65535
LINKTYPE_ETHERNET = 1
PAYLOAD_PREFIX_LEN = 4

ETHERTYPE_IPV4 = 0x0800
PROTO_TCP = 6
PROTO_UDP = 17

_GLOBAL = "IHHiIII"  # the global header, read and written: magic, major, minor, zone, sigfigs, snaplen, linktype
_GLOBAL_LEN = struct.calcsize("<" + _GLOBAL)
# The one frame header layout, read by `_decode` and written by synth, at byte
# offsets from the frame's start (Ethernet, fixed IPv4) or the IP body's (TCP,
# UDP). TCP_HEADER stops before the window: its size is the decoder's TCP bound.
ETHERNET_LEN = 14  # the Ethernet header's bytes, where IPv4 starts
ETHERNET_IPV4 = np.dtype({
    "names": ["dst_mac", "src_mac", "ethertype", "version_ihl", "total_len", "fragment", "ttl", "proto", "checksum",
              "src_ip", "dst_ip"],
    "formats": [("u1", 6), ("u1", 6), ">u2", "u1", ">u2", ">u2", "u1", "u1", ">u2", ">u4", ">u4"],
    "offsets": [0, 6, 12, 14, 16, 20, 22, 23, 24, 26, 30],
    "itemsize": ETHERNET_LEN + 20,
})
TCP_HEADER = np.dtype({
    "names": ["src_port", "dst_port", "data_offset", "flags"],
    "formats": [">u2", ">u2", "u1", "u1"],
    "offsets": [0, 2, 12, 13],
    "itemsize": 14,
})
UDP_HEADER = np.dtype([("src_port", ">u2"), ("dst_port", ">u2"), ("length", ">u2"), ("checksum", ">u2")])
RECORD_HEADER = np.dtype([("ts_sec", "<u4"), ("ts_usec", "<u4"), ("incl_len", "<u4"), ("orig_len", "<u4")])


class Transport(Enum):
    NON_IP = "non_ip"
    OTHER_IP = "other_ip"
    TCP = "tcp"
    UDP = "udp"


# Bits of the `tcp_flags` column (the low six bits of the TCP flags octet).
FLAG_FIN, FLAG_SYN, FLAG_RST, FLAG_PSH, FLAG_ACK = 0x01, 0x02, 0x04, 0x08, 0x10

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
    NON_IP, and the ports are 0 where it is not TCP or UDP. `ts_us` is the
    record header's ts_sec * 10**6 + ts_usec as read, even where ts_usec is
    10**6 or more. `tcp_flags` holds the low six bits of the TCP flags octet
    (FIN SYN RST PSH ACK URG). `payload_prefix` is the first
    PAYLOAD_PREFIX_LEN (4) payload bytes as one big-endian integer where all
    4 were captured inside the IP length (and, for UDP, the UDP length), and
    0 otherwise.
    """

    ts_us: int
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
    payload_prefix: int = 0


@dataclass(frozen=True, eq=False)
class Packets:
    """Decoded packet metadata of a whole capture as columns, one row per record.

    Every column is one int64 per record. Row i holds the decoded fields of
    record i, encoded as PacketMeta states, except that `transport` holds the
    codes NON_IP, OTHER_IP, TCP and UDP. Iteration yields the rows as
    PacketMeta records.
    """

    ts_us: np.ndarray
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
    payload_prefix: np.ndarray

    @classmethod
    def empty(cls, n: int) -> "Packets":
        """`n` rows of non-IP packets with every field zero."""
        return cls(*(np.zeros(n, dtype=np.int64) for _ in cls.__dataclass_fields__))

    def __len__(self) -> int:
        return len(self.ts_us)

    def __iter__(self) -> Iterator[PacketMeta]:
        columns = [getattr(self, name).tolist() for name in self.__dataclass_fields__]
        return (PacketMeta(*row[:3], _TRANSPORTS[row[3]], *row[4:]) for row in zip(*columns))


def _walk(path) -> tuple[bytes, str, array]:
    """Read a whole pcap file and walk its record headers once.

    Returns the file's bytes, its struct byte-order prefix, and the offset of
    each record's frame data, which follows its `RECORD_HEADER`, as 8 bytes
    per record in an `array('q')`.
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
    if len(data) < _GLOBAL_LEN:
        raise FloodgateError(f"{path}: incomplete global header")
    linktype = struct.unpack_from(endian + _GLOBAL, data)[6]
    if linktype != LINKTYPE_ETHERNET:
        raise FloodgateError(f"{path}: linktype {linktype} (only Ethernet is supported)")

    head = RECORD_HEADER.itemsize
    incl_len = struct.Struct(f"{endian}{RECORD_HEADER.fields['incl_len'][1]}xI").unpack_from  # at a header's start
    starts = array("q")
    append = starts.append
    pos, last = _GLOBAL_LEN, len(data) - head
    while pos <= last:
        pos += head
        append(pos)
        pos += incl_len(data, pos - head)[0]
    if pos > len(data):
        claimed = pos - starts[-1]
        raise FloodgateError(f"{path}: record claims {claimed} bytes, only {len(data) - starts[-1]} remain")
    if pos < len(data):
        raise FloodgateError(f"{path}: incomplete record header")
    return data, endian, starts


def byte_items(buf: np.ndarray, dtype) -> np.ndarray:
    """A view of `buf` whose item i is the `dtype` value at byte offset i (stride 1)."""
    dtype = np.dtype(dtype)
    return np.ndarray((max(len(buf) - dtype.itemsize + 1, 0),), dtype, buf, strides=(1,))


def _headers(buf: np.ndarray, at: np.ndarray, dtype: np.dtype) -> np.ndarray:
    """The `dtype` header at each byte offset in `at`: one gather of whole
    items through a stride-1 view of `buf`, read by field.

    Callers pass only offsets whose header lies inside its record's captured bytes.
    """
    return byte_items(buf, (np.void, dtype.itemsize))[at].view(dtype)


def _kept(headers: np.ndarray, keep: np.ndarray) -> np.ndarray:
    """The `headers` where `keep` is set, copied as whole items, not field by field."""
    return headers.view((np.void, headers.itemsize))[keep].view(headers.dtype)


def _set_prefix(out: Packets, buf: np.ndarray, rows: np.ndarray, at: np.ndarray, count: np.ndarray) -> None:
    """Set each row's prefix to the big-endian word at `at` where `count`, its payload
    bytes captured inside the IP (and UDP) length, is at least PAYLOAD_PREFIX_LEN."""
    whole = count >= PAYLOAD_PREFIX_LEN
    out.payload_prefix[rows[whole]] = byte_items(buf, ">u4")[at[whole]]


def read_pcap(path) -> Packets:
    """Decode every record of a pcap file into packet metadata columns, in file order;
    a record earlier than its predecessor raises FloodgateError, naming the file and the packet."""
    data, endian, offsets = _walk(path)
    offsets = np.frombuffer(offsets, dtype=np.int64)
    buf = np.frombuffer(data, dtype=np.uint8)
    header = _headers(buf, offsets - RECORD_HEADER.itemsize, RECORD_HEADER.newbyteorder(endian))
    out = Packets.empty(len(offsets))
    out.captured_len[:], out.original_len[:] = header["incl_len"], header["orig_len"]
    stamps = out.ts_us
    stamps[:] = header["ts_sec"]
    stamps *= 1_000_000
    stamps += header["ts_usec"]
    del header  # the headers' copy goes before the decoder's temporaries come
    backwards = np.flatnonzero(stamps[1:] < stamps[:-1])
    if backwards.size:
        raise FloodgateError(f"{path}: packet {backwards[0] + 1} is earlier than its predecessor")
    _decode(buf, offsets, out)
    return out


def decode_frame(data: bytes) -> PacketMeta:
    """Decode one Ethernet frame as `read_pcap` decodes a record captured whole
    at time 0: `ts_us` is 0 and both lengths are len(data). Never raises."""
    out = Packets.empty(1)
    out.captured_len[0] = out.original_len[0] = len(data)
    _decode(np.frombuffer(data, dtype=np.uint8), np.zeros(1, dtype=np.int64), out)
    (meta,) = out
    return meta


def _decode(buf: np.ndarray, offsets: np.ndarray, out: Packets) -> None:
    """Fill the header columns of `out` from the frame at each offset into `buf`.

    Each step keeps the rows whose captured bytes (`out.captured_len`) hold
    the next header; the other rows keep the layer they reached.
    """
    cap = out.captured_len

    # Ethernet carrying IPv4, version 4, 20 <= IHL <= captured IP bytes.
    rows = np.flatnonzero(cap >= ETHERNET_IPV4.itemsize)
    head = _headers(buf, offsets[rows], ETHERNET_IPV4)
    ihl = (head["version_ihl"] & 0x0F).astype(np.int64) * 4
    ok = (head["ethertype"] == ETHERTYPE_IPV4) & (head["version_ihl"] >> 4 == 4) & (ihl >= 20)
    ok &= cap[rows] - ETHERNET_LEN >= ihl
    rows, head, ihl = rows[ok], _kept(head, ok), ihl[ok]
    total_len = head["total_len"].astype(np.int64)
    out.transport[rows] = OTHER_IP
    out.ttl[rows] = head["ttl"]
    out.src_ip[rows] = head["src_ip"]
    out.dst_ip[rows] = head["dst_ip"]
    out.payload_len[rows] = np.maximum(total_len - ihl, 0)

    # Transport headers, in first fragments only, within a body clipped to
    # min(captured, max(IHL, total length)). Each header copy goes once read:
    # these steps set read_pcap's peak memory.
    first = (head["fragment"] & 0x1FFF) == 0
    tcp, udp = first & (head["proto"] == PROTO_TCP), first & (head["proto"] == PROTO_UDP)
    del head
    body = offsets[rows] + ETHERNET_LEN + ihl
    body_len = np.minimum(cap[rows] - ETHERNET_LEN, np.maximum(ihl, total_len)) - ihl

    tcp &= body_len >= TCP_HEADER.itemsize
    t_head = _headers(buf, body[tcp], TCP_HEADER)
    data_off = (t_head["data_offset"] >> 4).astype(np.int64) * 4
    ok = data_off >= 20
    tcp[tcp] = ok  # TCP rows with a valid data offset
    t_head, data_off = _kept(t_head, ok), data_off[ok]
    t_rows, t_body = rows[tcp], body[tcp]
    out.transport[t_rows] = TCP
    out.src_port[t_rows] = t_head["src_port"]
    out.dst_port[t_rows] = t_head["dst_port"]
    out.tcp_flags[t_rows] = t_head["flags"] & 0x3F
    out.payload_len[t_rows] = np.maximum((total_len - ihl)[tcp] - data_off, 0)
    _set_prefix(out, buf, t_rows, t_body + data_off, body_len[tcp] - data_off)

    udp &= body_len >= UDP_HEADER.itemsize
    u_rows, u_body, u_len = rows[udp], body[udp], body_len[udp]
    u_head = _headers(buf, u_body, UDP_HEADER)
    out.transport[u_rows] = UDP
    out.src_port[u_rows] = u_head["src_port"]
    out.dst_port[u_rows] = u_head["dst_port"]
    u_payload = np.maximum(u_head["length"].astype(np.int64) - UDP_HEADER.itemsize, 0)
    out.payload_len[u_rows] = u_payload
    _set_prefix(out, buf, u_rows, u_body + UDP_HEADER.itemsize, np.minimum(u_len - UDP_HEADER.itemsize, u_payload))


def read_frames(path) -> list[Frame]:
    """Read raw frames plus timestamps; the exact inverse of write_pcap."""
    data, endian, offsets = _walk(path)
    header = struct.Struct(endian + "III").unpack_from
    head = RECORD_HEADER.itemsize
    frames: list[Frame] = []
    append = frames.append
    for start in offsets:
        ts_sec, ts_usec, incl_len = header(data, start - head)
        append(Frame(ts_sec, ts_usec, data[start : start + incl_len]))
    return frames


def record_headers(rows: np.ndarray, ts_sec, ts_usec, frame_len) -> None:
    """Write frame i's record header over the first RECORD_HEADER.itemsize bytes of `rows[i]` (uint8).

    Raises ValueError, with no byte written, for a frame longer than SNAPLEN
    or a timestamp outside the format's unsigned 32 bits.
    """
    ts_sec, ts_usec, frame_len = (np.asarray(a, dtype=np.int64) for a in (ts_sec, ts_usec, frame_len))
    if len(frame_len) and frame_len.max() > SNAPLEN:
        raise ValueError(f"frame of {frame_len.max()} bytes exceeds {SNAPLEN}")
    for stamp in (ts_sec, ts_usec):
        if len(stamp) and not 0 <= stamp.min() <= stamp.max() <= 0xFFFFFFFF:
            raise ValueError("timestamp outside the 32-bit range of a pcap record")
    out = rows[:, : RECORD_HEADER.itemsize].view(RECORD_HEADER)[:, 0]
    out["ts_sec"], out["ts_usec"], out["incl_len"], out["orig_len"] = ts_sec, ts_usec, frame_len, frame_len


def write_records(path, chunks: Iterable) -> None:
    """Write a little-endian microsecond pcap file: the global header, then
    each chunk of records (`record_headers` rows, each followed by its frame)."""
    with atomic_write(path, "wb") as fh:
        fh.write(struct.pack("<" + _GLOBAL, MAGIC_USEC, 2, 4, 0, 0, SNAPLEN, LINKTYPE_ETHERNET))
        for chunk in chunks:
            fh.write(chunk)


def write_pcap(path, frames: Iterable[Frame]) -> None:
    """Write frames as a little-endian microsecond pcap file."""
    frames = list(frames)
    headers = np.empty((len(frames), RECORD_HEADER.itemsize), dtype=np.uint8)
    record_headers(headers, [f.ts_sec for f in frames], [f.ts_usec for f in frames], [len(f.data) for f in frames])
    write_records(path, (header.tobytes() + frame.data for header, frame in zip(headers, frames)))
