"""Per-packet references for the columnar decoder, synth encoder and feature path.

`decode_frame` decodes one Ethernet frame with byte slices and
`int.from_bytes`, as the package did before `read_pcap`'s columnar decoder
became its only decoder; that decoder must equal it field for field.
`build_tcp_frame` and `build_udp_frame` pack one synth frame with `struct`,
as synth did before `synth.encode_records` built every record at once; the
encoder must equal them byte for byte. `window_features` is the loop over
one window's PacketMeta records that the columnar
`features.extract_features` replaced, and `windows` the windowing rule
restricted to non-empty windows. The columnar code must equal them bit for
bit. Float sums are explicit loops so that they stay sequential: from
Python 3.12 on, `sum()` of floats is compensated.
"""

import math
import struct

import numpy as np

from floodgate.features import HTTP_METHODS, HTTP_PORTS, SMALL_UDP_MAX_PAYLOAD
from floodgate.pcapio import PacketMeta, Transport

# TCP flag bits and header constants, written out here rather than taken from the package.
FIN, SYN, RST, ACK = 0x01, 0x02, 0x04, 0x10
ETHERTYPE_IPV4 = 0x0800
PROTO_TCP = 6
PROTO_UDP = 17
PAYLOAD_PREFIX_LEN = 8

_ETH = struct.Struct("!6s6sH")
_IPV4 = struct.Struct("!BBHHHBBH4s4s")
_TCP = struct.Struct("!HHIIBBHHH")
_UDP = struct.Struct("!HHHH")


def decode_frame(data: bytes, ts_sec: int = 0, ts_usec: int = 0, original_len: int | None = None) -> PacketMeta:
    """Decode one Ethernet frame; never raises, degrades to the layer reached."""
    meta = PacketMeta(
        ts_sec=ts_sec,
        ts_usec=ts_usec,
        captured_len=len(data),
        original_len=len(data) if original_len is None else original_len,
    )
    if len(data) < 14:
        return meta
    if int.from_bytes(data[12:14], "big") != ETHERTYPE_IPV4:
        return meta

    ip = data[14:]
    if len(ip) < 20:
        return meta
    version = ip[0] >> 4
    ihl = (ip[0] & 0x0F) * 4
    if version != 4 or ihl < 20 or len(ip) < ihl:
        return meta

    total_len = int.from_bytes(ip[2:4], "big")
    meta.transport = Transport.OTHER_IP
    meta.ttl = ip[8]
    meta.src_ip = int.from_bytes(ip[12:16], "big")
    meta.dst_ip = int.from_bytes(ip[16:20], "big")
    meta.payload_len = max(0, total_len - ihl)

    # Non-first fragments carry no transport header.
    if int.from_bytes(ip[6:8], "big") & 0x1FFF:
        return meta

    proto = ip[9]
    body = ip[ihl : max(ihl, total_len)]
    if proto == PROTO_TCP:
        if len(body) < 14:
            return meta
        data_off = (body[12] >> 4) * 4
        if data_off < 20:
            return meta
        meta.transport = Transport.TCP
        meta.src_port = int.from_bytes(body[0:2], "big")
        meta.dst_port = int.from_bytes(body[2:4], "big")
        meta.tcp_flags = body[13] & 0x3F
        meta.payload_len = max(0, total_len - ihl - data_off)
        meta.payload_prefix = bytes(body[data_off : data_off + PAYLOAD_PREFIX_LEN])
    elif proto == PROTO_UDP:
        if len(body) < 8:
            return meta
        meta.transport = Transport.UDP
        meta.src_port = int.from_bytes(body[0:2], "big")
        meta.dst_port = int.from_bytes(body[2:4], "big")
        udp_len = int.from_bytes(body[4:6], "big")
        meta.payload_len = max(0, udp_len - 8)
        end = min(len(body), 8 + meta.payload_len, 8 + PAYLOAD_PREFIX_LEN)
        meta.payload_prefix = bytes(body[8:end])
    return meta


def _mac_for(ip: int) -> bytes:
    # Locally administered MAC derived from the IPv4 address.
    return b"\x02\x00" + ip.to_bytes(4, "big")


def ip_checksum(header: bytes) -> int:
    """The IPv4 header checksum: one's-complement sum of 16-bit words, folded twice."""
    total = 0
    for i in range(0, len(header), 2):
        total += (header[i] << 8) | header[i + 1]
    total = (total & 0xFFFF) + (total >> 16)
    total = (total & 0xFFFF) + (total >> 16)
    return ~total & 0xFFFF


def _ipv4(src: int, dst: int, proto: int, payload: bytes, ttl: int) -> bytes:
    header = _IPV4.pack(
        0x45, 0, 20 + len(payload), 0, 0x4000, ttl, proto, 0,
        src.to_bytes(4, "big"), dst.to_bytes(4, "big"),
    )
    checksum = ip_checksum(header)
    return header[:10] + checksum.to_bytes(2, "big") + header[12:] + payload


def build_tcp_frame(src_ip, dst_ip, src_port, dst_port, flags, payload=b"", ttl=64):
    tcp = _TCP.pack(src_port, dst_port, 0, 0, 5 << 4, flags, 65535, 0, 0) + payload
    packet = _ipv4(src_ip, dst_ip, 6, tcp, ttl)
    return _ETH.pack(_mac_for(dst_ip), _mac_for(src_ip), 0x0800) + packet


def build_udp_frame(src_ip, dst_ip, src_port, dst_port, payload=b"", ttl=64):
    udp = _UDP.pack(src_port, dst_port, 8 + len(payload), 0) + payload
    packet = _ipv4(src_ip, dst_ip, 17, udp, ttl)
    return _ETH.pack(_mac_for(dst_ip), _mac_for(src_ip), 0x0800) + packet


def windows(metas, window_len):
    """(start_ts, end_ts, packets) of each non-empty window of a sorted stream."""
    len_us = round(window_len * 1e6)
    slots = {}
    for m in metas:
        slots.setdefault((m.ts_sec * 1_000_000 + m.ts_usec) // len_us, []).append(m)
    return [((k * len_us) / 1e6, ((k + 1) * len_us) / 1e6, pkts) for k, pkts in slots.items()]


def _fsum_sequential(values):
    total = 0.0
    for v in values:
        total += v
    return total


def _entropy(counts):
    total = sum(counts)
    if total == 0:
        return 0.0
    h = 0.0
    for c in counts:
        p = c / total
        h -= p * math.log2(p)
    return h + 0.0


def window_features(pkts):
    """The 24 schema-v1 features of one non-empty window's packets."""
    n = len(pkts)
    byte_count = 0
    byte_sq = 0
    tcp = udp = 0
    syn = pure_ack = finrst = synack = 0
    http_req = small_udp = 0
    ttl_sum = 0
    ipv4_count = 0
    src_counts = {}
    port_counts = {}
    five_tuples = set()

    for p in pkts:
        size = p.original_len
        byte_count += size
        byte_sq += size * size
        if p.transport is Transport.TCP:
            tcp += 1
            f = p.tcp_flags
            if f & SYN and not f & ACK:
                syn += 1
            elif f & SYN and f & ACK:
                synack += 1
            elif f & ACK and p.payload_len == 0:
                pure_ack += 1
            if f & (FIN | RST):
                finrst += 1
            if p.dst_port in HTTP_PORTS and p.payload_prefix[:4] in HTTP_METHODS:
                http_req += 1
        elif p.transport is Transport.UDP:
            udp += 1
            if p.payload_len <= SMALL_UDP_MAX_PAYLOAD:
                small_udp += 1
        if p.transport is not Transport.NON_IP:
            src_counts[p.src_ip] = src_counts.get(p.src_ip, 0) + 1
            ipv4_count += 1
            ttl_sum += p.ttl
        if p.transport in (Transport.TCP, Transport.UDP):
            port_counts[p.dst_port] = port_counts.get(p.dst_port, 0) + 1
            five_tuples.add((p.src_ip, p.dst_ip, p.src_port, p.dst_port, p.transport))

    mean_size = byte_count / n
    var_size = max(byte_sq / n - mean_size * mean_size, 0.0)

    if n >= 2:
        stamps = [p.timestamp for p in pkts]
        gaps = [b - a for a, b in zip(stamps, stamps[1:])]
        mean_gap = _fsum_sequential(gaps) / len(gaps)
        var_gap = _fsum_sequential((g - mean_gap) ** 2 for g in gaps) / len(gaps)
        std_gap = math.sqrt(var_gap)
    else:
        mean_gap = std_gap = 0.0

    return np.array(
        [
            float(n),
            float(byte_count),
            mean_size,
            math.sqrt(var_size),
            tcp / n,
            udp / n,
            (n - tcp - udp) / n,
            float(syn),
            syn / n,
            float(pure_ack),
            pure_ack / n,
            finrst / n,
            float(synack),
            float(len(src_counts)),
            float(len(port_counts)),
            _entropy(port_counts.values()),
            _entropy(src_counts.values()),
            mean_gap,
            std_gap,
            float(http_req),
            http_req / n,
            small_udp / n,
            (ttl_sum / ipv4_count) if ipv4_count else 0.0,
            float(len(five_tuples)),
        ],
        dtype=np.float64,
    )


def features(metas, window_len):
    """The feature matrix of every non-empty window, as the reference computes it."""
    rows = [window_features(pkts) for _, _, pkts in windows(metas, window_len)]
    return np.array(rows, dtype=np.float64).reshape(len(rows), 24)
