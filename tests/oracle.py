"""Per-packet reference for the columnar windowing and feature path.

`window_features` is the loop over one window's PacketMeta records that the
columnar `features.extract_features` replaced, and `windows` the windowing
rule restricted to non-empty windows. The columnar code must equal them bit
for bit. Float sums are explicit loops so that they stay sequential: from
Python 3.12 on, `sum()` of floats is compensated.
"""

import math

import numpy as np

from floodgate.features import HTTP_METHODS, HTTP_PORTS, SMALL_UDP_MAX_PAYLOAD
from floodgate.pcapio import Transport

# TCP flag bits, written out here rather than taken from the package.
FIN, SYN, RST, ACK = 0x01, 0x02, 0x04, 0x10


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
