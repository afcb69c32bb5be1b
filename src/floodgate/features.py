"""Fixed-length time windows over a packet stream and the 24-feature schema.

Schema v1, in input-layer order:

    f01  packet_count            packets in the window
    f02  byte_count              sum of original frame lengths
    f03  mean_packet_size        bytes
    f04  std_packet_size         population std, bytes
    f05  tcp_ratio               TCP packets / f01
    f06  udp_ratio               UDP packets / f01
    f07  other_ratio             everything else / f01 (f05+f06+f07 = 1)
    f08  syn_count               TCP with SYN=1, ACK=0
    f09  syn_ratio               f08 / f01
    f10  pure_ack_count          TCP with ACK=1, SYN=0 and empty payload
    f11  pure_ack_ratio          f10 / f01
    f12  finrst_ratio            TCP with FIN or RST, over f01
    f13  synack_count            TCP with SYN=1 and ACK=1
    f14  unique_src_ips          distinct IPv4 source addresses
    f15  unique_dst_ports        distinct TCP/UDP destination ports
    f16  dst_port_entropy        Shannon entropy (base 2) of packets per port
    f17  src_ip_entropy          Shannon entropy (base 2) of packets per source
    f18  mean_interarrival       seconds between consecutive packets (0 if <2)
    f19  std_interarrival        population std of the gaps (0 if <2)
    f20  http_request_count      TCP to port 80/8080 whose payload starts with
                                 "GET ", "POST", "HEAD" or "PUT "
    f21  http_request_ratio      f20 / f01
    f22  small_udp_ratio         UDP with payload <= 64 bytes, over f01
    f23  mean_ttl                over IPv4 packets (0 if none)
    f24  unique_five_tuples      distinct (src, dst, sport, dport, transport)

Windows are half-open [k*len, (k+1)*len) slices computed in integer
microseconds, so a packet exactly on a boundary belongs to the later window.
Only windows that hold packets exist.

The features of all windows are computed at once from the packet columns
of `pcapio.Packets`. Every float is reduced per window in packet order, with
the same operations as a loop over that window's packets, so each row is
bit-for-bit what such a loop gives; the tests keep that loop as the oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .dataset import TrafficClass, read_rows, write_rows
from .errors import MalformedRow, OverlappingTruth, UnsortedInput
from .pcapio import NON_IP, TCP, UDP, Packets

SCHEMA_VERSION = 1

FEATURE_NAMES = (
    "packet_count",
    "byte_count",
    "mean_packet_size",
    "std_packet_size",
    "tcp_ratio",
    "udp_ratio",
    "other_ratio",
    "syn_count",
    "syn_ratio",
    "pure_ack_count",
    "pure_ack_ratio",
    "finrst_ratio",
    "synack_count",
    "unique_src_ips",
    "unique_dst_ports",
    "dst_port_entropy",
    "src_ip_entropy",
    "mean_interarrival",
    "std_interarrival",
    "http_request_count",
    "http_request_ratio",
    "small_udp_ratio",
    "mean_ttl",
    "unique_five_tuples",
)

HTTP_PORTS = (80, 8080)
HTTP_METHODS = (b"GET ", b"POST", b"HEAD", b"PUT ")
SMALL_UDP_MAX_PAYLOAD = 64

_HTTP_METHOD_CODES = [int.from_bytes(m, "big") for m in HTTP_METHODS]
# Bits of the `tcp_flags` column (the low six bits of the TCP flags octet).
_FIN, _SYN, _RST, _ACK = 0x01, 0x02, 0x04, 0x10

TRUTH_HEADER = ("start_ts", "end_ts", "label")


@dataclass(frozen=True, eq=False)
class Windows:
    """The non-empty windows of a packet stream, in time order.

    Window w spans [start_ts[w], end_ts[w]) and holds the packet rows
    bounds[w]:bounds[w + 1]; `bounds` has len(windows) + 1 entries.
    """

    start_ts: np.ndarray
    end_ts: np.ndarray
    bounds: np.ndarray

    def __len__(self) -> int:
        return len(self.start_ts)


def window_packets(packets: Packets, window_len: float) -> Windows:
    """Group a time-ordered packet stream into windows of `window_len` seconds.

    Only windows that hold packets exist, so a gap in the capture (or a
    bogus early timestamp) costs nothing; every packet lands in exactly one
    window.
    """
    if window_len <= 0:
        raise ValueError("window_len must be positive")
    len_us = round(window_len * 1e6)
    if len_us <= 0:
        raise ValueError("window_len must be at least one microsecond")

    if len(packets) == 0:
        return Windows(np.empty(0), np.empty(0), np.zeros(1, dtype=np.int64))
    stamps = packets.ts_sec * 1_000_000 + packets.ts_usec
    unsorted = np.flatnonzero(stamps[1:] < stamps[:-1])
    if unsorted.size:
        raise UnsortedInput(f"packet {unsorted[0] + 1} is earlier than its predecessor")
    # Stamps stay below 2**53, so any longer window puts them all in window 0 as well.
    slot = stamps // min(len_us, 1 << 62)
    bounds = np.concatenate(([0], np.flatnonzero(np.diff(slot)) + 1, [len(slot)]))
    # Python ints: k * len_us may not fit in int64 for a very long window.
    slots = slot[bounds[:-1]].tolist()
    return Windows(
        start_ts=np.array([(k * len_us) / 1e6 for k in slots], dtype=np.float64),
        end_ts=np.array([((k + 1) * len_us) / 1e6 for k in slots], dtype=np.float64),
        bounds=bounds,
    )


def _distinct_and_entropy(owner: np.ndarray, key: np.ndarray, n_windows: int) -> tuple[np.ndarray, np.ndarray]:
    """Per window: how many distinct keys its packets carry, and the Shannon
    entropy (base 2) of packets per key.

    `owner` is each keyed packet's window (non-decreasing) and `key` its
    32-bit key. The entropy's terms are summed in order of each key's first
    appearance with `math.log2`, which is how the float result is defined
    (np.log2 differs from it in the last bit for some ratios).
    """
    _, first, counts = np.unique(owner << 32 | key, return_index=True, return_counts=True)
    order = np.argsort(first)
    term_owner = owner[first[order]]
    p = counts[order] / np.bincount(owner, minlength=n_windows)[term_owner]
    terms = p * np.array([math.log2(x) for x in p.tolist()], dtype=np.float64)
    # bincount adds each window's terms one by one in the order given, and
    # 0.0 - t1 - t2 ... equals -(t1 + t2 ...) exactly; + 0.0 turns -0.0 into 0.0.
    entropy = -np.bincount(term_owner, weights=terms, minlength=n_windows) + 0.0
    return np.bincount(term_owner, minlength=n_windows), entropy


def extract_features(packets: Packets, windows: Windows) -> np.ndarray:
    """The 24 schema-v1 features of every window: a (len(windows), 24) array.

    Floats are reduced per window in packet order, so each row is bit-for-bit
    what summing that window's packets one at a time gives.
    """
    if windows.bounds[-1] != len(packets):
        raise ValueError("windows were not made from these packets")
    n_windows = len(windows)
    if n_windows == 0:
        return np.zeros((0, len(FEATURE_NAMES)), dtype=np.float64)
    first = windows.bounds[:-1]
    n = np.diff(windows.bounds)
    owner = np.repeat(np.arange(n_windows), n)

    def count(mask):
        return np.bincount(owner[mask], minlength=n_windows)

    transport = packets.transport
    tcp, udp = transport == TCP, transport == UDP
    ported, ipv4 = tcp | udp, transport != NON_IP
    flags = packets.tcp_flags
    syn, ack = (flags & _SYN) != 0, (flags & _ACK) != 0
    method = packets.payload_prefix[:, :4].copy().view(">u4")[:, 0]
    http = (
        tcp
        & np.isin(packets.dst_port, HTTP_PORTS)
        & (packets.prefix_len >= 4)
        & np.isin(method, _HTTP_METHOD_CODES)
    )

    # Sizes are summed exactly in int64 where a window's sum of squares stays
    # below 2**53 (so its float conversion is exact too), else as Python ints.
    size = packets.original_len
    byte_count = np.add.reduceat(size, first)
    exact = np.maximum.reduceat(size, first).astype(np.float64) ** 2 * n < 2.0**53
    byte_sq = np.add.reduceat(np.where(exact[owner], size, 0) ** 2, first)
    mean_size = byte_count / n
    var_size = np.maximum(byte_sq / n - mean_size * mean_size, 0.0)
    for w in np.flatnonzero(~exact).tolist():
        sizes = size[windows.bounds[w] : windows.bounds[w + 1]].tolist()
        mean = sum(sizes) / len(sizes)
        mean_size[w] = mean
        var_size[w] = max(sum(s * s for s in sizes) / len(sizes) - mean * mean, 0.0)

    ip_owner = owner[ipv4]
    ip_count = np.bincount(ip_owner, minlength=n_windows)
    ttl_sum = np.bincount(ip_owner, weights=packets.ttl[ipv4], minlength=n_windows)
    unique_src, src_entropy = _distinct_and_entropy(ip_owner, packets.src_ip[ipv4], n_windows)
    unique_ports, port_entropy = _distinct_and_entropy(owner[ported], packets.dst_port[ported], n_windows)
    # Distinct flows per window: sort the (window, address pair, ports and
    # transport) keys and count the runs that start in each window.
    flow_owner = owner[ported]
    pair = packets.src_ip[ported] << 32 | packets.dst_ip[ported]  # wraps, but stays one key per pair
    ports = packets.src_port[ported] << 17 | packets.dst_port[ported] << 1 | udp[ported]
    order = np.lexsort((ports, pair, flow_owner))
    flow_owner, pair, ports = flow_owner[order], pair[order], ports[order]
    new_flow = np.ones(len(order), dtype=bool)
    new_flow[1:] = (flow_owner[1:] != flow_owner[:-1]) | (pair[1:] != pair[:-1]) | (ports[1:] != ports[:-1])
    five_tuples = np.bincount(flow_owner[new_flow], minlength=n_windows)

    # Gaps between consecutive packets of a window, from float timestamps.
    stamps = packets.ts_sec + packets.ts_usec / 1e6
    same = owner[1:] == owner[:-1]
    gaps = (stamps[1:] - stamps[:-1])[same]
    gap_owner = owner[1:][same]
    n_gaps = np.maximum(n - 1, 1)
    mean_gap = np.bincount(gap_owner, weights=gaps, minlength=n_windows) / n_gaps
    # float_power is libm pow, as `x ** 2` on a Python float; x * x rounds
    # differently for about 0.1% of values.
    dev_sq = np.float_power(gaps - mean_gap[gap_owner], 2)
    std_gap = np.sqrt(np.bincount(gap_owner, weights=dev_sq, minlength=n_windows) / n_gaps)
    several = n >= 2

    syn_count = count(tcp & syn & ~ack)
    pure_ack = count(tcp & ~syn & ack & (packets.payload_len == 0))
    http_count = count(http)
    tcp_count, udp_count = count(tcp), count(udp)
    columns = (
        n,
        byte_count,
        mean_size,
        np.sqrt(var_size),
        tcp_count / n,
        udp_count / n,
        (n - tcp_count - udp_count) / n,
        syn_count,
        syn_count / n,
        pure_ack,
        pure_ack / n,
        count(tcp & ((flags & (_FIN | _RST)) != 0)) / n,
        count(tcp & syn & ack),
        unique_src,
        unique_ports,
        port_entropy,
        src_entropy,
        np.where(several, mean_gap, 0.0),
        np.where(several, std_gap, 0.0),
        http_count,
        http_count / n,
        count(udp & (packets.payload_len <= SMALL_UDP_MAX_PAYLOAD)) / n,
        np.where(ip_count > 0, ttl_sum / np.maximum(ip_count, 1), 0.0),
        five_tuples,
    )
    return np.column_stack(columns).astype(np.float64)


TruthInterval = tuple[float, float, TrafficClass]


def label_windows(windows: Windows, truth: Sequence[TruthInterval]) -> np.ndarray:
    """Label each window by its midpoint, as int64 TrafficClass ordinals.

    A window gets the class of the truth interval covering its midpoint;
    uncovered windows default to normal traffic.
    """
    intervals = sorted(truth, key=lambda iv: (iv[0], iv[1]))
    for (s1, e1, _), (s2, _, _) in zip(intervals, intervals[1:]):
        if s2 < e1:
            raise OverlappingTruth(f"interval starting at {s2} overlaps one ending at {e1}")

    mid = (windows.start_ts + windows.end_ts) / 2.0
    labels = np.full(len(mid), int(TrafficClass.NORMAL), dtype=np.int64)
    unlabeled = np.ones(len(mid), dtype=bool)
    for start, end, cls in intervals:
        hit = unlabeled & (start <= mid) & (mid < end)
        labels[hit] = int(cls)
        unlabeled &= ~hit
    return labels


def write_truth(path, intervals: Sequence[TruthInterval]) -> None:
    """Write ground-truth label intervals as `start_ts,end_ts,label` CSV."""
    write_rows(path, TRUTH_HEADER, [(start, end) for start, end, _ in intervals], [c for _, _, c in intervals])


def read_truth(path) -> list[TruthInterval]:
    """Read a ground-truth CSV written by write_truth (or shaped like it)."""
    bounds, labels, lines = read_rows(path, TRUTH_HEADER)
    for (start, end), line in zip(bounds.tolist(), lines):
        if end <= start:
            raise MalformedRow(f"{path}:{line}: interval [{start!r}, {end!r}] does not end after it starts")
    return [(start, end, TrafficClass(c)) for (start, end), c in zip(bounds.tolist(), labels.tolist())]
