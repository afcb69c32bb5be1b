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
    f20  http_request_count      TCP to port 80/8080 whose payload word (its
                                 first 4 bytes, 0 if fewer were captured) is
                                 "GET ", "POST", "HEAD" or "PUT "
    f21  http_request_ratio      f20 / f01
    f22  small_udp_ratio         UDP with payload <= 64 bytes, over f01
    f23  mean_ttl                over IPv4 packets (0 if none)
    f24  unique_five_tuples      distinct (src, dst, sport, dport, transport)

Windows are half-open [k*len, (k+1)*len) slices computed in integer
microseconds, so a packet exactly on a boundary belongs to the later window.
Only windows that hold packets exist.

The features of all windows are computed at once from the packet columns of
`pcapio.Packets`, by three per-window reductions: integer counts and sums by
`np.add.reduceat` over the window's rows, float sums by `np.bincount`, which
adds in packet order, and distinct keys by `np.unique` of `window << 32 | key`.
Floats take the same operations as a loop over the window's packets, so each
row is bit-for-bit what that loop gives; the tests keep that loop as the oracle.
Means and stds (f03, f04, f18, f19) take integers: frame lengths in bytes, and
gaps between consecutive stamps `Packets.ts_us` in microseconds.
A mean is their sum, exact below 2**53, over f01 (sizes) or f01 - 1 (gaps);
a std is a second pass over the deviations from it. Gap statistics become
seconds by one division by 10**6, so a capture's date does not change them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .dataset import TrafficClass, read_rows, write_rows
from .errors import FloodgateError
from .pcapio import FLAG_ACK, FLAG_FIN, FLAG_RST, FLAG_SYN, NON_IP, TCP, UDP, Packets

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
    window. `read_pcap` returns packets in time order, so this raises no FloodgateError.
    """
    len_us = round(window_len * 1e6)
    if len_us <= 0:
        raise ValueError("window_len must be at least one microsecond")
    # Stamps stay below 2**53, so any longer window puts them all in window 0 as well.
    slot = packets.ts_us // min(len_us, 1 << 62)
    first = np.flatnonzero(np.diff(slot, prepend=slot[:1] - 1))
    # k and len_us are exact in float64, so each bound is one rounding of the exact product.
    k = slot[first]
    return Windows(k * float(len_us) / 1e6, (k + 1) * float(len_us) / 1e6, np.append(first, len(slot)))


def _distinct_and_entropy(owner: np.ndarray, key: np.ndarray, n_windows: int) -> tuple[np.ndarray, np.ndarray]:
    """Per window: how many distinct keys its packets carry, and the Shannon
    entropy (base 2) of packets per key.

    `owner` is each keyed packet's window (non-decreasing) and `key` its
    32-bit key. The entropy's terms are summed in order of each key's first
    appearance, with `math.log2` taken once per distinct ratio: that is how
    the float result is defined (np.log2 differs from it in the last bit for
    some ratios), and one float always has the same log2.
    """
    _, first, counts = np.unique(owner << 32 | key, return_index=True, return_counts=True)
    order = np.argsort(first)
    term_owner = owner[first[order]]
    p = counts[order] / np.bincount(owner, minlength=n_windows)[term_owner]
    ratios, ratio_of = np.unique(p, return_inverse=True)
    terms = p * np.array([math.log2(x) for x in ratios.tolist()], dtype=np.float64)[ratio_of]
    # bincount adds each window's terms one by one in the order given, and
    # 0.0 - t1 - t2 ... equals -(t1 + t2 ...) exactly; + 0.0 turns -0.0 into 0.0.
    entropy = -np.bincount(term_owner, weights=terms, minlength=n_windows) + 0.0
    return np.bincount(term_owner, minlength=n_windows), entropy


def _mean_and_std(owner: np.ndarray, x: np.ndarray, count: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per window (`owner`): the mean of the integers `x` over `count`, and the
    population std about it; both sums run in packet order, squares are products."""
    mean = np.bincount(owner, weights=x, minlength=len(count)) / count
    dev = x - mean[owner]
    return mean, np.sqrt(np.bincount(owner, weights=dev * dev, minlength=len(count)) / count)


def extract_features(packets: Packets, windows: Windows) -> np.ndarray:
    """The 24 schema-v1 features of every window: a (len(windows), 24) array.

    Floats are reduced per window in packet order, so each row is bit-for-bit
    what summing that window's packets one at a time gives.
    """
    if windows.bounds[-1] != len(packets):
        raise ValueError("windows were not made from these packets")
    n_windows = len(windows)
    first = windows.bounds[:-1]
    n = np.diff(windows.bounds)
    owner = np.repeat(np.arange(n_windows), n)

    def count(mask):
        return np.add.reduceat(mask, first, dtype=np.int64)  # windows are runs of rows

    transport = packets.transport
    tcp, udp = transport == TCP, transport == UDP
    ported, ipv4 = tcp | udp, transport != NON_IP
    flags = packets.tcp_flags
    syn, ack = (flags & FLAG_SYN) != 0, (flags & FLAG_ACK) != 0
    # kind="sort": isin's default for integers fills a table over the values' range, about 15 times slower here.
    http = (
        tcp
        & np.isin(packets.dst_port, HTTP_PORTS, kind="sort")
        & np.isin(packets.payload_prefix, _HTTP_METHOD_CODES, kind="sort")
    )

    size = packets.original_len
    mean_size, std_size = _mean_and_std(owner, size, n)

    ip_count = count(ipv4)
    unique_src, src_entropy = _distinct_and_entropy(owner[ipv4], packets.src_ip[ipv4], n_windows)
    unique_ports, port_entropy = _distinct_and_entropy(owner[ported], packets.dst_port[ported], n_windows)
    # Distinct flows per window. A flow id is the dense rank of (address pair
    # rank, ports and transport); ranks and windows stay below the packet
    # count, so below 2**30 packets both pair rank << 33 | ports (33 bits) and
    # window << 32 | flow are exact in int64. The pair key wraps, but stays one
    # key per pair; each temporary goes before the next is made.
    flow = np.unique(packets.src_ip[ported] << 32 | packets.dst_ip[ported], return_inverse=True)[1] << 33
    flow |= packets.src_port[ported] << 17 | packets.dst_port[ported] << 1 | udp[ported]
    flow = np.unique(flow, return_inverse=True)[1]
    # return_counts=True, unused, because a plain np.unique(x) imports numpy.ma.
    five_tuples = np.bincount(np.unique(owner[ported] << 32 | flow, return_counts=True)[0] >> 32, minlength=n_windows)

    # Gaps between consecutive packets of a window, in integer microseconds. A
    # window of one packet has none: its sums are +0.0, divided by 1.
    same = owner[1:] == owner[:-1]
    gaps = np.diff(packets.ts_us)[same]
    mean_gap, std_gap = _mean_and_std(owner[1:][same], gaps, np.maximum(n - 1, 1))

    syn_count = count(tcp & syn & ~ack)
    pure_ack = count(tcp & ~syn & ack & (packets.payload_len == 0))
    http_count = count(http)
    tcp_count, udp_count = count(tcp), count(udp)
    columns = (
        n,
        count(size),
        mean_size,
        std_size,
        tcp_count / n,
        udp_count / n,
        (n - tcp_count - udp_count) / n,
        syn_count,
        syn_count / n,
        pure_ack,
        pure_ack / n,
        count(tcp & ((flags & (FLAG_FIN | FLAG_RST)) != 0)) / n,
        count(tcp & syn & ack),
        unique_src,
        unique_ports,
        port_entropy,
        src_entropy,
        mean_gap / 1e6,
        std_gap / 1e6,
        http_count,
        http_count / n,
        count(udp & (packets.payload_len <= SMALL_UDP_MAX_PAYLOAD)) / n,
        count(packets.ttl * ipv4) / np.maximum(ip_count, 1),
        five_tuples,
    )
    return np.column_stack(columns)


TruthInterval = tuple[float, float, TrafficClass]


def label_windows(windows: Windows, truth: Sequence[TruthInterval]) -> np.ndarray:
    """Label each window by its midpoint, as int64 TrafficClass ordinals.

    A window gets the class of the truth interval covering its midpoint;
    uncovered windows default to normal traffic. The intervals must not
    overlap (`read_truth` checks that), so no midpoint falls in two of them.
    """
    mid = (windows.start_ts + windows.end_ts) / 2.0
    labels = np.full(len(mid), int(TrafficClass.NORMAL), dtype=np.int64)
    for start, end, cls in truth:
        labels[(start <= mid) & (mid < end)] = int(cls)
    return labels


def write_truth(path, intervals: Sequence[TruthInterval]) -> None:
    """Write ground-truth label intervals as `start_ts,end_ts,label` CSV."""
    write_rows(path, TRUTH_HEADER, [(start, end) for start, end, _ in intervals], [c for _, _, c in intervals])


def read_truth(path) -> list[TruthInterval]:
    """Read a ground-truth CSV written by write_truth (or shaped like it); no two intervals may overlap."""
    bounds, labels, lines = read_rows(path, TRUTH_HEADER)
    for (start, end), line in zip(bounds.tolist(), lines):
        if end <= start:
            raise FloodgateError(f"{path}:{line}: interval [{start!r}, {end!r}] does not end after it starts")
    ordered = sorted(zip(bounds.tolist(), lines))
    for ((s1, e1), _), ((s2, e2), line) in zip(ordered, ordered[1:]):
        if s2 < e1:
            raise FloodgateError(f"{path}:{line}: interval [{s2!r}, {e2!r}) overlaps [{s1!r}, {e1!r})")
    return [(start, end, TrafficClass(c)) for (start, end), c in zip(bounds.tolist(), labels.tolist())]
