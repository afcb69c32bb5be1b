"""Deterministic synthetic traffic: benign background plus flood episodes.

A scenario is described by a small text config (one directive per line,
`#` starts a comment):

    duration     60          # seconds, required
    seed         7           # optional, default 0
    benign_rate  100         # background packets/s, optional, default 100
    episode syn_flood 10 20 1500 40  # kind start end rate attackers (ignored)

Every stream targets one victim, VICTIM_IP (10.0.0.10) port VICTIM_PORT
(80). Benign traffic mixes completed TCP handshakes, short HTTP exchanges,
DNS-style UDP lookups and bulk TCP data. Episode kinds: syn_flood sends
SYN-only packets from spoofed 198.18/16 sources and ignores `attackers`;
ack_flood sends bare ACKs belonging to no connection; http_flood completes
minimal handshakes and hammers "GET /" requests; udp_flood sprays small
datagrams at uniformly random ports. Everything is reproducible from the
seed, which is the `seed` line or 0 without one.

Each stream draws from its own generator, seeded with (seed, stream
index): the benign mix is stream 0 and episode i stream i + 1. A stream
draws whole arrays in a fixed order: its arrival times (cumulative sums of
`Generator.exponential` gaps, drawn until they pass the stream's end), then
one `Generator.integers` or `Generator.choice` array per field. Benign
conversations and HTTP-flood sessions then draw one more gap array for the
packets within each conversation, and the payload lengths of the packets
that fall before the end. Changing that order, or any draw in it, changes
the capture.

`encode_records` turns packet records (`_ROW`) into pcap records, many at
once: it writes their headers through pcapio's header dtypes, fills each
record with its payload's fill byte, copies its headers over it as one block
and then each kind's payload prefix as one constant; `build_tcp_frame` and
`build_udp_frame` use it for one frame. A scenario may expect at most
MAX_EXPECTED_PACKETS packets, so that synth stays within SYNTH_MEMORY_BUDGET.
"""

from __future__ import annotations

import ipaddress
import math
from dataclasses import dataclass, field

import numpy as np

from .dataset import TrafficClass, encode_label
from .errors import FloodgateError
from .features import write_truth
from .ioutil import open_text, removed_on_failure, strict_numbers
from .pcapio import (ETHERNET_IPV4, ETHERNET_LEN, ETHERTYPE_IPV4, FLAG_ACK, FLAG_PSH, FLAG_SYN, PROTO_TCP, PROTO_UDP,
                     RECORD_HEADER, TCP_HEADER, UDP_HEADER, byte_items, record_headers, write_records)

_HTTP_SESSION_MIN_GETS = 5
_HTTP_SESSION_MAX_GETS = 14
_HTTP_SESSION_MEAN_PKTS = 3 + (_HTTP_SESSION_MIN_GETS + _HTTP_SESSION_MAX_GETS) / 2

HTTP_GET = b"GET / HTTP/1.1\r\nHost: target\r\n\r\n"
HTTP_RESPONSE = b"HTTP/1.1 200 OK\r\nContent-Length: 0\r\n\r\n"

SPOOF_NET = "198.18.0.0"  # benchmark-reserved range used for spoofed SYN sources
ATTACKER_NET = "198.19.0.0"  # deterministic per-episode attacker hosts
MAX_ATTACKERS = 65534  # the host addresses of ATTACKER_NET's /16

# A stream records each packet as one `_ROW`: its pcap time in integer
# microseconds and nine fields, each in the narrowest type that holds it (26 bytes).
_ROW = np.dtype([("ts_us", "i8"), ("src", "u4"), ("dst", "u4"), ("sport", "u2"), ("dport", "u2"),
                 ("flags", "u1"), ("proto", "u1"), ("ttl", "u1"), ("kind", "u1"), ("plen", "u2")])
_RAW = np.dtype((np.void, _ROW.itemsize))

# Payload kinds: a payload is its kind's prefix, cut or filled out to the
# row's payload length with its kind's fill byte; the encoder writes each
# (kind, bytes kept) prefix as one constant, the same bytes in every record.
_PAYLOADS = (
    (b"", 0),
    (HTTP_GET, 0),
    (HTTP_RESPONSE, ord("x")),
    (b"\x00\x01\x01\x00", ord("q")),
    (b"\x00\x01\x81\x80", ord("a")),
    (b"", ord("d")),
)
ZEROS, GET, RESPONSE, DNS_QUERY, DNS_ANSWER, BULK = range(len(_PAYLOADS))
_PREFIX_LEN = np.array([len(prefix) for prefix, _ in _PAYLOADS])
_FILL = np.array([fill for _, fill in _PAYLOADS], dtype=np.uint8)

# A record is pcapio's RECORD_HEADER and a frame: Ethernet (locally administered MACs), IPv4 without options
# (DF set) and TCP (window 65535) or UDP, sized and written by pcapio's dtypes; UDP overlays the TCP header.
_TCP_WORDS = 5  # the TCP data offset synth writes, in 4-byte words: no options
_TCP_HEAD, _UDP_HEAD = ETHERNET_IPV4.itemsize + 4 * _TCP_WORDS, ETHERNET_IPV4.itemsize + UDP_HEADER.itemsize
_RECORD_HEAD = RECORD_HEADER.itemsize

# Rows encoded at a time: the encoder's working set stays small however long the capture.
# 8192 cut flood_mix's set-up by a tenth, but synth's tracemalloc peak rose to 89.2 B/packet
# there (from 52.0), 196.5 on sparse_windows (78.2) and 300.2 on the pinned test scenario (119.1).
CHUNK_ROWS = 2048

# The most packets a scenario may expect. Until the capture is written, synth
# holds each packet's 26-byte record, plus the temporaries of the stream it
# draws, or a sort key and index per packet while it sorts. Benign traffic,
# the stream with the most temporaries, peaks (tracemalloc) at 96.8-96.9
# B/packet alone at 0.25M and 1M packets; flood_mix's training capture at
# 52.0. The budget keeps 128 B/packet, so 1 GiB allows 8,388,608 packets
# (a pcap of about 0.8 GB).
SYNTH_MEMORY_BUDGET = 1 << 30
SYNTH_PEAK_BYTES_PER_PACKET = 128
MAX_EXPECTED_PACKETS = SYNTH_MEMORY_BUDGET // SYNTH_PEAK_BYTES_PER_PACKET
# A pcap record holds the seconds of its timestamp in 32 bits.
MAX_DURATION_S = 2**32 - 1


def ip_to_int(dotted: str) -> int:
    return int(ipaddress.IPv4Address(dotted))


def _pcap_us(t: np.ndarray) -> np.ndarray:
    """Integer microseconds of non-negative float timestamps: `int(t)` seconds
    plus the fraction's round-half-even microseconds."""
    sec = t.astype(np.int64)
    frac = (t - sec) * 1e6
    sec *= 1_000_000  # in place, like the sum: 16 bytes of temporaries a stamp
    return np.add(sec, np.rint(frac, out=frac), out=sec, dtype=np.int64, casting="unsafe")  # rint's floats are whole


def encode_records(rows: np.ndarray) -> np.ndarray:
    """The pcap records of `_ROW` records, in order, back to back as one uint8 buffer.

    Each record is the record header and the frame in the layout above,
    over its kind's fill byte. Its head (record and frame headers, a
    row of `head`) is copied over `out` as one `np.void` item per record, in
    one scatter per transport; then each (kind, bytes kept) group's cut
    prefix as one constant item.
    """
    src, dst, sport, dport, flags, proto, ttl, kind, plen = (rows[name].astype(np.int64) for name in _ROW.names[1:])
    tcp = proto == PROTO_TCP
    head_len = np.where(tcp, _TCP_HEAD, _UDP_HEAD)
    frame_len = head_len + plen
    ip_len = frame_len - ETHERNET_LEN

    head = np.zeros((len(rows), _RECORD_HEAD + _TCP_HEAD), dtype=np.uint8)
    record_headers(head, *np.divmod(rows["ts_us"], 1_000_000), frame_len)
    body = _RECORD_HEAD + ETHERNET_IPV4.itemsize
    ip = head[:, _RECORD_HEAD:body].view(ETHERNET_IPV4)[:, 0]
    for mac, addr in ((ip["dst_mac"], dst), (ip["src_mac"], src)):  # 02:00, then the IPv4 address
        mac[:, 0], mac[:, 2:].view(">u4")[:, 0] = 2, addr
    ip["ethertype"], ip["version_ihl"] = ETHERTYPE_IPV4, 0x45
    ip["total_len"], ip["fragment"], ip["ttl"], ip["proto"] = ip_len, 0x4000, ttl, proto
    ip["src_ip"], ip["dst_ip"] = src, dst
    # One's-complement sum of the IPv4 header's words (id and checksum are 0); the first fold can carry again.
    total = sum((0x4500, ip_len, 0x4000, ttl << 8 | proto, src >> 16, src & 0xFFFF, dst >> 16, dst & 0xFFFF))
    total = (total & 0xFFFF) + (total >> 16)
    total = (total & 0xFFFF) + (total >> 16)
    ip["checksum"] = ~total & 0xFFFF
    udp = head[:, body : body + UDP_HEADER.itemsize].view(UDP_HEADER)[:, 0]
    udp["src_port"], udp["dst_port"], udp["length"] = sport, dport, np.where(tcp, 0, frame_len - ETHERNET_IPV4.itemsize)
    tcp_head = head[:, body : body + TCP_HEADER.itemsize].view(TCP_HEADER)[:, 0]
    tcp_head["data_offset"], tcp_head["flags"] = _TCP_WORDS << 4, flags
    head[:, body + TCP_HEADER.itemsize :].view(">u2")[:, 0] = 0xFFFF  # the window, 65535, just past TCP_HEADER
    record_len = _RECORD_HEAD + frame_len
    starts = np.cumsum(record_len) - record_len
    out = np.repeat(_FILL[kind], record_len)
    for rows_of, n in ((tcp, _RECORD_HEAD + _TCP_HEAD), (~tcp, _RECORD_HEAD + _UDP_HEAD)):
        firsts = np.ndarray(len(rows), (np.void, n), head, strides=head.strides[:1])  # each row's first n bytes
        byte_items(out, (np.void, n))[starts[rows_of]] = firsts[rows_of]
    starts += _RECORD_HEAD + head_len  # now each payload's offset
    group = np.minimum(_PREFIX_LEN[kind], plen) * len(_PAYLOADS) + kind  # (prefix bytes kept, kind)
    for key in np.flatnonzero(np.bincount(group)).tolist():  # a handful; np.unique would import numpy.ma
        n, k = divmod(key, len(_PAYLOADS))
        if n:
            byte_items(out, (np.void, n))[starts[group == key]] = np.void(_PAYLOADS[k][0][:n])
    return out


def _build_frame(src_ip, dst_ip, src_port, dst_port, flags, proto, ttl, payload: bytes) -> bytes:
    row = np.array([(0, src_ip, dst_ip, src_port, dst_port, flags, proto, ttl, ZEROS, len(payload))], _ROW)
    frame = encode_records(row)[_RECORD_HEAD:]
    return frame[: len(frame) - len(payload)].tobytes() + payload


def build_tcp_frame(
    src_ip: int, dst_ip: int, src_port: int, dst_port: int, flags: int, payload: bytes = b"", ttl: int = 64
) -> bytes:
    return _build_frame(src_ip, dst_ip, src_port, dst_port, flags, PROTO_TCP, ttl, payload)


def build_udp_frame(
    src_ip: int, dst_ip: int, src_port: int, dst_port: int, payload: bytes = b"", ttl: int = 64
) -> bytes:
    return _build_frame(src_ip, dst_ip, src_port, dst_port, 0, PROTO_UDP, ttl, payload)


@dataclass(frozen=True)
class Episode:
    attack: TrafficClass
    start: float
    end: float
    rate: float
    attackers: int


@dataclass
class ScenarioConfig:
    duration: float
    seed: int = 0
    benign_rate: float = 100.0
    episodes: list[Episode] = field(default_factory=list)

    def __post_init__(self):
        # Each range test also rejects nan, which fails every comparison.
        if not 0 < self.duration <= MAX_DURATION_S:
            raise FloodgateError(f"duration must be positive and finite, at most {MAX_DURATION_S} s (a pcap timestamp)")
        if self.seed < 0:
            raise FloodgateError("seed must be non-negative")
        if not 0 <= self.benign_rate < math.inf:
            raise FloodgateError("benign_rate must be non-negative and finite")
        for ep in self.episodes:
            if ep.attack is TrafficClass.NORMAL:
                raise FloodgateError("episodes must use one of the four attack classes")
            if not (0 <= ep.start < ep.end <= self.duration):
                raise FloodgateError(
                    f"episode [{ep.start}, {ep.end}) falls outside [0, {self.duration}]"
                )
            if not 0 < ep.rate < math.inf:
                raise FloodgateError("episode rate must be positive and finite")
            if not 1 <= ep.attackers <= MAX_ATTACKERS:
                raise FloodgateError(
                    f"episode needs at least one attacker and at most {MAX_ATTACKERS}, the hosts of {ATTACKER_NET}/16"
                )
        ordered = sorted(self.episodes, key=lambda e: e.start)
        for a, b in zip(ordered, ordered[1:]):
            if b.start < a.end:
                raise FloodgateError(
                    f"episodes overlap: [{a.start}, {a.end}) and [{b.start}, {b.end})"
                )
        expected = self.benign_rate * self.duration + sum(ep.rate * (ep.end - ep.start) for ep in self.episodes)
        if expected > MAX_EXPECTED_PACKETS:
            raise FloodgateError(
                f"scenario expects {expected:.4g} packets, more than the {MAX_EXPECTED_PACKETS} "
                f"that fit synth's {SYNTH_MEMORY_BUDGET >> 20} MiB memory budget"
            )


# How each scalar directive's value is read; an absent one takes the `ScenarioConfig` default.
_SCALAR_KINDS = {"duration": float, "seed": int, "benign_rate": float}


def parse_scenario(text: str) -> ScenarioConfig:
    """Parse the scenario config grammar documented in the module docstring.

    Every number is read by `strict_numbers`, so `1_0` or `\u0663` is malformed.
    """
    values: dict[str, str] = {}
    episodes: list[Episode] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        key = parts[0]
        if key == "episode":
            if len(parts) != 6:
                raise FloodgateError(f"line {lineno}: episode needs kind start end rate attackers")
            kind = encode_label(parts[1], f"line {lineno}: ")
            try:
                episodes.append(Episode(kind, *strict_numbers(parts[2:5]), *strict_numbers(parts[5:], int)))
            except ValueError:
                raise FloodgateError(f"line {lineno}: malformed episode numbers") from None
        elif key in _SCALAR_KINDS:
            if len(parts) != 2:
                raise FloodgateError(f"line {lineno}: {key} takes exactly one value")
            if key in values:
                raise FloodgateError(f"line {lineno}: duplicate {key}")
            values[key] = parts[1]
        else:
            raise FloodgateError(f"line {lineno}: unknown directive {key!r}")

    if "duration" not in values:
        raise FloodgateError("missing required directive: duration")
    try:
        return ScenarioConfig(
            **{key: strict_numbers([text], _SCALAR_KINDS[key])[0] for key, text in values.items()},
            episodes=episodes,
        )
    except ValueError as exc:
        raise FloodgateError(f"malformed directive value: {exc}") from None


def load_scenario(path) -> ScenarioConfig:
    with open_text(path) as fh:
        try:
            return parse_scenario(fh.read())
        except FloodgateError as exc:
            raise FloodgateError(f"{path}: {exc}") from None


VICTIM_IP = ip_to_int("10.0.0.10")
VICTIM_PORT = 80
# Benign client pool: even hosts behave Linux-like (TTL 64), odd Windows-like (128).
_CLIENTS = np.array([ip_to_int(f"192.168.1.{10 + i}") for i in range(12)])
_DNS_SERVER = ip_to_int("192.168.1.2")


# The packets of a conversation, one template row each: whether the client
# sends it (the server answers otherwise), the server's address and port, TCP
# flags, IP protocol, payload kind and the payload length's range [low, high).
_CONVERSATION = np.array(
    [
        (True, VICTIM_IP, VICTIM_PORT, FLAG_SYN, PROTO_TCP, ZEROS, 0, 1),
        (False, VICTIM_IP, VICTIM_PORT, FLAG_SYN | FLAG_ACK, PROTO_TCP, ZEROS, 0, 1),
        (True, VICTIM_IP, VICTIM_PORT, FLAG_ACK, PROTO_TCP, ZEROS, 0, 1),
        (True, VICTIM_IP, VICTIM_PORT, FLAG_PSH | FLAG_ACK, PROTO_TCP, GET, len(HTTP_GET), len(HTTP_GET) + 1),
        (False, VICTIM_IP, VICTIM_PORT, FLAG_PSH | FLAG_ACK, PROTO_TCP, RESPONSE,
         len(HTTP_RESPONSE) + 100, len(HTTP_RESPONSE) + 900),
        (True, _DNS_SERVER, 53, 0, PROTO_UDP, DNS_QUERY, 4 + 12, 4 + 40),
        (False, _DNS_SERVER, 53, 0, PROTO_UDP, DNS_ANSWER, 4 + 20, 4 + 80),
        (False, VICTIM_IP, VICTIM_PORT, FLAG_PSH | FLAG_ACK, PROTO_TCP, BULK, 400, 1400),
    ],
    dtype=[("client_sends", "?"), ("server", "u4"), ("server_port", "u2"), ("flags", "u1"), ("proto", "u1"),
           ("kind", "u1"), ("plen_low", "u2"), ("plen_high", "u2")],
)
# Benign conversation mix: handshake, HTTP exchange, DNS lookup and bulk data
# from the server, with their weights, first template rows and packets.
_BENIGN_WEIGHTS = np.array([0.25, 0.35, 0.20, 0.20])
_BENIGN_FIRST_ROW = np.array([0, 0, 5, 7])
_BENIGN_PACKETS = np.array([3, 5, 2, 1])
_MEAN_EVENT_PKTS = float(_BENIGN_WEIGHTS @ _BENIGN_PACKETS)
# An HTTP-flood session is template rows 0-3, its GET (row 3) repeated.
_HTTP_GET_ROW = 3


def _arrivals(rng: np.random.Generator, start: float, end: float, rate: float) -> np.ndarray:
    """Poisson arrival times over [start, end) at `rate` per second: cumulative
    sums of exponential gaps, drawn in batches until one passes `end`."""
    expected = rate * (end - start)
    batch = int(expected + 5 * math.sqrt(expected)) + 1
    times = start + np.cumsum(rng.exponential(1.0 / rate, batch))
    while times[-1] < end:
        times = np.concatenate((times, times[-1] + np.cumsum(rng.exponential(1.0 / rate, batch))))
    return times[: times.searchsorted(end)]


def _conversations(rng, start, sizes, first_row, last_row, gap, end, client, cport, client_ttl) -> np.ndarray:
    """The records of conversations that start at `start` and hold `sizes` packets each.

    Packet j of a conversation follows template row min(first_row + j,
    last_row) and comes an exponential gap of mean `gap` seconds after packet
    j - 1. `first_row`, `last_row`, `client`, `cport` and `client_ttl` are one
    value or one per conversation. Packets at or past `end` are dropped; the
    rest stay in conversation order, and in packet order within one.
    """
    conv = np.repeat(np.arange(len(start)), sizes)
    first = np.cumsum(sizes) - sizes
    times = rng.exponential(gap, len(conv))
    times[first] = 0.0
    times.cumsum(out=times)
    times += np.repeat(start - times[first], sizes)
    index = np.flatnonzero(times < end)  # each kept packet's index in the stream
    out = np.empty(len(index), _ROW)
    times = times[index]  # the stream's full-length times go before the stamps' temporaries come
    out["ts_us"] = _pcap_us(times)
    del times
    conv = conv[index]

    def each(value):
        """A value per conversation (or one for all), per kept packet."""
        return np.broadcast_to(value, len(start))[conv]

    index -= first[conv]  # now each kept packet's position in its conversation
    index += each(first_row)
    np.minimum(index, each(last_row), out=index)  # now each kept packet's template row

    def template(name):
        """Field `name` of each kept packet's template row."""
        return _CONVERSATION[name][index]

    by_client = template("client_sends")

    def exchange(mine, theirs, client_value, server_value):
        """The client's value is field `mine` of what it sends and field `theirs` of the answers."""
        client_value = each(client_value)
        out[mine] = np.where(by_client, client_value, server_value)
        out[theirs] = np.where(by_client, server_value, client_value)

    exchange("src", "dst", client, template("server"))
    exchange("sport", "dport", cport, template("server_port"))
    out["ttl"] = np.where(by_client, each(client_ttl), 64)
    for name in ("flags", "proto", "kind"):
        out[name] = template(name)
    out["plen"] = rng.integers(template("plen_low"), template("plen_high"))
    return out


def gen_benign(rate: float, end: float, rng: np.random.Generator) -> np.ndarray:
    """The records of background conversations' packets over [0, end)."""
    if rate <= 0:
        return np.empty(0, _ROW)
    start = _arrivals(rng, 0.0, end, rate / _MEAN_EVENT_PKTS)
    kind = rng.choice(len(_BENIGN_WEIGHTS), len(start), p=_BENIGN_WEIGHTS)
    client_idx = rng.integers(0, len(_CLIENTS), len(start))
    cport = rng.integers(1024, 65536, len(start))
    first_row, sizes = _BENIGN_FIRST_ROW[kind], _BENIGN_PACKETS[kind]
    return _conversations(rng, start, sizes, first_row, first_row + sizes - 1, 0.001, end,
                          _CLIENTS[client_idx], cport, np.where(client_idx % 2, 128, 64))


def gen_attack(ep: Episode, rng: np.random.Generator) -> np.ndarray:
    """The records of one episode's packets over [start, end)."""
    first_attacker = ip_to_int(ATTACKER_NET) + 1  # attacker i is first_attacker + i
    if ep.attack is TrafficClass.HTTP_FLOOD:
        start = _arrivals(rng, ep.start, ep.end, ep.rate / _HTTP_SESSION_MEAN_PKTS)
        src = first_attacker + rng.integers(0, ep.attackers, len(start))
        sport = rng.integers(1024, 65536, len(start))
        sizes = 3 + rng.integers(_HTTP_SESSION_MIN_GETS, _HTTP_SESSION_MAX_GETS + 1, len(start))
        return _conversations(rng, start, sizes, 0, _HTTP_GET_ROW, 0.002, ep.end, src, sport, 64)

    t = _arrivals(rng, ep.start, ep.end, ep.rate)
    n = len(t)
    # Every field is one array, drawn in the order written.
    if ep.attack is TrafficClass.SYN_FLOOD:
        fields = dict(src=ip_to_int(SPOOF_NET) + rng.integers(1, 65535, n), sport=rng.integers(1024, 65536, n),
                      ttl=rng.integers(32, 256, n), dport=VICTIM_PORT, flags=FLAG_SYN, proto=PROTO_TCP, plen=0)
    elif ep.attack is TrafficClass.ACK_FLOOD:
        fields = dict(src=first_attacker + rng.integers(0, ep.attackers, n), sport=rng.integers(1024, 65536, n),
                      ttl=64, dport=VICTIM_PORT, flags=FLAG_ACK, proto=PROTO_TCP, plen=0)
    else:  # UDP_FLOOD, the one kind left that ScenarioConfig accepts
        fields = dict(src=first_attacker + rng.integers(0, ep.attackers, n), sport=rng.integers(1024, 65536, n),
                      dport=rng.integers(1, 65536, n), plen=rng.integers(8, 65, n), ttl=64, flags=0, proto=PROTO_UDP)
    out = np.empty(n, _ROW)
    for name, value in dict(fields, ts_us=_pcap_us(t), dst=VICTIM_IP, kind=ZEROS).items():
        out[name] = value
    return out


def run_scenario(cfg: ScenarioConfig, out_pcap_path, out_truth_path) -> int:
    """Generate the scenario, write the pcap and then the truth CSV (or neither); returns packet count.

    Each stream (benign, then each episode in config order) draws from its own
    seeded generator, so output is byte-identical for a given config and seed.
    Records are written in timestamp order; packets with equal timestamps keep
    the order in which they were drawn.
    """
    streams = [gen_benign(cfg.benign_rate, cfg.duration, np.random.default_rng((cfg.seed, 0)))]
    streams += [gen_attack(ep, np.random.default_rng((cfg.seed, i + 1))) for i, ep in enumerate(cfg.episodes)]
    # numpy copies a packed structured dtype field by field; raw `_RAW` items move as whole blocks.
    rows = np.concatenate([stream.view(_RAW) for stream in streams])
    del streams  # the streams' copies go before the sort's key and index come
    order = np.argsort(rows.view(_ROW)["ts_us"], kind="stable")
    write_records(
        out_pcap_path,
        (encode_records(rows[order[i : i + CHUNK_ROWS]].view(_ROW)) for i in range(0, len(order), CHUNK_ROWS)),
    )
    with removed_on_failure(out_pcap_path):
        write_truth(out_truth_path, [(ep.start, ep.end, ep.attack) for ep in cfg.episodes])
    return len(rows)
