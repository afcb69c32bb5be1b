"""Deterministic synthetic traffic: benign background plus flood episodes.

A scenario is described by a small text config (one directive per line,
`#` starts a comment):

    duration     60          # seconds, required
    seed         7           # optional, default 0
    benign_rate  100         # background packets/s, optional, default 100
    episode syn_flood 10 20 1500 40   # kind start end rate attackers

Every stream targets one victim, VICTIM_IP (10.0.0.10) port VICTIM_PORT
(80). Benign traffic mixes completed TCP handshakes, short HTTP exchanges,
DNS-style UDP lookups and bulk TCP data. Episode kinds: syn_flood sends
SYN-only packets from spoofed 198.18/16 sources; ack_flood sends bare ACKs
belonging to no connection; http_flood completes minimal handshakes and
hammers "GET /" requests; udp_flood sprays small datagrams at uniformly
random ports. Everything is reproducible from the seed, which is the
`seed` line or 0 without one.

The draws fix the bytes: each stream calls its seeded generator in a fixed
order and records every packet as one row of fields (time, addresses,
ports, flags, protocol, TTL, payload kind and length), and changing that
order changes the capture. Gaps and the benign mix are
`Generator.exponential` and `Generator.random` draws. Bounded integers are
taken from the generator's raw PCG64 words (`_halves`) by the rule
`Generator.integers` applies to them, Lemire's multiply-shift with
rejection on 32-bit halves (`_integers`), without that method's per-call
overhead. A capture so depends on PCG64's raw stream, which numpy keeps
stable, and not on `Generator.integers`; a `Generator.integers` call in a
stream would take the half-word `_halves` holds and change the capture.

`encode_records` turns rows into pcap records, headers, checksums and
payloads of many rows at once; it holds the one frame layout, which
`build_tcp_frame` and `build_udp_frame` use for one frame. A scenario may
expect at most MAX_EXPECTED_PACKETS packets, so that synth stays within
SYNTH_MEMORY_BUDGET.
"""

from __future__ import annotations

import ipaddress
import math
from array import array
from dataclasses import dataclass, field

import numpy as np

from .dataset import TrafficClass, encode_label
from .errors import FloodgateError
from .features import write_truth
from .ioutil import open_text, removed_on_failure, strict_numbers
from .pcapio import ETHERTYPE_IPV4, FLAG_ACK, FLAG_PSH, FLAG_SYN, PROTO_TCP, PROTO_UDP, record_headers, write_records

# Benign conversation mix: (kind, weight, packets per conversation).
_BENIGN_MIX = (
    ("handshake", 0.25, 3),
    ("http", 0.35, 5),
    ("dns", 0.20, 2),
    ("bulk", 0.20, 1),
)
_MEAN_EVENT_PKTS = sum(w * k for _, w, k in _BENIGN_MIX)
# What Generator.choice(p=weights) computes from one rng.random() draw.
_MIX_CDF = np.array([w for _, w, _ in _BENIGN_MIX]).cumsum()
_MIX_CDF /= _MIX_CDF[-1]

_HTTP_SESSION_MIN_GETS = 5
_HTTP_SESSION_MAX_GETS = 14
_HTTP_SESSION_MEAN_PKTS = 3 + (_HTTP_SESSION_MIN_GETS + _HTTP_SESSION_MAX_GETS) / 2

HTTP_GET = b"GET / HTTP/1.1\r\nHost: target\r\n\r\n"
HTTP_RESPONSE = b"HTTP/1.1 200 OK\r\nContent-Length: 0\r\n\r\n"

SPOOF_NET = "198.18.0.0"  # benchmark-reserved range used for spoofed SYN sources
ATTACKER_NET = "198.19.0.0"  # deterministic per-episode attacker hosts
MAX_ATTACKERS = 65534  # the host addresses of ATTACKER_NET's /16

# One packet is one row of N_FIELDS float64s (every integer field is below
# 2**53): time, source and destination IPv4 address, source and destination
# port, TCP flags, IP protocol, TTL, payload kind and payload length.
N_FIELDS = 10

# Payload kinds: a payload is its kind's prefix, cut or filled out to the
# row's payload length with its kind's fill byte.
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
_PREFIX = np.array([list(prefix.ljust(_PREFIX_LEN.max(), b"\0")) for prefix, _ in _PAYLOADS], dtype=np.uint8)
_FILL = np.array([fill for _, fill in _PAYLOADS], dtype=np.uint8)

# The one frame layout: Ethernet (locally administered MACs 02:00 + the IPv4
# address), IPv4 without options (DF set, checksum filled in afterwards), and
# TCP (data offset 5 words, window 65535) or UDP, which overlays the start of
# the TCP header. Every field not named here is zero.
_FRAME_HEAD = np.dtype({
    "names": ["dst_mac", "dst_mac_ip", "src_mac", "src_mac_ip", "ethertype", "version_ihl", "ip_len",
              "ip_flags", "ttl", "proto", "checksum", "src", "dst", "sport", "dport", "udp_len",
              "data_offset", "tcp_flags", "window"],
    "formats": [">u2", ">u4", ">u2", ">u4", ">u2", "u1", ">u2",
                ">u2", "u1", "u1", ">u2", ">u4", ">u4", ">u2", ">u2", ">u2",
                "u1", "u1", ">u2"],
    "offsets": [0, 2, 6, 8, 12, 14, 16, 20, 22, 23, 24, 26, 30, 34, 36, 38, 46, 47, 48],
    "itemsize": 54,
})
_TCP_HEAD, _UDP_HEAD = 54, 42
_IP_HEAD = slice(14, 34)
_RECORD_HEAD = 16  # the pcap record header before each frame

# Rows encoded at a time: the encoder's working set stays small however long the capture.
CHUNK_ROWS = 2048

# The most packets a scenario may expect. Until the capture is written, synth
# holds each packet's row plus its sort key and index: a tracemalloc peak of
# 125-126 B/packet at 0.38M and 0.86M packets, rounded up to 128. A 1 GiB
# budget then allows 8,388,608 packets (a pcap of about 0.8 GB).
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
    return sec * 1_000_000 + np.rint((t - sec) * 1e6).astype(np.int64)


def encode_records(rows: np.ndarray) -> np.ndarray:
    """The pcap records of packet rows, in row order, back to back as one uint8 buffer.

    `rows` is an (n, N_FIELDS) float64 array; each record is the 16-byte
    record header and the frame in the one layout above.
    """
    sec, usec = np.divmod(_pcap_us(rows[:, 0]), 1_000_000)
    src, dst, sport, dport, flags, proto, ttl, kind, plen = rows[:, 1:].T.astype(np.int64)
    tcp = proto == PROTO_TCP
    head_len = np.where(tcp, _TCP_HEAD, _UDP_HEAD)
    frame_len = head_len + plen

    head = np.zeros(len(rows), _FRAME_HEAD)
    head["dst_mac"] = head["src_mac"] = 0x0200
    head["dst_mac_ip"], head["src_mac_ip"] = dst, src
    head["ethertype"] = ETHERTYPE_IPV4
    head["version_ihl"] = 0x45
    head["ip_len"] = frame_len - 14
    head["ip_flags"] = 0x4000
    head["ttl"], head["proto"], head["src"], head["dst"] = ttl, proto, src, dst
    head["sport"], head["dport"] = sport, dport
    head["udp_len"] = np.where(tcp, 0, frame_len - 34)
    head["data_offset"], head["tcp_flags"], head["window"] = 5 << 4, flags, 0xFFFF
    head_bytes = head.view(np.uint8).reshape(len(rows), -1)
    # One's-complement sum of the IPv4 header's ten words; the first fold can carry again.
    total = head_bytes[:, _IP_HEAD].view(">u2").sum(axis=1)
    total = (total & 0xFFFF) + (total >> 16)
    total = (total & 0xFFFF) + (total >> 16)
    head["checksum"] = ~total & 0xFFFF

    # Each record starts with the bytes of `lead`: record header, frame
    # header, then as much of the payload prefix as the payload holds. The
    # rest of the record is the kind's fill byte.
    lead = np.zeros((len(rows), _RECORD_HEAD + _TCP_HEAD + _PREFIX.shape[1]), dtype=np.uint8)
    lead[:, :_RECORD_HEAD] = record_headers(sec, usec, frame_len)
    lead[:, _RECORD_HEAD : _RECORD_HEAD + _TCP_HEAD] = head_bytes
    for rows_of, at in ((tcp, _RECORD_HEAD + _TCP_HEAD), (~tcp, _RECORD_HEAD + _UDP_HEAD)):
        lead[rows_of, at : at + _PREFIX.shape[1]] = _PREFIX[kind[rows_of]]
    lead_len = _RECORD_HEAD + head_len + np.minimum(_PREFIX_LEN[kind], plen)
    record_len = _RECORD_HEAD + frame_len
    out = np.repeat(_FILL[kind], record_len)
    start = np.cumsum(record_len) - record_len
    # +1 where a lead starts and -1 where it ends: the running sum is 1 on lead bytes.
    edge = np.zeros(len(out) + 1, dtype=np.int8)
    edge[start] = 1
    edge[start + lead_len] -= 1
    out[np.cumsum(edge[:-1], dtype=np.int8).view(bool)] = lead[np.arange(lead.shape[1]) < lead_len[:, None]]
    return out


def _build_frame(src_ip, dst_ip, src_port, dst_port, flags, proto, ttl, payload: bytes) -> bytes:
    row = np.array([[0, src_ip, dst_ip, src_port, dst_port, flags, proto, ttl, ZEROS, len(payload)]], np.float64)
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
            try:
                kind = encode_label(parts[1])
            except FloodgateError:
                raise FloodgateError(f"line {lineno}: unknown attack kind {parts[1]!r}") from None
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
        return parse_scenario(fh.read())


VICTIM_IP = ip_to_int("10.0.0.10")
VICTIM_PORT = 80
# Benign client pool: even hosts behave Linux-like (TTL 64), odd Windows-like (128).
_CLIENTS = tuple(ip_to_int(f"192.168.1.{10 + i}") for i in range(12))
_DNS_SERVER = ip_to_int("192.168.1.2")


def _arrivals(rng: np.random.Generator, start: float, end: float, rate: float):
    """Poisson arrival times over [start, end) at `rate` per second. Each gap
    is drawn only after the caller's draws for the previous arrival."""
    t = start + rng.exponential(1.0 / rate)
    while t < end:
        yield t
        t += rng.exponential(1.0 / rate)


def _halves(rng: np.random.Generator):
    """The 32-bit halves of the generator's raw PCG64 words, low half first.

    This is how PCG64 serves 32-bit draws: a word's high half waits for the
    next one, and draws of whole words in between (`exponential`, `random`)
    leave it waiting.
    """
    raw = rng.bit_generator.random_raw
    while True:
        word = raw()
        yield word & 0xFFFFFFFF
        yield word >> 32


def _integers(halves, low: int, high: int) -> int:
    """What `Generator.integers(low, high)` draws, for high - low <= 2**32, taken from `_halves`.

    numpy's rule is Lemire's multiply-shift with rejection on 32-bit draws,
    and a span of 1 draws nothing.
    """
    span = high - low
    if span == 1:
        return low
    m = next(halves) * span
    if m & 0xFFFFFFFF < span:  # the cheap test numpy makes before the exact one
        threshold = (2**32 - span) % span
        while m & 0xFFFFFFFF < threshold:
            m = next(halves) * span
    return low + (m >> 32)


def gen_benign(rate: float, end: float, rng: np.random.Generator, rows: array) -> None:
    """Record background conversations' packets over [0, end) as rows appended to `rows`."""
    if rate <= 0:
        return
    victim, vport = VICTIM_IP, VICTIM_PORT
    put = rows.extend
    halves = _halves(rng)

    for t in _arrivals(rng, 0.0, end, rate / _MEAN_EVENT_PKTS):
        kind = _BENIGN_MIX[_MIX_CDF.searchsorted(rng.random(), side="right")][0]
        client_idx = _integers(halves, 0, len(_CLIENTS))
        client = _CLIENTS[client_idx]
        ttl = 64 if client_idx % 2 == 0 else 128
        cport = _integers(halves, 1024, 65536)
        when = t

        def push(*fields) -> None:
            nonlocal when
            if when < end:
                put((when, *fields))
            when += rng.exponential(0.001)

        if kind in ("handshake", "http"):
            push(client, victim, cport, vport, FLAG_SYN, PROTO_TCP, ttl, ZEROS, 0)
            push(victim, client, vport, cport, FLAG_SYN | FLAG_ACK, PROTO_TCP, 64, ZEROS, 0)
            push(client, victim, cport, vport, FLAG_ACK, PROTO_TCP, ttl, ZEROS, 0)
            if kind == "http":
                push(client, victim, cport, vport, FLAG_PSH | FLAG_ACK, PROTO_TCP, ttl, GET, len(HTTP_GET))
                body_len = len(HTTP_RESPONSE) + _integers(halves, 100, 900)
                push(victim, client, vport, cport, FLAG_PSH | FLAG_ACK, PROTO_TCP, 64, RESPONSE, body_len)
        elif kind == "dns":
            query_len = 4 + _integers(halves, 12, 40)
            push(client, _DNS_SERVER, cport, 53, 0, PROTO_UDP, ttl, DNS_QUERY, query_len)
            answer_len = 4 + _integers(halves, 20, 80)
            push(_DNS_SERVER, client, 53, cport, 0, PROTO_UDP, 64, DNS_ANSWER, answer_len)
        else:  # bulk data from the server
            body_len = _integers(halves, 400, 1400)
            push(victim, client, vport, cport, FLAG_PSH | FLAG_ACK, PROTO_TCP, 64, BULK, body_len)


def gen_attack(ep: Episode, rng: np.random.Generator, rows: array) -> None:
    """Record one episode's packets over [start, end) as rows appended to `rows`."""
    victim, vport = VICTIM_IP, VICTIM_PORT
    first_attacker = ip_to_int(ATTACKER_NET) + 1  # attacker i is first_attacker + i
    put = rows.extend
    halves = _halves(rng)

    if ep.attack is TrafficClass.SYN_FLOOD:
        spoof_base = ip_to_int(SPOOF_NET)
        for t in _arrivals(rng, ep.start, ep.end, ep.rate):
            src = spoof_base + _integers(halves, 1, 65535)
            sport = _integers(halves, 1024, 65536)
            ttl = _integers(halves, 32, 256)
            put((t, src, victim, sport, vport, FLAG_SYN, PROTO_TCP, ttl, ZEROS, 0))

    elif ep.attack is TrafficClass.ACK_FLOOD:
        for t in _arrivals(rng, ep.start, ep.end, ep.rate):
            src = first_attacker + _integers(halves, 0, ep.attackers)
            sport = _integers(halves, 1024, 65536)
            put((t, src, victim, sport, vport, FLAG_ACK, PROTO_TCP, 64, ZEROS, 0))

    elif ep.attack is TrafficClass.HTTP_FLOOD:
        for t in _arrivals(rng, ep.start, ep.end, ep.rate / _HTTP_SESSION_MEAN_PKTS):
            src = first_attacker + _integers(halves, 0, ep.attackers)
            sport = _integers(halves, 1024, 65536)
            when = t
            packets = [
                (src, victim, sport, vport, FLAG_SYN, PROTO_TCP, 64, ZEROS, 0),
                (victim, src, vport, sport, FLAG_SYN | FLAG_ACK, PROTO_TCP, 64, ZEROS, 0),
                (src, victim, sport, vport, FLAG_ACK, PROTO_TCP, 64, ZEROS, 0),
            ]
            gets = _integers(halves, _HTTP_SESSION_MIN_GETS, _HTTP_SESSION_MAX_GETS + 1)
            packets += [(src, victim, sport, vport, FLAG_PSH | FLAG_ACK, PROTO_TCP, 64, GET, len(HTTP_GET))] * gets
            for fields in packets:
                if when < ep.end:
                    put((when, *fields))
                when += rng.exponential(0.002)

    elif ep.attack is TrafficClass.UDP_FLOOD:
        for t in _arrivals(rng, ep.start, ep.end, ep.rate):
            src = first_attacker + _integers(halves, 0, ep.attackers)
            payload_len = _integers(halves, 8, 65)
            sport = _integers(halves, 1024, 65536)
            dport = _integers(halves, 1, 65536)
            put((t, src, victim, sport, dport, 0, PROTO_UDP, 64, ZEROS, payload_len))

    else:  # pragma: no cover - ScenarioConfig validation rejects this
        raise ValueError(f"unsupported episode kind {ep.attack}")


def run_scenario(cfg: ScenarioConfig, out_pcap_path, out_truth_path) -> int:
    """Generate the scenario, write the pcap and then the truth CSV (or neither); returns packet count.

    Each stream (benign, then each episode in config order) draws from its own
    seeded generator, so output is byte-identical for a given config and seed.
    Records are written in timestamp order; packets with equal timestamps keep
    the order in which they were drawn.
    """
    rec = array("d")
    gen_benign(cfg.benign_rate, cfg.duration, np.random.default_rng((cfg.seed, 0)), rec)
    for index, ep in enumerate(cfg.episodes):
        gen_attack(ep, np.random.default_rng((cfg.seed, index + 1)), rec)

    rows = np.frombuffer(rec, dtype=np.float64).reshape(-1, N_FIELDS)
    order = np.argsort(_pcap_us(rows[:, 0]), kind="stable")
    write_records(
        out_pcap_path,
        (encode_records(rows[order[i : i + CHUNK_ROWS]]) for i in range(0, len(order), CHUNK_ROWS)),
    )
    with removed_on_failure(out_pcap_path):
        write_truth(out_truth_path, [(ep.start, ep.end, ep.attack) for ep in cfg.episodes])
    return len(rows)
