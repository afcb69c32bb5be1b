"""Deterministic synthetic traffic: benign background plus flood episodes.

A scenario is described by a small text config (one directive per line,
`#` starts a comment):

    duration     60          # seconds, required
    seed         7           # optional, default 0
    benign_rate  100         # background packets/s, optional, default 100
    victim_ip    10.0.0.10   # optional
    victim_port  80          # optional
    episode syn_flood 10 20 1500 40   # kind start end rate attackers

Benign traffic mixes completed TCP handshakes, short HTTP exchanges,
DNS-style UDP lookups and bulk TCP data. Episode kinds: syn_flood sends
SYN-only packets from spoofed 198.18/16 sources; ack_flood sends bare ACKs
belonging to no connection; http_flood completes minimal handshakes and
hammers "GET /" requests at port 80; udp_flood sprays small datagrams at
uniformly random ports. Everything is reproducible from the seed.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field

import numpy as np

from .dataset import TrafficClass, encode_label
from .errors import BadScenario, UnknownLabel
from .features import write_truth
from .pcapio import Frame, write_pcap

_ETH = struct.Struct("!6s6sH")
_IPV4 = struct.Struct("!BBHHHBBH4s4s")
_TCP = struct.Struct("!HHIIBBHHH")
_UDP = struct.Struct("!HHHH")

ETHERTYPE_IPV4 = 0x0800

FLAG_FIN = 0x01
FLAG_SYN = 0x02
FLAG_RST = 0x04
FLAG_PSH = 0x08
FLAG_ACK = 0x10

# Benign conversation mix: (kind, weight, packets per conversation).
_BENIGN_MIX = (
    ("handshake", 0.25, 3),
    ("http", 0.35, 5),
    ("dns", 0.20, 2),
    ("bulk", 0.20, 1),
)
_MEAN_EVENT_PKTS = sum(w * k for _, w, k in _BENIGN_MIX)
_MIX_WEIGHTS = np.array([w for _, w, _ in _BENIGN_MIX])

_HTTP_SESSION_MIN_GETS = 5
_HTTP_SESSION_MAX_GETS = 14
_HTTP_SESSION_MEAN_PKTS = 3 + (_HTTP_SESSION_MIN_GETS + _HTTP_SESSION_MAX_GETS) / 2

HTTP_GET = b"GET / HTTP/1.1\r\nHost: target\r\n\r\n"
HTTP_RESPONSE = b"HTTP/1.1 200 OK\r\nContent-Length: 0\r\n\r\n"

SPOOF_NET = "198.18.0.0"  # benchmark-reserved range used for spoofed SYN sources
ATTACKER_NET = "198.19.0.0"  # deterministic per-episode attacker hosts


def ip_to_int(dotted: str) -> int:
    parts = dotted.split(".")
    if len(parts) != 4:
        raise ValueError(f"bad IPv4 address {dotted!r}")
    value = 0
    for part in parts:
        octet = int(part)
        if not 0 <= octet <= 255:
            raise ValueError(f"bad IPv4 address {dotted!r}")
        value = (value << 8) | octet
    return value


def _mac_for(ip: int) -> bytes:
    # Locally administered MAC derived from the IPv4 address.
    return b"\x02\x00" + ip.to_bytes(4, "big")


def _ip_checksum(header: bytes) -> int:
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
    checksum = _ip_checksum(header)
    return header[:10] + checksum.to_bytes(2, "big") + header[12:] + payload


def build_tcp_frame(
    src_ip: int, dst_ip: int, src_port: int, dst_port: int, flags: int,
    payload: bytes = b"", ttl: int = 64, seq: int = 0, ack_no: int = 0,
) -> bytes:
    tcp = _TCP.pack(src_port, dst_port, seq, ack_no, 5 << 4, flags, 65535, 0, 0) + payload
    packet = _ipv4(src_ip, dst_ip, 6, tcp, ttl)
    return _ETH.pack(_mac_for(dst_ip), _mac_for(src_ip), ETHERTYPE_IPV4) + packet


def build_udp_frame(
    src_ip: int, dst_ip: int, src_port: int, dst_port: int,
    payload: bytes = b"", ttl: int = 64,
) -> bytes:
    udp = _UDP.pack(src_port, dst_port, 8 + len(payload), 0) + payload
    packet = _ipv4(src_ip, dst_ip, 17, udp, ttl)
    return _ETH.pack(_mac_for(dst_ip), _mac_for(src_ip), ETHERTYPE_IPV4) + packet


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
    victim_ip: str = "10.0.0.10"
    victim_port: int = 80
    episodes: list[Episode] = field(default_factory=list)

    def __post_init__(self):
        # Comparisons against inf also reject nan, which fails every comparison.
        if not 0 < self.duration < math.inf:
            raise BadScenario("duration must be positive and finite")
        if self.seed < 0:
            raise BadScenario("seed must be non-negative")
        if not 0 <= self.benign_rate < math.inf:
            raise BadScenario("benign_rate must be non-negative and finite")
        if not 1 <= self.victim_port <= 65535:
            raise BadScenario(f"victim_port {self.victim_port} out of range")
        try:
            ip_to_int(self.victim_ip)
        except ValueError as exc:
            raise BadScenario(str(exc)) from None
        for ep in self.episodes:
            if ep.attack is TrafficClass.NORMAL:
                raise BadScenario("episodes must use one of the four attack classes")
            if not (0 <= ep.start < ep.end <= self.duration):
                raise BadScenario(
                    f"episode [{ep.start}, {ep.end}) falls outside [0, {self.duration}]"
                )
            if not 0 < ep.rate < math.inf:
                raise BadScenario("episode rate must be positive and finite")
            if ep.attackers < 1:
                raise BadScenario("episode needs at least one attacker")
        ordered = sorted(self.episodes, key=lambda e: e.start)
        for a, b in zip(ordered, ordered[1:]):
            if b.start < a.end:
                raise BadScenario(
                    f"episodes overlap: [{a.start}, {a.end}) and [{b.start}, {b.end})"
                )


_SCALAR_KEYS = ("duration", "seed", "benign_rate", "victim_ip", "victim_port")


def parse_scenario(text: str, default_seed: int = 0) -> ScenarioConfig:
    """Parse the scenario config grammar documented in the module docstring."""
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
                raise BadScenario(f"line {lineno}: episode needs kind start end rate attackers")
            try:
                kind = encode_label(parts[1])
            except UnknownLabel:
                raise BadScenario(f"line {lineno}: unknown attack kind {parts[1]!r}") from None
            try:
                episodes.append(
                    Episode(kind, float(parts[2]), float(parts[3]), float(parts[4]), int(parts[5]))
                )
            except ValueError:
                raise BadScenario(f"line {lineno}: malformed episode numbers") from None
        elif key in _SCALAR_KEYS:
            if len(parts) != 2:
                raise BadScenario(f"line {lineno}: {key} takes exactly one value")
            if key in values:
                raise BadScenario(f"line {lineno}: duplicate {key}")
            values[key] = parts[1]
        else:
            raise BadScenario(f"line {lineno}: unknown directive {key!r}")

    if "duration" not in values:
        raise BadScenario("missing required directive: duration")
    try:
        return ScenarioConfig(
            duration=float(values["duration"]),
            seed=int(values.get("seed", default_seed)),
            benign_rate=float(values.get("benign_rate", 100.0)),
            victim_ip=values.get("victim_ip", "10.0.0.10"),
            victim_port=int(values.get("victim_port", 80)),
            episodes=episodes,
        )
    except ValueError as exc:
        raise BadScenario(f"malformed directive value: {exc}") from None


def load_scenario(path, default_seed: int = 0) -> ScenarioConfig:
    with open(path) as fh:
        return parse_scenario(fh.read(), default_seed=default_seed)


# Benign client pool: even hosts behave Linux-like (TTL 64), odd Windows-like (128).
_CLIENTS = tuple(ip_to_int(f"192.168.1.{10 + i}") for i in range(12))
_DNS_SERVER = ip_to_int("192.168.1.2")


def gen_benign(cfg: ScenarioConfig, start: float, end: float, rng: np.random.Generator) -> list[tuple[float, bytes]]:
    """Background conversations as (timestamp, frame) events over [start, end)."""
    out: list[tuple[float, bytes]] = []
    if cfg.benign_rate <= 0 or end <= start:
        return out
    victim = ip_to_int(cfg.victim_ip)
    event_rate = cfg.benign_rate / _MEAN_EVENT_PKTS

    t = start + rng.exponential(1.0 / event_rate)
    while t < end:
        kind = _BENIGN_MIX[rng.choice(len(_BENIGN_MIX), p=_MIX_WEIGHTS)][0]
        client_idx = int(rng.integers(len(_CLIENTS)))
        client = _CLIENTS[client_idx]
        ttl = 64 if client_idx % 2 == 0 else 128
        cport = int(rng.integers(1024, 65536))
        when = t

        def push(frame: bytes) -> None:
            nonlocal when
            if when < end:
                out.append((when, frame))
            when += rng.exponential(0.001)

        if kind in ("handshake", "http"):
            push(build_tcp_frame(client, victim, cport, cfg.victim_port, FLAG_SYN, ttl=ttl))
            push(build_tcp_frame(victim, client, cfg.victim_port, cport, FLAG_SYN | FLAG_ACK))
            push(build_tcp_frame(client, victim, cport, cfg.victim_port, FLAG_ACK, ttl=ttl))
            if kind == "http":
                push(
                    build_tcp_frame(
                        client, victim, cport, cfg.victim_port,
                        FLAG_PSH | FLAG_ACK, payload=HTTP_GET, ttl=ttl,
                    )
                )
                body = HTTP_RESPONSE + b"x" * int(rng.integers(100, 900))
                push(
                    build_tcp_frame(
                        victim, client, cfg.victim_port, cport,
                        FLAG_PSH | FLAG_ACK, payload=body,
                    )
                )
        elif kind == "dns":
            query = b"\x00\x01\x01\x00" + b"q" * int(rng.integers(12, 40))
            push(build_udp_frame(client, _DNS_SERVER, cport, 53, payload=query, ttl=ttl))
            answer = b"\x00\x01\x81\x80" + b"a" * int(rng.integers(20, 80))
            push(build_udp_frame(_DNS_SERVER, client, 53, cport, payload=answer))
        else:  # bulk data from the server
            body = b"d" * int(rng.integers(400, 1400))
            push(build_tcp_frame(victim, client, cfg.victim_port, cport, FLAG_PSH | FLAG_ACK, payload=body))

        t += rng.exponential(1.0 / event_rate)
    return out


def _attacker_pool(count: int) -> list[int]:
    base = ip_to_int(ATTACKER_NET)
    return [base + 1 + i for i in range(count)]


def gen_attack(ep: Episode, cfg: ScenarioConfig, rng: np.random.Generator) -> list[tuple[float, bytes]]:
    """One episode's packets as (timestamp, frame) events over [start, end)."""
    victim = ip_to_int(cfg.victim_ip)
    out: list[tuple[float, bytes]] = []

    if ep.attack is TrafficClass.SYN_FLOOD:
        spoof_base = ip_to_int(SPOOF_NET)
        t = ep.start + rng.exponential(1.0 / ep.rate)
        while t < ep.end:
            src = spoof_base + int(rng.integers(1, 65535))
            frame = build_tcp_frame(
                src, victim, int(rng.integers(1024, 65536)), cfg.victim_port,
                FLAG_SYN, ttl=int(rng.integers(32, 256)),
            )
            out.append((t, frame))
            t += rng.exponential(1.0 / ep.rate)

    elif ep.attack is TrafficClass.ACK_FLOOD:
        pool = _attacker_pool(ep.attackers)
        t = ep.start + rng.exponential(1.0 / ep.rate)
        while t < ep.end:
            src = pool[int(rng.integers(len(pool)))]
            frame = build_tcp_frame(
                src, victim, int(rng.integers(1024, 65536)), cfg.victim_port, FLAG_ACK
            )
            out.append((t, frame))
            t += rng.exponential(1.0 / ep.rate)

    elif ep.attack is TrafficClass.HTTP_FLOOD:
        pool = _attacker_pool(ep.attackers)
        session_rate = ep.rate / _HTTP_SESSION_MEAN_PKTS
        t = ep.start + rng.exponential(1.0 / session_rate)
        while t < ep.end:
            src = pool[int(rng.integers(len(pool)))]
            sport = int(rng.integers(1024, 65536))
            when = t
            packets = [
                build_tcp_frame(src, victim, sport, 80, FLAG_SYN),
                build_tcp_frame(victim, src, 80, sport, FLAG_SYN | FLAG_ACK),
                build_tcp_frame(src, victim, sport, 80, FLAG_ACK),
            ]
            gets = int(rng.integers(_HTTP_SESSION_MIN_GETS, _HTTP_SESSION_MAX_GETS + 1))
            packets += [
                build_tcp_frame(src, victim, sport, 80, FLAG_PSH | FLAG_ACK, payload=HTTP_GET)
                for _ in range(gets)
            ]
            for frame in packets:
                if when < ep.end:
                    out.append((when, frame))
                when += rng.exponential(0.002)
            t += rng.exponential(1.0 / session_rate)

    elif ep.attack is TrafficClass.UDP_FLOOD:
        pool = _attacker_pool(ep.attackers)
        t = ep.start + rng.exponential(1.0 / ep.rate)
        while t < ep.end:
            src = pool[int(rng.integers(len(pool)))]
            payload = b"\x00" * int(rng.integers(8, 65))
            frame = build_udp_frame(
                src, victim, int(rng.integers(1024, 65536)), int(rng.integers(1, 65536)), payload
            )
            out.append((t, frame))
            t += rng.exponential(1.0 / ep.rate)

    else:  # pragma: no cover - ScenarioConfig validation rejects this
        raise BadScenario(f"unsupported episode kind {ep.attack}")
    return out


def _to_frame(t: float, data: bytes) -> Frame:
    sec = int(t)
    usec = round((t - sec) * 1e6)
    if usec >= 1_000_000:
        sec += 1
        usec -= 1_000_000
    return Frame(sec, usec, data)


def run_scenario(cfg: ScenarioConfig, out_pcap_path, out_truth_path) -> int:
    """Generate the scenario, write the pcap and the truth CSV; returns packet count.

    Each stream (benign, then each episode in config order) draws from its own
    seeded generator, so output is byte-identical for a given config and seed.
    """
    events = gen_benign(cfg, 0.0, cfg.duration, np.random.default_rng((cfg.seed, 0)))
    for index, ep in enumerate(cfg.episodes):
        events.extend(gen_attack(ep, cfg, np.random.default_rng((cfg.seed, index + 1))))

    frames = [_to_frame(t, data) for t, data in events]
    frames.sort(key=lambda f: (f.ts_sec, f.ts_usec))
    write_pcap(out_pcap_path, frames)
    write_truth(out_truth_path, [(ep.start, ep.end, ep.attack) for ep in cfg.episodes])
    return len(frames)
