"""The scenario grammar, the packets each episode kind sends, seeded
reproducibility, and the record encoder against the struct reference.

Packet shapes are read back through `read_pcap`, the decoder the pipeline
uses, from captures holding one episode and no benign traffic.
"""

import hashlib
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from floodgate import synth
from floodgate.cli import main
from floodgate.dataset import TrafficClass
from floodgate.errors import FloodgateError
from floodgate.features import read_truth
from floodgate.pcapio import TCP, UDP, read_pcap
from floodgate.synth import ATTACKER_NET, HTTP_GET, SPOOF_NET, ip_to_int, parse_scenario, run_scenario

import oracle

VICTIM = "10.0.0.10"
VICTIM_PORT = 8443
ATTACKERS = 7
SYN, PSH, ACK = 0x02, 0x08, 0x10


class TestGrammar:
    @pytest.mark.parametrize(
        "text, message",
        [
            ("", "missing required directive: duration"),
            ("seed 3\nbenign_rate 10\n", "missing required directive: duration"),
            ("duration 5\nduration 6\n", "line 2: duplicate duration"),
            ("duration 5\nseed 1\n# comment\nseed 2\n", "line 4: duplicate seed"),
            ("duration 5\nspeed 3\n", "line 2: unknown directive 'speed'"),
            ("duration 5 6\n", "line 1: duration takes exactly one value"),
            ("duration 5\nepisode syn 1 2 100\n", "line 2: episode needs kind start end rate attackers"),
            ("duration 5\nepisode syn 1 2 100 4 9\n", "line 2: episode needs kind start end rate attackers"),
            ("duration 5\nepisode smurf 1 2 100 4\n", "line 2: unknown attack kind 'smurf'"),
            ("duration 5\nepisode normal 1 2 100 4\n", "episodes must use one of the four attack classes"),
            ("duration 5\nepisode syn 1 two 100 4\n", "line 2: malformed episode numbers"),
            ("duration five\n", "malformed directive value"),
            ("duration 10\nepisode syn 1 3 100 4\nepisode udp 2 4 100 4\n", r"episodes overlap: \[1.0, 3.0\)"),
            ("duration 10\nepisode udp 6 8 100 4\nepisode syn 1 7 100 4\n", "episodes overlap"),
            ("duration 5\nepisode syn 4 6 100 4\n", r"episode \[4.0, 6.0\) falls outside \[0, 5.0\]"),
            ("duration 5\nepisode syn -1 2 100 4\n", "falls outside"),
            ("duration 5\nepisode syn 3 3 100 4\n", "falls outside"),
            ("duration 5\nepisode syn 1 2 0 4\n", "episode rate must be positive"),
            ("duration 5\nepisode syn 1 2 100 0\n", "episode needs at least one attacker"),
            ("duration 0\n", "duration must be positive"),
            ("duration inf\n", "duration must be positive and finite"),
            ("duration nan\n", "duration must be positive and finite"),
            ("duration 4294967296\nbenign_rate 0\n", "duration must be positive and finite, at most 4294967295 s"),
            ("duration 5\nbenign_rate 1e12\n", "scenario expects 5e\\+12 packets, more than the 8388608"),
            ("duration 5\nbenign_rate 0\nepisode udp 1 2 1e7 4\n", "scenario expects 1e\\+07 packets"),
            ("duration 5\nbenign_rate inf\n", "benign_rate must be non-negative and finite"),
            ("duration 5\nbenign_rate nan\n", "benign_rate must be non-negative and finite"),
            ("duration 5\nbenign_rate -1\n", "benign_rate must be non-negative and finite"),
            ("duration 5\nepisode syn_flood 0 1 inf 1\n", "episode rate must be positive and finite"),
            ("duration 5\nepisode syn_flood 0 1 nan 1\n", "episode rate must be positive and finite"),
            ("duration 5\nseed -3\n", "seed must be non-negative"),
            ("duration 5\nvictim_port 70000\n", "victim_port 70000 out of range"),
            ("duration 5\nvictim_ip 10.0.0\n", "bad IPv4 address"),
            ("duration 5\nvictim_ip +10.0.0.1\n", "bad IPv4 address '\\+10.0.0.1'"),
            ("duration 5\nvictim_ip 1_0.0.0.1\n", "bad IPv4 address '1_0.0.0.1'"),
            ("duration 5\nvictim_ip 010.0.0.1\n", "bad IPv4 address '010.0.0.1'"),
            # Python's `float` and `int` read these as 10 s, seed 3 and port 80.
            ("duration 1_0\n", "malformed directive value: '1_0' is not a plain number"),
            ("duration 5\nseed \u0663\n", "malformed directive value"),
            ("duration 5\nvictim_port 8_0\n", "malformed directive value"),
            ("duration 5\nepisode syn 1 2 1_00 4\n", "line 2: malformed episode numbers"),
            ("duration 5\nepisode syn 1 2 100 \u0664\n", "line 2: malformed episode numbers"),
        ],
    )
    def test_rejected(self, text, message):
        with pytest.raises(FloodgateError, match=message):
            parse_scenario(text)

    def test_accepted_with_defaults_and_comments(self):
        cfg = parse_scenario(
            "# header\nduration 12.5  # seconds\n\nepisode SYN 1 2 100 4\nepisode udp_flood 2 3 50 1\n"
        )
        scalars = (cfg.duration, cfg.seed, cfg.benign_rate, cfg.victim_ip, cfg.victim_port)
        assert scalars == (12.5, 0, 100.0, VICTIM, 80)
        assert [(e.attack, e.start, e.end, e.rate, e.attackers) for e in cfg.episodes] == [
            (TrafficClass.SYN_FLOOD, 1.0, 2.0, 100.0, 4),
            (TrafficClass.UDP_FLOOD, 2.0, 3.0, 50.0, 1),
        ]

    def test_seed_line_wins_over_default_seed(self):
        assert parse_scenario("duration 5\n").seed == 0
        assert parse_scenario("duration 5\nseed 4\n").seed == 4


def one_episode(tmp_path, kind, rate=400):
    """The decoded packets of a 3 s capture holding one episode over [1, 2.5) and nothing else."""
    cfg = parse_scenario(
        f"duration 3\nseed 11\nbenign_rate 0\nvictim_ip {VICTIM}\nvictim_port {VICTIM_PORT}\n"
        f"episode {kind} 1 2.5 {rate} {ATTACKERS}\n"
    )
    count = run_scenario(cfg, tmp_path / "e.pcap", tmp_path / "e.truth")
    packets = read_pcap(tmp_path / "e.pcap")
    assert count == len(packets) > 100
    assert read_truth(tmp_path / "e.truth") == [(1.0, 2.5, cfg.episodes[0].attack)]
    stamps = packets.ts_sec + packets.ts_usec / 1e6
    assert stamps.min() >= 1.0 and stamps.max() < 2.5
    return packets


def in_net(ips, net):
    return (ips >> 16) == ip_to_int(net) >> 16


def from_pool(ips):
    return (ips - ip_to_int(ATTACKER_NET) >= 1) & (ips - ip_to_int(ATTACKER_NET) <= ATTACKERS)


class TestEpisodeShapes:
    def test_syn_flood_is_spoofed_syn_only_to_the_victim_port(self, tmp_path):
        p = one_episode(tmp_path, "syn_flood")
        assert (p.transport == TCP).all()
        assert (p.tcp_flags == SYN).all()
        assert in_net(p.src_ip, SPOOF_NET).all()
        assert len(np.unique(p.src_ip)) > ATTACKERS
        assert (p.dst_ip == ip_to_int(VICTIM)).all() and (p.dst_port == VICTIM_PORT).all()
        assert (p.payload_len == 0).all()

    def test_ack_flood_is_bare_acks_from_the_attacker_pool(self, tmp_path):
        p = one_episode(tmp_path, "ack_flood")
        assert (p.transport == TCP).all()
        assert (p.tcp_flags == ACK).all()
        assert (p.payload_len == 0).all()
        assert in_net(p.src_ip, ATTACKER_NET).all() and from_pool(p.src_ip).all()
        assert (p.dst_ip == ip_to_int(VICTIM)).all() and (p.dst_port == VICTIM_PORT).all()

    def test_http_flood_sends_gets_to_port_80(self, tmp_path):
        p = one_episode(tmp_path, "http_flood")
        assert (p.transport == TCP).all()
        to_victim = p.dst_ip == ip_to_int(VICTIM)
        # Handshake replies come back from the victim; everything else goes to it, on port 80.
        assert (np.where(to_victim, p.dst_port, p.src_port) == 80).all()
        assert (p.tcp_flags[~to_victim] == SYN | ACK).all()
        assert from_pool(p.src_ip[to_victim]).all()
        gets = p.tcp_flags == PSH | ACK
        assert (p.payload_len[gets] == len(HTTP_GET)).all()
        assert {bytes(row) for row in p.payload_prefix[gets]} == {HTTP_GET[:8]}
        assert (p.payload_len[~gets] == 0).all()
        # Every session sends 5 to 14 GETs after one handshake.
        assert gets.sum() >= 5 * (p.tcp_flags == SYN).sum() * 0.9

    def test_udp_flood_sends_8_to_64_byte_payloads(self, tmp_path):
        p = one_episode(tmp_path, "udp_flood")
        assert (p.transport == UDP).all()
        assert ((p.payload_len >= 8) & (p.payload_len <= 64)).all()
        assert len(np.unique(p.payload_len)) > 40
        assert in_net(p.src_ip, ATTACKER_NET).all() and from_pool(p.src_ip).all()
        assert (p.dst_ip == ip_to_int(VICTIM)).all()
        assert ((p.dst_port >= 1) & (p.dst_port <= 65535)).all() and len(np.unique(p.dst_port)) > 100


class TestReproducible:
    SCENARIO = "duration 4\nbenign_rate 150\nepisode syn 0.5 1.5 300 5\nepisode http 2 3 300 5\n"

    def capture(self, path, seed):
        run_scenario(parse_scenario(f"seed {seed}\n{self.SCENARIO}"), path, path.with_suffix(".truth"))
        return path.read_bytes()

    def test_same_seed_same_bytes(self, tmp_path):
        first = self.capture(tmp_path / "a.pcap", 5)
        assert self.capture(tmp_path / "b.pcap", 5) == first
        assert self.capture(tmp_path / "c.pcap", 6) != first

    def test_capture_is_in_time_order(self, tmp_path):
        self.capture(tmp_path / "a.pcap", 5)
        p = read_pcap(tmp_path / "a.pcap")
        stamps = p.ts_sec * 1_000_000 + p.ts_usec
        assert (np.diff(stamps) >= 0).all()
        assert (p.ts_usec < 1_000_000).all()


class TestAttackerBound:
    def test_most_attackers_stay_in_the_attacker_net(self, tmp_path):
        cfg = parse_scenario(f"duration 2\nseed 5\nbenign_rate 0\nepisode ack 0 1 20000 65534\n")
        run_scenario(cfg, tmp_path / "a.pcap", tmp_path / "a.truth")
        src = read_pcap(tmp_path / "a.pcap").src_ip
        assert len(src) > 19000
        assert in_net(src, ATTACKER_NET).all()
        # The draws reach both ends of the pool, 198.19.0.1 to 198.19.255.254.
        offset = src - ip_to_int(ATTACKER_NET)
        assert offset.min() < 100 and offset.max() > 65534 - 100

    def test_too_many_attackers_is_rejected_by_synth(self, tmp_path, capsys):
        (tmp_path / "s.cfg").write_text("duration 5\nepisode ack 1 2 100 65535\n")
        code = main(["synth", "--config", str(tmp_path / "s.cfg"), "--out-pcap", str(tmp_path / "s.pcap"),
                     "--out-truth", str(tmp_path / "s.truth")])
        assert code == 2
        assert "at most 65534, the hosts of 198.19.0.0/16" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["s.cfg"]


# Benign traffic plus one episode of each kind: every packet shape and payload synth makes.
PINNED = """duration 8
seed 3
benign_rate 200
episode syn_flood 1 2.5 2000 20
episode ack_flood 3 4.2 2000 20
episode http_flood 5 6.5 2000 20
episode udp_flood 6.5 7.5 2000 20
"""
PINNED_PACKETS = 12259
PINNED_PCAP_SHA256 = "9d3c8a92faeecfe5404ed9182edffb5c94f19e11457c63cf02e8743392074762"
PINNED_TRUTH_SHA256 = "0a53c00a6a7b318765f043fae0e77f4bcd10fa2522140dcac95e7999280b9568"


def test_pinned_scenario_bytes(tmp_path):
    """The capture and truth bytes of a fixed scenario, as the struct-per-packet synth wrote them."""
    pcap, truth = tmp_path / "p.pcap", tmp_path / "p.truth"
    assert run_scenario(parse_scenario(PINNED), pcap, truth) == PINNED_PACKETS
    assert hashlib.sha256(pcap.read_bytes()).hexdigest() == PINNED_PCAP_SHA256
    assert hashlib.sha256(truth.read_bytes()).hexdigest() == PINNED_TRUTH_SHA256


# tracemalloc peak of `run_scenario` on PINNED with the struct-per-packet
# synth that built a Frame per packet and sorted them: 4,824,045-4,829,635 B
# over three runs, 393.5-394.0 B/packet.
STRUCT_SYNTH_PEAK_BYTES_PER_PACKET = 394


def test_pinned_scenario_peak_memory(tmp_path):
    """Chunked encoding keeps synth's peak below the struct-per-packet synth's."""
    pcap, truth = tmp_path / "p.pcap", tmp_path / "p.truth"
    run_scenario(parse_scenario(PINNED), pcap, truth)  # first-call allocations stay out of the peak
    tracemalloc.start()
    try:
        run_scenario(parse_scenario(PINNED), pcap, truth)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak / PINNED_PACKETS <= STRUCT_SYNTH_PEAK_BYTES_PER_PACKET


class TestPacketBudget:
    def test_budget_is_exact(self):
        limit = synth.MAX_EXPECTED_PACKETS
        assert limit == synth.SYNTH_MEMORY_BUDGET // synth.SYNTH_PEAK_BYTES_PER_PACKET
        parse_scenario(f"duration 2\nbenign_rate {limit / 4}\nepisode ack 0 1 {limit / 2} 4\n")
        with pytest.raises(FloodgateError, match="memory budget"):
            parse_scenario(f"duration 2\nbenign_rate {limit / 4}\nepisode ack 0 1 {limit / 2 + 1} 4\n")

    def test_huge_rate_is_rejected_before_any_draw(self, tmp_path, capsys):
        (tmp_path / "s.cfg").write_text("duration 10\nbenign_rate 1e12\n")
        code = main(["synth", "--config", str(tmp_path / "s.cfg"), "--out-pcap", str(tmp_path / "s.pcap"),
                     "--out-truth", str(tmp_path / "s.truth")])
        assert code == 2
        assert "scenario expects 1e+13 packets" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["s.cfg"]


# --- the record encoder against oracle.py's struct frames ----------------------

IP = st.one_of(st.sampled_from([0, 0xFFFFFFFF]), st.integers(0, 0xFFFFFFFF))
PORT = st.one_of(st.sampled_from([0, 65535]), st.integers(0, 65535))
# The longest payload of each kind that synth draws.
LONGEST = {synth.ZEROS: 64, synth.GET: len(HTTP_GET), synth.RESPONSE: len(synth.HTTP_RESPONSE) + 899,
           synth.DNS_QUERY: 4 + 39, synth.DNS_ANSWER: 4 + 79, synth.BULK: 1399}
PREFIX_AND_FILL = {
    synth.ZEROS: (b"", b"\x00"), synth.GET: (HTTP_GET, b"\x00"), synth.RESPONSE: (synth.HTTP_RESPONSE, b"x"),
    synth.DNS_QUERY: (b"\x00\x01\x01\x00", b"q"), synth.DNS_ANSWER: (b"\x00\x01\x81\x80", b"a"),
    synth.BULK: (b"", b"d"),
}


@st.composite
def packet_rows(draw):
    kind = draw(st.sampled_from(sorted(LONGEST)))
    length = draw(st.one_of(st.sampled_from([0, LONGEST[kind]]), st.integers(0, LONGEST[kind])))
    # Whole seconds, half microseconds (round half to even) and carries into the next second.
    t = draw(st.one_of(
        st.floats(0, 2e9, allow_nan=False),
        st.builds(lambda s, u: s + u / 2e6, st.integers(0, 2**31), st.integers(0, 2 * 10**6)),
    ))
    return (t, draw(IP), draw(IP), draw(PORT), draw(PORT), draw(st.integers(0, 255)),
            draw(st.sampled_from([6, 17])), draw(st.integers(0, 255)), kind, length)


def reference_record(row):
    """One row's pcap record, packed with struct as synth packed it before the encoder."""
    t, src, dst, sport, dport, flags, proto, ttl, kind, length = row
    prefix, fill = PREFIX_AND_FILL[kind]
    payload = (prefix + fill * length)[:length]
    if proto == 6:
        frame = oracle.build_tcp_frame(src, dst, sport, dport, flags, payload, ttl)
    else:
        frame = oracle.build_udp_frame(src, dst, sport, dport, payload, ttl)
    sec = int(t)
    usec = round((t - sec) * 1e6)
    if usec >= 1_000_000:
        sec, usec = sec + 1, usec - 1_000_000
    return struct.pack("<IIII", sec, usec, len(frame), len(frame)) + frame


def folds_twice(row):
    """Whether the row's IPv4 header sum still carries after its first fold."""
    header = bytearray(reference_record(row)[16 + 14 : 16 + 34])
    header[10:12] = b"\x00\x00"  # the sum the checksum is computed from
    total = sum(struct.unpack("!10H", header))
    return (total & 0xFFFF) + (total >> 16) > 0xFFFF


# All-ones addresses with these TTLs and lengths sum to 0x4FFFE, 0x4FFFE and
# 0x4FFFF, so the first fold carries again.
DOUBLE_FOLDS = [
    (1.0, 0xFFFFFFFF, 0xFFFFFFFF, 1, 2, 0x18, 6, 122, synth.BULK, 212),
    (2.0, 0xFFFFFFFF, 0xFFFFFFFF, 1, 2, 0, 17, 122, synth.ZEROS, 213),
    (3.0, 0xFFFFFFFF, 0xFFFFFFFF, 65535, 65535, 0xFF, 6, 122, synth.RESPONSE, 213),
]


def test_double_fold_rows_fold_twice():
    assert [folds_twice(row) for row in DOUBLE_FOLDS] == [True, True, True]


@settings(max_examples=200, deadline=None)
@given(rows=st.lists(packet_rows(), min_size=1, max_size=40))
@example(rows=DOUBLE_FOLDS)
def test_encoder_equals_struct_reference(rows):
    got = synth.encode_records(np.array(rows, dtype=np.float64))
    assert got.tobytes() == b"".join(reference_record(row) for row in rows)


def test_frame_builders_equal_struct_reference():
    assert synth.build_tcp_frame(1, 0xFFFFFFFF, 0, 65535, 0xFF, b"payload", 0) == oracle.build_tcp_frame(
        1, 0xFFFFFFFF, 0, 65535, 0xFF, b"payload", 0
    )
    assert synth.build_tcp_frame(7, 8, 9, 10, 0x02) == oracle.build_tcp_frame(7, 8, 9, 10, 0x02)
    assert synth.build_udp_frame(0xFFFFFFFF, 0, 65535, 0, bytes(range(256)), 255) == oracle.build_udp_frame(
        0xFFFFFFFF, 0, 65535, 0, bytes(range(256)), 255
    )
