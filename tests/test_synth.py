"""The scenario grammar, the packets each episode kind sends, seeded
reproducibility, the record encoder against the struct reference, synth's
memory, and each stream's draws by distribution.

Packet shapes are read back through `read_pcap`, the decoder the pipeline
uses, from captures holding one stream. A stream's draws are declared by
synth, not copied from a reference: at fixed seeds, each stream's packet
count lies within a Poisson bound and its gaps pass a Kolmogorov-Smirnov
check against the exponential.
"""

import hashlib
import math
import re
import struct
import tracemalloc
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from floodgate import pcapio, synth
from floodgate.cli import main
from floodgate.dataset import TrafficClass
from floodgate.errors import FloodgateError
from floodgate.features import read_truth, write_truth
from floodgate.pcapio import TCP, UDP, read_pcap
from floodgate.synth import ATTACKER_NET, HTTP_GET, SPOOF_NET, Episode, ip_to_int, parse_scenario, run_scenario

import oracle
from conftest import read_records, write_records

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
            ("duration 5\nepisode smurf 1 2 100 4\n", "line 2: unknown traffic label: 'smurf'"),
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
            # Every stream targets synth.VICTIM_IP and synth.VICTIM_PORT; neither is a directive.
            ("duration 5\nvictim_ip 10.0.0.1\n", "line 2: unknown directive 'victim_ip'"),
            ("duration 5\nvictim_port 80\n", "line 2: unknown directive 'victim_port'"),
            # Python's `float` and `int` read these as 10 s and seed 3.
            ("duration 1_0\n", "malformed directive value: '1_0' is not a plain number"),
            ("duration 5\nseed \u0663\n", "malformed directive value"),
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
        assert [f.name for f in fields(cfg)] == ["duration", "seed", "benign_rate", "episodes"]
        assert (cfg.duration, cfg.seed, cfg.benign_rate) == (12.5, 0, 100.0)
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
        f"duration 3\nseed 11\nbenign_rate 0\nepisode {kind} 1 2.5 {rate} {ATTACKERS}\n"
    )
    count = run_scenario(cfg, tmp_path / "e.pcap", tmp_path / "e.truth")
    packets = read_pcap(tmp_path / "e.pcap")
    assert count == len(packets) > 100
    assert read_truth(tmp_path / "e.truth") == [(1.0, 2.5, cfg.episodes[0].attack)]
    assert packets.ts_us.min() >= 1_000_000 and packets.ts_us.max() < 2_500_000
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
        assert ((p.src_ip & 0xFFFF >= 1) & (p.src_ip & 0xFFFF <= 65534)).all()
        assert len(np.unique(p.src_ip)) > ATTACKERS
        assert ((p.ttl >= 32) & (p.ttl <= 255)).all() and len(np.unique(p.ttl)) > 150
        assert (p.dst_ip == synth.VICTIM_IP).all() and (p.dst_port == synth.VICTIM_PORT).all()
        assert (p.payload_len == 0).all()

    def test_ack_flood_is_bare_acks_from_the_attacker_pool(self, tmp_path):
        p = one_episode(tmp_path, "ack_flood")
        assert (p.transport == TCP).all()
        assert (p.tcp_flags == ACK).all()
        assert (p.payload_len == 0).all()
        assert in_net(p.src_ip, ATTACKER_NET).all() and from_pool(p.src_ip).all()
        assert (p.dst_ip == synth.VICTIM_IP).all() and (p.dst_port == synth.VICTIM_PORT).all()

    def test_http_flood_sends_gets_to_port_80(self, tmp_path):
        p = one_episode(tmp_path, "http_flood", rate=1000)
        assert (p.transport == TCP).all()
        to_victim = p.dst_ip == synth.VICTIM_IP
        # Handshake replies come back from the victim; everything else goes to it, on its port.
        assert (np.where(to_victim, p.dst_port, p.src_port) == synth.VICTIM_PORT).all()
        attacker, sport = np.where(to_victim, p.src_ip, p.dst_ip), np.where(to_victim, p.src_port, p.dst_port)
        assert from_pool(attacker).all()
        gets = p.tcp_flags == PSH | ACK
        assert (p.payload_len == np.where(gets, len(HTTP_GET), 0)).all()
        assert gets.any() and (p.payload_prefix[gets] == int.from_bytes(HTTP_GET[:4], "big")).all()
        # Each session, in time order: SYN, SYN-ACK, ACK, then 5 to 14 GETs.
        symbol = {(True, SYN): "S", (False, SYN | ACK): "s", (True, ACK): "A", (True, PSH | ACK): "G"}
        symbols = [symbol.get(key, "?") for key in zip(to_victim.tolist(), p.tcp_flags.tolist())]
        get_counts = []
        for first_us, shape in conversations(p.ts_us, zip(attacker.tolist(), sport.tolist()), symbols):
            if not re.fullmatch("SsAG{5,14}", shape):
                # Only a session that starts near the episode's end may lose its last packets to the cut.
                assert first_us > 2_300_000 and re.fullmatch("S(s(AG{0,13})?)?", shape), shape
            else:
                get_counts.append(len(shape) - 3)
        assert min(get_counts) == 5 and max(get_counts) == 14

    def test_udp_flood_sends_8_to_64_byte_payloads(self, tmp_path):
        p = one_episode(tmp_path, "udp_flood")
        assert (p.transport == UDP).all()
        assert ((p.payload_len >= 8) & (p.payload_len <= 64)).all()
        assert len(np.unique(p.payload_len)) > 40
        assert in_net(p.src_ip, ATTACKER_NET).all() and from_pool(p.src_ip).all()
        assert (p.dst_ip == synth.VICTIM_IP).all()
        assert ((p.dst_port >= 1) & (p.dst_port <= 65535)).all() and len(np.unique(p.dst_port)) > 100


def conversations(ts_us, keys, symbols):
    """(first stamp, symbols joined in time order) of each conversation, the packets with one key."""
    found = {}
    for ts, key, symbol in zip(ts_us.tolist(), keys, symbols):
        found.setdefault(key, [ts, ""])[1] += symbol
    return found.values()


class TestBenignShape:
    CLIENTS = [ip_to_int(f"192.168.1.{10 + i}") for i in range(12)]
    DNS = ip_to_int("192.168.1.2")
    BODY = len(synth.HTTP_RESPONSE)
    # Each packet kind of a benign conversation: sent by the client, TCP flags,
    # transport, payload length range and payload prefix.
    KINDS = {
        "S": (True, SYN, TCP, 0, 0, b""), "s": (False, SYN | ACK, TCP, 0, 0, b""),
        "A": (True, ACK, TCP, 0, 0, b""), "G": (True, PSH | ACK, TCP, len(HTTP_GET), len(HTTP_GET), b"GET "),
        "r": (False, PSH | ACK, TCP, BODY + 100, BODY + 899, b"HTTP"), "b": (False, PSH | ACK, TCP, 400, 1399, b"dddd"),
        "Q": (True, 0, UDP, 16, 43, b"\x00\x01\x01\x00"), "a": (False, 0, UDP, 24, 83, b"\x00\x01\x81\x80"),
    }

    def symbol(self, from_client, flags, transport, plen, prefix):
        """The letter of the packet's kind, or "?"."""
        for letter, (client, f, t, low, high, start) in self.KINDS.items():
            if (client, f, t, start) == (from_client, flags, transport, prefix) and low <= plen <= high:
                return letter
        return "?"

    def test_every_conversation_has_its_kinds_shape(self, tmp_path):
        cfg = parse_scenario("duration 3\nseed 11\nbenign_rate 400\n")
        assert run_scenario(cfg, tmp_path / "b.pcap", tmp_path / "b.truth") > 1000
        p = read_pcap(tmp_path / "b.pcap")
        from_client = np.isin(p.src_ip, self.CLIENTS)
        client, cport = np.where(from_client, p.src_ip, p.dst_ip), np.where(from_client, p.src_port, p.dst_port)
        server, sport = np.where(from_client, p.dst_ip, p.src_ip), np.where(from_client, p.dst_port, p.src_port)
        assert np.isin(client, self.CLIENTS).all() and (cport >= 1024).all()
        assert set(zip(server.tolist(), sport.tolist())) == {(synth.VICTIM_IP, synth.VICTIM_PORT), (self.DNS, 53)}
        # Even clients send with TTL 64, odd ones with 128; the servers with 64.
        assert (p.ttl == np.where(from_client & ((client - self.CLIENTS[0]) % 2 == 1), 128, 64)).all()
        prefixes = [word.to_bytes(4, "big") if word else b"" for word in p.payload_prefix.tolist()]
        columns = (from_client, p.tcp_flags, p.transport, p.payload_len)
        symbols = [self.symbol(*row) for row in zip(*(c.tolist() for c in columns), prefixes)]
        shapes = conversations(p.ts_us, zip(client.tolist(), cport.tolist(), server.tolist()), symbols)
        for first_us, shape in shapes:
            if not re.fullmatch("SsA(Gr)?|Qa|b", shape):
                # Only a conversation that starts near the end may lose its last packets to the cut.
                assert first_us > 2_950_000 and re.fullmatch("S(s(AG?)?)?|Q", shape), shape
        assert {shape for _, shape in shapes} >= {"SsA", "SsAGr", "Qa", "b"}


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
        records = read_records(tmp_path / "a.pcap")
        assert all(usec < 1_000_000 for _, usec, _, _ in records)
        stamps = read_pcap(tmp_path / "a.pcap").ts_us
        assert stamps.tolist() == [sec * 1_000_000 + usec for sec, usec, _, _ in records]
        assert (np.diff(stamps) >= 0).all()


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

    @pytest.mark.parametrize("kind, same", [("syn", True), ("ack", False)])
    def test_only_a_syn_flood_ignores_its_attacker_count(self, tmp_path, kind, same):
        # A SYN flood draws spoofed sources from SPOOF_NET and never reads `attackers`.
        captures = []
        for attackers in (1, 65534):
            cfg = parse_scenario(f"duration 3\nseed 2\nbenign_rate 50\nepisode {kind} 1 2 400 {attackers}\n")
            run_scenario(cfg, tmp_path / f"{attackers}.pcap", tmp_path / f"{attackers}.truth")
            captures.append((tmp_path / f"{attackers}.pcap").read_bytes())
        assert (captures[0] == captures[1]) is same

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
PINNED_PACKETS = 11697
PINNED_PCAP_SHA256 = "939d4cc9a8b77020aa814a826c45cf5c03b820e3b6ab3f45dffe68c97a883a1d"
PINNED_TRUTH_SHA256 = "0a53c00a6a7b318765f043fae0e77f4bcd10fa2522140dcac95e7999280b9568"
# `floodgate extract --window 0.1 --truth` of PINNED; no feature goes through BLAS.
PINNED_FEATURES_SHA256 = "ce5ac46778507b0802b244d5d2ab0316e7ddb1323eda1df3827c69b0f9158806"


def test_pinned_scenario_bytes(tmp_path):
    """The capture and truth bytes of a fixed scenario, which its seed and synth's draws fix."""
    pcap, truth = tmp_path / "p.pcap", tmp_path / "p.truth"
    assert run_scenario(parse_scenario(PINNED), pcap, truth) == PINNED_PACKETS
    assert hashlib.sha256(pcap.read_bytes()).hexdigest() == PINNED_PCAP_SHA256
    assert hashlib.sha256(truth.read_bytes()).hexdigest() == PINNED_TRUTH_SHA256


@pytest.mark.parametrize("chunk_rows", [1, 7, 2048])
def test_pinned_capture_does_not_depend_on_the_chunk_size(tmp_path, monkeypatch, chunk_rows):
    """Records encoded 1, 7 or 2048 at a time make the same capture."""
    monkeypatch.setattr(synth, "CHUNK_ROWS", chunk_rows)
    pcap = tmp_path / "p.pcap"
    run_scenario(parse_scenario(PINNED), pcap, tmp_path / "p.truth")
    assert hashlib.sha256(pcap.read_bytes()).hexdigest() == PINNED_PCAP_SHA256


def extracted(pcap, truth):
    """The bytes `extract --window 0.1` writes for a capture and its truth."""
    out = pcap.with_suffix(".csv")
    assert main(["extract", "--pcap", str(pcap), "--truth", str(truth), "--window", "0.1", "--out", str(out)]) == 0
    return out.read_bytes()


def test_pinned_scenario_features_bytes(tmp_path):
    """The features CSV that `extract` writes for the pinned capture and truth."""
    pcap, truth = tmp_path / "p.pcap", tmp_path / "p.truth"
    run_scenario(parse_scenario(PINNED), pcap, truth)
    assert hashlib.sha256(extracted(pcap, truth)).hexdigest() == PINNED_FEATURES_SHA256


def test_pinned_capture_keeps_96_bytes_per_packet(tmp_path):
    """`read_pcap` returns twelve 1-D int64 columns: 96 bytes per packet of the pinned capture."""
    pcap = tmp_path / "p.pcap"
    run_scenario(parse_scenario(PINNED), pcap, tmp_path / "p.truth")
    columns = [getattr(read_pcap(pcap), field.name) for field in fields(pcapio.Packets)]
    assert [(c.dtype, c.shape) for c in columns] == [(np.int64, (PINNED_PACKETS,))] * 12
    assert sum(c.nbytes for c in columns) == 96 * PINNED_PACKETS


def test_pinned_scenario_moved_to_2023_extracts_the_same_bytes(tmp_path):
    """Moving every record and the truth by +1,700,000,000 s changes no byte
    that `extract` writes."""
    pcap, truth = tmp_path / "p.pcap", tmp_path / "p.truth"
    run_scenario(parse_scenario(PINNED), pcap, truth)
    moved_pcap, moved_truth = tmp_path / "m.pcap", tmp_path / "m.truth"
    write_records(moved_pcap, [(s + 1_700_000_000, u, orig, data) for s, u, orig, data in read_records(pcap)])
    write_truth(moved_truth, [(start + 1_700_000_000, end + 1_700_000_000, c) for start, end, c in read_truth(truth)])
    assert extracted(moved_pcap, moved_truth) == extracted(pcap, truth)


def test_pinned_scenario_written_big_endian_extracts_the_same_bytes(tmp_path):
    """The same records in a big-endian file give the same features bytes:
    `read_pcap` joins each record's swapped seconds and microseconds alike."""
    pcap, truth = tmp_path / "p.pcap", tmp_path / "p.truth"
    run_scenario(parse_scenario(PINNED), pcap, truth)
    swapped = tmp_path / "b.pcap"
    write_records(swapped, read_records(pcap), ">")
    assert swapped.read_bytes()[:4] == bytes.fromhex("a1b2c3d4")
    assert extracted(swapped, truth) == extracted(pcap, truth)


# tracemalloc peak of `run_scenario` on PINNED with the struct-per-packet
# synth that built a Frame per packet and sorted them: 4,824,045-4,829,635 B
# over three runs, 393.5-394.0 B/packet.
STRUCT_SYNTH_PEAK_BYTES_PER_PACKET = 394


def synth_peak_per_packet(tmp_path, text):
    """tracemalloc peak of a second `run_scenario` of a scenario, in bytes per packet."""
    cfg, pcap, truth = parse_scenario(text), tmp_path / "s.pcap", tmp_path / "s.truth"
    run_scenario(cfg, pcap, truth)  # first-call allocations stay out of the peak
    tracemalloc.start()
    try:
        count = run_scenario(cfg, pcap, truth)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak / count


def test_pinned_scenario_peak_memory(tmp_path):
    """Chunked encoding keeps synth's peak below the struct-per-packet synth's."""
    assert synth_peak_per_packet(tmp_path, PINNED) <= STRUCT_SYNTH_PEAK_BYTES_PER_PACKET


def test_pinned_scenario_stays_within_the_budget(tmp_path):
    """Every packet shape and payload kind at once stays within the bytes per
    packet that MAX_EXPECTED_PACKETS is computed from: 119.1 B/packet at
    CHUNK_ROWS = 2048, 300.2 at 8192."""
    assert synth_peak_per_packet(tmp_path, PINNED) <= synth.SYNTH_PEAK_BYTES_PER_PACKET


def test_peak_memory_is_within_the_budget(tmp_path):
    """About 0.25M packets of benign conversations, the stream with the most
    temporaries per packet, stay within the bytes per packet that
    MAX_EXPECTED_PACKETS is computed from."""
    assert synth_peak_per_packet(tmp_path, "duration 50\nseed 1\nbenign_rate 5000\n") <= synth.SYNTH_PEAK_BYTES_PER_PACKET


def pinned_read_peak_per_packet(tmp_path, read):
    """tracemalloc peak of a second `read(pcap)` of PINNED's capture, in bytes per packet."""
    pcap = tmp_path / "p.pcap"
    run_scenario(parse_scenario(PINNED), pcap, tmp_path / "p.truth")
    read(pcap)  # first-call allocations stay out of the peak
    tracemalloc.start()
    try:
        read(pcap)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak / PINNED_PACKETS


# tracemalloc peak of a second `read_pcap` of PINNED when `_walk` collected
# the record offsets in a Python list and `read_pcap` kept its copy of the
# record headers through the decode: 4,126,863-4,127,103 B, 336.6-336.7
# B/packet, over three runs.
LIST_WALK_READ_PEAK_BYTES_PER_PACKET = 336.6


def test_pinned_capture_read_peak_memory_below_the_list_walk(tmp_path):
    """Dropping the record headers' copy before the decode keeps `read_pcap`'s
    peak below what it was with the list walk."""
    assert pinned_read_peak_per_packet(tmp_path, read_pcap) < LIST_WALK_READ_PEAK_BYTES_PER_PACKET


def test_pinned_capture_walk_peak_memory(tmp_path):
    """`_walk` holds the file's bytes plus at most 16 bytes per record: an
    8-byte offset in an `array('q')` and the array's room to grow. With a
    Python list of offsets it held about 41 (135.7 B/packet in all)."""
    peak = pinned_read_peak_per_packet(tmp_path, pcapio._walk)
    assert peak < (tmp_path / "p.pcap").stat().st_size / PINNED_PACKETS + 16


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


# The first microsecond that a pcap record's 32-bit seconds cannot hold.
STAMP_END = 2**32 * 10**6


@st.composite
def packet_rows(draw):
    kind = draw(st.sampled_from(sorted(LONGEST)))
    length = draw(st.one_of(st.sampled_from([0, LONGEST[kind]]), st.integers(0, LONGEST[kind])))
    ts_us = draw(st.one_of(st.sampled_from([0, STAMP_END - 1]), st.integers(0, STAMP_END - 1)))
    return (ts_us, draw(IP), draw(IP), draw(PORT), draw(PORT), draw(st.integers(0, 255)),
            draw(st.sampled_from([6, 17])), draw(st.integers(0, 255)), kind, length)


def reference_record(row):
    """One row's pcap record, packed with struct as synth packed it before the encoder."""
    ts_us, src, dst, sport, dport, flags, proto, ttl, kind, length = row
    prefix, fill = PREFIX_AND_FILL[kind]
    payload = (prefix + fill * length)[:length]
    if proto == 6:
        frame = oracle.build_tcp_frame(src, dst, sport, dport, flags, payload, ttl)
    else:
        frame = oracle.build_udp_frame(src, dst, sport, dport, payload, ttl)
    sec, usec = divmod(ts_us, 1_000_000)
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
    (1_000_000, 0xFFFFFFFF, 0xFFFFFFFF, 1, 2, 0x18, 6, 122, synth.BULK, 212),
    (2_000_000, 0xFFFFFFFF, 0xFFFFFFFF, 1, 2, 0, 17, 122, synth.ZEROS, 213),
    (3_000_000, 0xFFFFFFFF, 0xFFFFFFFF, 65535, 65535, 0xFF, 6, 122, synth.RESPONSE, 213),
]


def test_double_fold_rows_fold_twice():
    assert [folds_twice(row) for row in DOUBLE_FOLDS] == [True, True, True]


# Rows at the edges of a record's lead (record header, frame header and
# payload prefix) and fill: no fill (the first and last rows among them), a
# lead as wide as the encoder's widest, and a payload that ends inside its
# prefix.
RUN_EDGES = [
    (4_000_000, 1, 2, 3, 4, 0x02, 6, 64, synth.ZEROS, 0),
    (5_000_000, 1, 2, 3, 4, 0, 17, 64, synth.ZEROS, 0),
    (6_000_000, 1, 2, 3, 80, 0x18, 6, 64, synth.GET, len(HTTP_GET)),
    (7_000_000, 2, 1, 80, 3, 0x18, 6, 64, synth.RESPONSE, len(synth.HTTP_RESPONSE)),
    (8_000_000, 2, 1, 80, 3, 0x18, 6, 64, synth.RESPONSE, len(synth.HTTP_RESPONSE) + 1),
    (9_000_000, 1, 2, 3, 53, 0, 17, 64, synth.DNS_QUERY, 2),
]

# The encoder writes each transport's heads, and each (kind, prefix bytes
# kept) group's prefix, on its own. Every such group three times, never next
# to itself: transports alternate, and eleven prefix groups (an odd number, so
# each meets both transports) repeat in turn. Each prefix kind appears whole
# and cut; ZEROS, BULK and a GET without payload keep no prefix bytes.
INTERLEAVED_GROUPS = [
    ((10 + i) * 1_000_000, 1 + i, 2, 1024 + i, port, *[(0x18, 6), (0, 17)][i % 2], 64, kind, plen)
    for i, (port, kind, plen) in enumerate([
        (53, synth.DNS_QUERY, 20),
        (80, synth.BULK, 400),
        (80, synth.GET, len(HTTP_GET)),
        (80, synth.RESPONSE, len(synth.HTTP_RESPONSE) + 100),
        (53, synth.DNS_QUERY, 2),
        (80, synth.ZEROS, 8),
        (53, synth.DNS_ANSWER, 30),
        (80, synth.GET, 5),
        (53, synth.DNS_ANSWER, 3),
        (80, synth.RESPONSE, 17),
        (80, synth.GET, 0),
    ] * 3)
]
# The same rows of one transport only, so that the other transport's scatter is empty.
ONLY_TCP = [row for row in INTERLEAVED_GROUPS if row[6] == 6]
ONLY_UDP = [row for row in INTERLEAVED_GROUPS if row[6] == 17]


def encoder_groups(row):
    """The row's transport and its (kind, prefix bytes kept) group."""
    kind, length = row[8], row[9]
    return row[6], (kind, min(len(PREFIX_AND_FILL[kind][0]), length))


def test_interleaved_rows_interleave_every_group():
    transports, prefixes = zip(*map(encoder_groups, INTERLEAVED_GROUPS))
    for groups in (transports, prefixes):
        assert min(groups.count(group) for group in set(groups)) >= 3
        assert all(a != b for a, b in zip(groups, groups[1:]))
    assert set(transports) == {6, 17}
    whole = {kind for kind, kept in prefixes if kept == len(PREFIX_AND_FILL[kind][0]) > 0}
    cut = {kind for kind, kept in prefixes if 0 < kept < len(PREFIX_AND_FILL[kind][0])}
    assert whole == cut == {synth.GET, synth.RESPONSE, synth.DNS_QUERY, synth.DNS_ANSWER}
    assert {kind for kind, kept in prefixes if kept == 0} == {synth.ZEROS, synth.BULK, synth.GET}


@settings(max_examples=200, deadline=None)
@given(rows=st.lists(packet_rows(), min_size=1, max_size=40))
@example(rows=DOUBLE_FOLDS)
@example(rows=RUN_EDGES)
@example(rows=INTERLEAVED_GROUPS)
@example(rows=ONLY_TCP)
@example(rows=ONLY_UDP)
def test_encoder_equals_struct_reference(rows):
    got = synth.encode_records(np.array(rows, dtype=synth._ROW))
    assert got.tobytes() == b"".join(reference_record(row) for row in rows)


def reference_pcap_stamp(t):
    """A float time's pcap (seconds, microseconds): the fraction's microseconds
    rounded half to even, a rounding up to 10**6 carried into the seconds."""
    sec = int(t)
    usec = round((t - sec) * 1e6)
    if usec >= 1_000_000:
        sec, usec = sec + 1, usec - 1_000_000
    return sec, usec


# Whole seconds, half microseconds (round half to even) and carries into the next second.
FLOAT_TIMES = st.one_of(
    st.floats(0, 2e9, allow_nan=False),
    st.builds(lambda s, u: s + u / 2e6, st.integers(0, 2**31), st.integers(0, 2 * 10**6)),
)


@settings(max_examples=200, deadline=None)
@given(times=st.lists(FLOAT_TIMES, min_size=1, max_size=40))
@example(times=[0.5e-6, 1.5e-6, 2.5e-6, 3 + 0.5e-6, 7 + 1999999 / 2e6, 2**31 + 1999999 / 2e6])
def test_pcap_stamps_round_half_even_and_carry(times):
    got = synth._pcap_us(np.array(times))
    assert [divmod(us, 1_000_000) for us in got.tolist()] == [reference_pcap_stamp(t) for t in times]


def test_frame_builders_equal_struct_reference():
    assert synth.build_tcp_frame(1, 0xFFFFFFFF, 0, 65535, 0xFF, b"payload", 0) == oracle.build_tcp_frame(
        1, 0xFFFFFFFF, 0, 65535, 0xFF, b"payload", 0
    )
    assert synth.build_tcp_frame(7, 8, 9, 10, 0x02) == oracle.build_tcp_frame(7, 8, 9, 10, 0x02)
    assert synth.build_udp_frame(0xFFFFFFFF, 0, 65535, 0, bytes(range(256)), 255) == oracle.build_udp_frame(
        0xFFFFFFFF, 0, 65535, 0, bytes(range(256)), 255
    )


# --- each stream's draws, by distribution at fixed seeds -----------------------

RATE, SPAN = 2000, 10.0


def episode(kind):
    return lambda rng: synth.gen_attack(Episode(kind, 0, SPAN, RATE, ATTACKERS), rng)


# Each stream over [0, SPAN) at RATE packets/s: how it is drawn, its (weight,
# packets) per event, which of its rows start an event (every row of a flood),
# and the mean gap within one.
STREAMS = {
    "benign": (lambda rng: synth.gen_benign(RATE, SPAN, rng), [(0.25, 3), (0.35, 5), (0.20, 2), (0.20, 1)],
               lambda r: (r["flags"] == SYN) | np.isin(r["kind"], [synth.DNS_QUERY, synth.BULK]), 0.001),
    "http_flood": (episode(TrafficClass.HTTP_FLOOD), [(0.1, 3 + gets) for gets in range(5, 15)],
                   lambda r: r["flags"] == SYN, 0.002),
    "syn_flood": (episode(TrafficClass.SYN_FLOOD), [(1.0, 1)], None, None),
    "ack_flood": (episode(TrafficClass.ACK_FLOOD), [(1.0, 1)], None, None),
    "udp_flood": (episode(TrafficClass.UDP_FLOOD), [(1.0, 1)], None, None),
}


def ks_distance(gaps, mean):
    """The Kolmogorov-Smirnov distance between the gaps' empirical CDF and the exponential CDF of `mean`."""
    x = np.sort(gaps)
    cdf = -np.expm1(-x / mean)
    below = np.arange(len(x)) / len(x)
    return max((below + 1 / len(x) - cdf).max(), (cdf - below).max())


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("stream", sorted(STREAMS))
def test_stream_count_and_gaps_follow_their_distributions(stream, seed):
    """Events arrive at RATE / E[K] per second and carry K packets each, so
    the count has mean RATE * SPAN and variance RATE * SPAN * E[K**2] / E[K]
    (compound Poisson); it lies within 5 standard deviations, which a normal
    count leaves with probability below 6e-7. The gaps between events, and
    between the packets within one, pass a Kolmogorov-Smirnov check against
    the exponential at level 0.001, which tells a mean 25% off."""
    draw, mix, starts, gap_within = STREAMS[stream]
    rows = draw(np.random.default_rng(seed))
    mean_k, mean_k2 = sum(w * k for w, k in mix), sum(w * k * k for w, k in mix)
    assert abs(len(rows) - RATE * SPAN) <= 5 * math.sqrt(RATE * SPAN * mean_k2 / mean_k)
    first = starts(rows) if starts else np.ones(len(rows), bool)
    t = rows["ts_us"] / 1e6
    checks = [(np.diff(t[first], prepend=0.0), mean_k / RATE)]
    checks += [(np.diff(t)[~first[1:]], gap_within)] if gap_within else []
    for gaps, mean in checks:
        limit = math.sqrt(-math.log(0.001 / 2) / 2 / len(gaps))  # Smirnov's asymptotic critical value
        assert ks_distance(gaps, mean) < limit
        assert ks_distance(gaps, 1.25 * mean) > limit


def test_arrivals_draw_batches_until_one_passes_the_end():
    """At 0.03 arrivals per second over [0, 1) a batch is one gap. At seed 34
    the first lands before the end, so a second batch is drawn; only the
    first arrival is kept."""
    gaps = np.random.default_rng(34).exponential(1 / 0.03, 3)
    rng = np.random.default_rng(34)
    assert synth._arrivals(rng, 0.0, 1.0, 0.03).tolist() == [gaps[0]]
    assert 0 <= gaps[0] < 1 < gaps[0] + gaps[1]
    assert rng.exponential(1 / 0.03) == gaps[2]  # exactly two batches were drawn
