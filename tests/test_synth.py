"""The scenario grammar, the packets each episode kind sends, and seeded reproducibility.

Packet shapes are read back through `read_pcap`, the decoder the pipeline
uses, from captures holding one episode and no benign traffic.
"""

import numpy as np
import pytest

from floodgate.dataset import TrafficClass
from floodgate.errors import BadScenario
from floodgate.features import read_truth
from floodgate.pcapio import TCP, UDP, read_pcap
from floodgate.synth import ATTACKER_NET, HTTP_GET, SPOOF_NET, ip_to_int, parse_scenario, run_scenario

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
            ("duration 5\nbenign_rate inf\n", "benign_rate must be non-negative and finite"),
            ("duration 5\nbenign_rate nan\n", "benign_rate must be non-negative and finite"),
            ("duration 5\nbenign_rate -1\n", "benign_rate must be non-negative and finite"),
            ("duration 5\nepisode syn_flood 0 1 inf 1\n", "episode rate must be positive and finite"),
            ("duration 5\nepisode syn_flood 0 1 nan 1\n", "episode rate must be positive and finite"),
            ("duration 5\nseed -3\n", "seed must be non-negative"),
            ("duration 5\nvictim_port 70000\n", "victim_port 70000 out of range"),
            ("duration 5\nvictim_ip 10.0.0\n", "bad IPv4 address"),
        ],
    )
    def test_rejected(self, text, message):
        with pytest.raises(BadScenario, match=message):
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
        assert parse_scenario("duration 5\n", default_seed=9).seed == 9
        assert parse_scenario("duration 5\nseed 4\n", default_seed=9).seed == 4


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
