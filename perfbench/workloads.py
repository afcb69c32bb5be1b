"""The benchmark's workloads: seeded scenario configs and the wild-header rewrite.

Each workload is a training capture plus a held-out test capture, both made
by `floodgate.synth` from the workload seed (the test capture from a second
seed derived from it). The rates, the 0.1 s window and the packets per window
are what define a workload; the durations are a third of the profile
scenarios so that one pipeline pass repeats several times within a run.

Why each workload exists, and which per-layer metric should move which
end-to-end metric on it:

* flood_mix -- packet-heavy: 48 s, benign_rate 200, four 8 s floods (syn,
  ack, http, udp) at 2000 pps from 40 attackers, about 74k packets in 480
  windows of about 150 packets. Decode (`pcapio.read_pcap.us_per_pkt`) and
  the per-packet feature loop (`features.label_windows.us_per_pkt`,
  `features.extract_features.us_per_window`) dominate `extract_s` and
  `classify_s`; training sees only about 340 rows and runs all 100 epochs,
  so an early-stopping fix shows on `train_s` here
  (`mlp.train.epochs`, `mlp.train.best_epoch`). A columnar decode and
  feature path must show its gain on this workload.
* sparse_windows -- per-window costs dominate: 600 s, benign_rate 20, four
  20 s floods at 200 pps from 4 attackers, about 28k packets in 6,000 window
  slots of which about 3,300 hold packets (about 8.5 each). The dense
  allocation of empty windows (`features.windows.slots` against
  `features.windows.nonempty`, `features.window_packets.us_per_pkt`), the
  per-window `forward` in classify (`mlp.forward.us_per_window`), the CSV
  rows (`dataset.write_csv.us_per_row`, `dataset.read_csv.us_per_row`) and
  the per-window formatting in `cli.classify.self_ms` move `extract_s`,
  `classify_s` and `train_s` (`mlp.train.ms_per_epoch`, `mlp.train.rows`).
  A per-packet decode optimisation should barely move this workload; a
  windowing or one-forward-path change should. Training is capped at 20
  epochs: uncapped, early stopping fires anywhere between epoch 20 and 100
  depending on the seed, which would make `train_s` a property of the seed
  rather than of the code.
* wild_headers -- flood_mix traffic rewritten to look like a real capture:
  half of all TCP segments carry Linux-style options, 1% of IPv4 packets
  carry a 4-byte IP option, 5% of frames carry an 802.1Q tag, and the file
  is written at snaplen 96 so that `incl_len < orig_len`. Synth emits only
  fixed 20-byte headers, so a fixed-offset fast path would win on flood_mix
  while slowing down or mis-decoding real captures; here variable offsets
  and truncation occur in the same batch (`pcapio.read_pcap.us_per_pkt`,
  `pcapio.outcome.*`). VLAN-tagged frames decode as non-IP today, which
  shows in `pcapio.outcome.non_ip` and `classify_accuracy_pct`.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path

WINDOW_S = 0.1

# Wild-header shares, each a seeded per-frame draw.
TCP_OPTION_SHARE = 0.5
IP_OPTION_SHARE = 0.01
VLAN_SHARE = 0.05
WILD_SNAPLEN = 96

# The test capture's synth seed is derived from the workload seed.
TEST_SEED_OFFSET = 1_000_003


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    duration: float
    benign_rate: float
    flood_len: float
    flood_rate: float
    attackers: int
    wild: bool = False
    train_args: tuple[str, ...] = ()

    def scenario(self, seed: int) -> str:
        """Scenario config text: four floods spread evenly over the duration."""
        lines = [f"duration {self.duration}", f"seed {seed}", f"benign_rate {self.benign_rate}"]
        gap = (self.duration - 4 * self.flood_len) / 4
        for i, kind in enumerate(("syn", "ack", "http", "udp")):
            start = gap + i * (self.flood_len + gap)
            end = start + self.flood_len
            lines.append(f"episode {kind} {start} {end} {self.flood_rate} {self.attackers}")
        return "\n".join(lines) + "\n"


_FLOOD_MIX = dict(duration=48.0, benign_rate=200.0, flood_len=8.0, flood_rate=2000.0, attackers=40)

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "flood_mix",
            "packet-heavy: ~150 packets per window, so decode and the per-packet feature loop dominate",
            **_FLOOD_MIX,
        ),
        Workload(
            "sparse_windows",
            "~8 packets per window and ~45% empty slots, so per-window costs (windowing, forward, CSV rows) dominate",
            duration=600.0, benign_rate=20.0, flood_len=20.0, flood_rate=200.0, attackers=4,
            train_args=("--epochs", "20"),
        ),
        Workload(
            "wild_headers",
            "flood_mix with TCP/IP options, VLAN tags and snaplen truncation, so header offsets vary within one batch",
            wild=True,
            **_FLOOD_MIX,
        ),
    )
}


def setup_captures(workload: Workload, seed: int, work: Path) -> dict[str, Path]:
    """Synthesize the training and test captures with their truth files."""
    from floodgate.synth import parse_scenario, run_scenario

    paths = {}
    for role, capture_seed in (("train", seed), ("test", seed + TEST_SEED_OFFSET)):
        pcap, truth = work / f"{role}.pcap", work / f"{role}.truth.csv"
        cfg = parse_scenario(workload.scenario(capture_seed))
        if workload.wild:
            raw = work / f"{role}.synth.pcap"
            run_scenario(cfg, raw, truth)
            rewrite_wild(raw, pcap, (capture_seed, 0x3C4D))
            raw.unlink()
        else:
            run_scenario(cfg, pcap, truth)
        paths[f"{role}_pcap"], paths[f"{role}_truth"] = pcap, truth
    return paths


# --- wild-header rewrite ---------------------------------------------------

ETHERTYPE_IPV4 = 0x0800
ETHERTYPE_VLAN = 0x8100
_SYN = 0x02

# Linux SYN options: MSS 1460, SACK permitted, timestamp, NOP, window scale 7.
_SYN_OPTIONS = struct.Struct("!BBH BB BBII B BBB")
# Linux data-segment options: NOP, NOP, timestamp.
_TS_OPTIONS = struct.Struct("!BB BBII")
# IPv4 Router Alert (RFC 2113), the commonest 4-byte IP option.
_IP_OPTION = b"\x94\x04\x00\x00"
_VLAN_TCI = 100  # priority 0, VLAN id 100


def _ip_checksum(header: bytes) -> int:
    total = sum(struct.unpack(f"!{len(header) // 2}H", header))
    total = (total & 0xFFFF) + (total >> 16)
    total = (total & 0xFFFF) + (total >> 16)
    return ~total & 0xFFFF


def rewrite_frame(data: bytes, tsval: int, tcp_options: bool, ip_option: bool, vlan: bool) -> bytes:
    """Add TCP options, an IP option and/or an 802.1Q tag to one synth frame.

    TCP options go only on TCP segments and the IP option only on IPv4
    packets; the other draws leave such frames as they are. Lengths, data
    offset, IHL and the IPv4 header checksum are kept consistent.
    """
    eth, body = data[:14], data[14:]
    if int.from_bytes(eth[12:14], "big") == ETHERTYPE_IPV4 and len(body) >= 20:
        ihl = (body[0] & 0x0F) * 4
        header, payload = bytearray(body[:ihl]), body[ihl:]
        if tcp_options and header[9] == 6 and len(payload) >= 20:
            data_off = (payload[12] >> 4) * 4
            if payload[13] & _SYN:
                opts = _SYN_OPTIONS.pack(2, 4, 1460, 4, 2, 8, 10, tsval, 0, 1, 3, 3, 7)
            else:
                opts = _TS_OPTIONS.pack(1, 1, 8, 10, tsval, tsval)
            tcp = bytearray(payload[:data_off]) + opts
            tcp[12] = ((data_off + len(opts)) // 4) << 4 | (tcp[12] & 0x0F)
            payload = bytes(tcp) + payload[data_off:]
        if ip_option:
            header[0] = 0x40 | (ihl + len(_IP_OPTION)) // 4
            header += _IP_OPTION
        struct.pack_into("!H", header, 2, len(header) + len(payload))
        struct.pack_into("!H", header, 10, 0)
        struct.pack_into("!H", header, 10, _ip_checksum(bytes(header)))
        body = bytes(header) + payload
    if vlan:
        eth = eth[:12] + struct.pack("!HH", ETHERTYPE_VLAN, _VLAN_TCI) + eth[12:14]
    return eth + body


def write_snapped_pcap(path, frames, snaplen: int) -> None:
    """Classic little-endian µs pcap with frames cut to `snaplen` bytes.

    `floodgate.pcapio.write_pcap` always writes incl_len == orig_len, so
    truncated captures need their own writer.
    """
    with open(path, "wb") as fh:
        fh.write(struct.pack("<IHHiIII", 0xA1B2C3D4, 2, 4, 0, 0, snaplen, 1))
        for ts_sec, ts_usec, data in frames:
            kept = data[:snaplen]
            fh.write(struct.pack("<IIII", ts_sec, ts_usec, len(kept), len(data)))
            fh.write(kept)


def rewrite_wild(src, dst, seed) -> None:
    """Rewrite a synth capture with the wild-header shares above, drawn from `seed`."""
    import numpy as np

    from floodgate.pcapio import read_frames

    frames = read_frames(src)
    draws = np.random.default_rng(seed).random((len(frames), 3))
    tcp_opt = draws[:, 0] < TCP_OPTION_SHARE
    ip_opt = draws[:, 1] < IP_OPTION_SHARE
    vlan = draws[:, 2] < VLAN_SHARE
    out = []
    for i, f in enumerate(frames):
        tsval = (f.ts_sec * 1000 + f.ts_usec // 1000) & 0xFFFFFFFF
        out.append((f.ts_sec, f.ts_usec, rewrite_frame(f.data, tsval, tcp_opt[i], ip_opt[i], vlan[i])))
    write_snapped_pcap(dst, out, WILD_SNAPLEN)


def header_shares(path) -> dict[str, float]:
    """Measured shares of the wild-header properties in a capture file.

    Read from the raw records, independently of floodgate's decoder:
    802.1Q-tagged frames over all frames, IPv4 packets with options over
    IPv4 packets, TCP segments with options over TCP segments, and frames
    captured shorter than they were on the wire.
    """
    frames = vlan = ipv4 = ip_opts = tcp = tcp_opts = truncated = 0
    with open(path, "rb") as fh:
        fh.read(24)
        while header := fh.read(16):
            _, _, incl_len, orig_len = struct.unpack("<IIII", header)
            data = fh.read(incl_len)
            frames += 1
            truncated += incl_len < orig_len
            offset = 12
            ethertype = int.from_bytes(data[offset : offset + 2], "big")
            if ethertype == ETHERTYPE_VLAN:
                vlan += 1
                offset += 4
                ethertype = int.from_bytes(data[offset : offset + 2], "big")
            ip = offset + 2
            if ethertype != ETHERTYPE_IPV4 or len(data) < ip + 20:
                continue
            ipv4 += 1
            ihl = (data[ip] & 0x0F) * 4
            ip_opts += ihl > 20
            if data[ip + 9] == 6 and len(data) >= ip + ihl + 13:
                tcp += 1
                tcp_opts += (data[ip + ihl + 12] >> 4) > 5

    def share(num: int, den: int) -> float:
        return num / den if den else 0.0

    return {
        "frames": frames,
        "vlan_share": share(vlan, frames),
        "ip_option_share": share(ip_opts, ipv4),
        "tcp_option_share": share(tcp_opts, tcp),
        "truncated_frames": truncated,
    }
