"""Per-packet references for the columnar decoder, synth encoder and feature path.

`decode_frame` decodes one Ethernet frame with byte slices and
`int.from_bytes`, as the package did before `read_pcap`'s columnar decoder
became its only decoder; that decoder must equal it field for field.
`build_tcp_frame` and `build_udp_frame` pack one synth frame with `struct`,
as synth did before `synth.encode_records` encoded many `_ROW` records at
once; the encoder must equal them byte for byte. `window_features` is the
loop over one window's PacketMeta records that the columnar
`features.extract_features` replaced, and `windows` the windowing rule
restricted to non-empty windows. The columnar code must equal them bit for
bit. Its means and stds take the rule `features` states: integer sizes and
microsecond gaps, a sequential float sum, a second pass for the std, and
seconds from one division by 10**6. Float sums are explicit loops so that
they stay sequential: from Python 3.12 on, `sum()` of floats is compensated.
`timestamp` gives a record's float seconds, from its integer microseconds
`ts_us`, only to check which window holds it and in what order.

synth's streams have no reference here: they are declared by their draws,
and `test_synth.py` checks their counts, ranges and gaps by distribution.

`write_rows` is the `csv.writer` loop that wrote one `repr` per value before
`dataset.write_rows` formatted each distinct value of a block once, and
`predictions` the per-row text `floodgate classify` built from a window's
bounds, its label and its probabilities; both must give the same bytes.

`train` is the training loop with one Adam pass per array, `(w1, b1, w2,
b2)` each with its own moment arrays, and `backward` the backward pass that
returns new gradient arrays, as `mlp` had them before `mlp.train` kept its
state in one flat vector; `mlp.train` must equal it bit for bit.
"""

import csv
import math
import struct

import numpy as np

from floodgate import mlp
from floodgate.dataset import TrafficClass
from floodgate.features import HTTP_METHODS, HTTP_PORTS, SMALL_UDP_MAX_PAYLOAD
from floodgate.pcapio import PacketMeta, Transport

# TCP flag bits and header constants, written out here rather than taken from the package.
FIN, SYN, RST, PSH, ACK = 0x01, 0x02, 0x04, 0x08, 0x10
ETHERTYPE_IPV4 = 0x0800
PROTO_TCP = 6
PROTO_UDP = 17
PAYLOAD_PREFIX_LEN = 4

_ETH = struct.Struct("!6s6sH")
_IPV4 = struct.Struct("!BBHHHBBH4s4s")
_TCP = struct.Struct("!HHIIBBHHH")
_UDP = struct.Struct("!HHHH")


def timestamp(p: PacketMeta) -> float:
    """A record's time in seconds, for checking which window holds it and in what order."""
    return p.ts_us / 1e6


def payload_word(payload: bytes) -> int:
    """The first PAYLOAD_PREFIX_LEN bytes of a captured payload as one big-endian
    integer, or 0 where fewer were captured."""
    if len(payload) < PAYLOAD_PREFIX_LEN:
        return 0
    return int.from_bytes(payload[:PAYLOAD_PREFIX_LEN], "big")


def decode_frame(data: bytes, ts_us: int = 0, original_len: int | None = None) -> PacketMeta:
    """Decode one Ethernet frame; never raises, degrades to the layer reached."""
    meta = PacketMeta(
        ts_us=ts_us,
        captured_len=len(data),
        original_len=len(data) if original_len is None else original_len,
    )
    if len(data) < 14:
        return meta
    if int.from_bytes(data[12:14], "big") != ETHERTYPE_IPV4:
        return meta

    ip = data[14:]
    if len(ip) < 20:
        return meta
    version = ip[0] >> 4
    ihl = (ip[0] & 0x0F) * 4
    if version != 4 or ihl < 20 or len(ip) < ihl:
        return meta

    total_len = int.from_bytes(ip[2:4], "big")
    meta.transport = Transport.OTHER_IP
    meta.ttl = ip[8]
    meta.src_ip = int.from_bytes(ip[12:16], "big")
    meta.dst_ip = int.from_bytes(ip[16:20], "big")
    meta.payload_len = max(0, total_len - ihl)

    # Non-first fragments carry no transport header.
    if int.from_bytes(ip[6:8], "big") & 0x1FFF:
        return meta

    proto = ip[9]
    body = ip[ihl : max(ihl, total_len)]
    if proto == PROTO_TCP:
        if len(body) < 14:
            return meta
        data_off = (body[12] >> 4) * 4
        if data_off < 20:
            return meta
        meta.transport = Transport.TCP
        meta.src_port = int.from_bytes(body[0:2], "big")
        meta.dst_port = int.from_bytes(body[2:4], "big")
        meta.tcp_flags = body[13] & 0x3F
        meta.payload_len = max(0, total_len - ihl - data_off)
        meta.payload_prefix = payload_word(body[data_off:])
    elif proto == PROTO_UDP:
        if len(body) < 8:
            return meta
        meta.transport = Transport.UDP
        meta.src_port = int.from_bytes(body[0:2], "big")
        meta.dst_port = int.from_bytes(body[2:4], "big")
        udp_len = int.from_bytes(body[4:6], "big")
        meta.payload_len = max(0, udp_len - 8)
        meta.payload_prefix = payload_word(body[8 : 8 + meta.payload_len])
    return meta


def _mac_for(ip: int) -> bytes:
    # Locally administered MAC derived from the IPv4 address.
    return b"\x02\x00" + ip.to_bytes(4, "big")


def ip_checksum(header: bytes) -> int:
    """The IPv4 header checksum: one's-complement sum of 16-bit words, folded twice."""
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
    checksum = ip_checksum(header)
    return header[:10] + checksum.to_bytes(2, "big") + header[12:] + payload


def build_tcp_frame(src_ip, dst_ip, src_port, dst_port, flags, payload=b"", ttl=64):
    tcp = _TCP.pack(src_port, dst_port, 0, 0, 5 << 4, flags, 65535, 0, 0) + payload
    packet = _ipv4(src_ip, dst_ip, 6, tcp, ttl)
    return _ETH.pack(_mac_for(dst_ip), _mac_for(src_ip), 0x0800) + packet


def build_udp_frame(src_ip, dst_ip, src_port, dst_port, payload=b"", ttl=64):
    udp = _UDP.pack(src_port, dst_port, 8 + len(payload), 0) + payload
    packet = _ipv4(src_ip, dst_ip, 17, udp, ttl)
    return _ETH.pack(_mac_for(dst_ip), _mac_for(src_ip), 0x0800) + packet


def windows(metas, window_len):
    """(start_ts, end_ts, packets) of each non-empty window of a sorted stream."""
    len_us = round(window_len * 1e6)
    slots = {}
    for m in metas:
        slots.setdefault(m.ts_us // len_us, []).append(m)
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


def _mean_and_std(values, count):
    """The mean of integer `values` over `count`, and their population std
    about it: two sequential float sums, the second of squared deviations."""
    mean = _fsum_sequential(float(v) for v in values) / count
    return mean, math.sqrt(_fsum_sequential((v - mean) * (v - mean) for v in values) / count)


def window_features(pkts):
    """The 24 schema-v1 features of one non-empty window's packets."""
    n = len(pkts)
    byte_count = 0
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
            if p.dst_port in HTTP_PORTS and p.payload_prefix.to_bytes(4, "big") in HTTP_METHODS:
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

    mean_size, std_size = _mean_and_std([p.original_len for p in pkts], n)
    # Gaps in integer microseconds; a window of one packet has none, and 0.0 for both.
    stamps = [p.ts_us for p in pkts]
    mean_gap, std_gap = _mean_and_std([b - a for a, b in zip(stamps, stamps[1:])], max(n - 1, 1))

    return np.array(
        [
            float(n),
            float(byte_count),
            mean_size,
            std_size,
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
            mean_gap / 1e6,
            std_gap / 1e6,
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


def write_rows(path, header, values, labels) -> None:
    """`header`, then per row the `repr` of each float and the label's alias, through `csv.writer`."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row, label in zip(np.asarray(values, dtype=np.float64).tolist(), labels):
            writer.writerow([repr(v) for v in row] + [TrafficClass(int(label)).alias])


def predictions(header, start_ts, end_ts, probs) -> str:
    """The predictions file: `header`, then per window its bounds, the argmax's alias and the probabilities."""
    lines = [header]
    labels = probs.argmax(axis=1).tolist()
    for start, end, label, row in zip(start_ts.tolist(), end_ts.tolist(), labels, probs.tolist()):
        lines.append(",".join([repr(start), repr(end), TrafficClass(label).alias] + [repr(p) for p in row]))
    return "\n".join(lines) + "\n"


def backward(w2, x_rows, y, h, p):
    """Gradients of `(w1, b1, w2, b2)` for one batch; `p` is overwritten."""
    n = len(y)
    d2 = p
    d2[np.arange(n), y] -= 1.0
    d2 /= n
    gw2 = d2.T @ h
    gb2 = d2.sum(axis=0)
    d1 = (d2 @ w2) * (1.0 - h * h)
    gw1 = d1.T @ x_rows
    gb1 = d1.sum(axis=0)
    return gw1, gb1, gw2, gb2


def train(train_ds, val_ds, epochs, seed):
    """`mlp.train` as one Adam pass per parameter array, with the same
    shuffle, early stopping and best-epoch rule."""
    mean, std = train_ds.features.mean(axis=0), train_ds.features.std(axis=0)
    std = np.where(std < 1e-12, 1.0, std)
    x_train = (train_ds.features - mean) / std
    y_train = train_ds.labels
    x_val = (val_ds.features - mean) / std
    y_val = val_ds.labels

    params = list(mlp.init_model(seed, mean, std).params)
    m_state = [np.zeros_like(p) for p in params]
    v_state = [np.zeros_like(p) for p in params]
    step = 0

    shuffle_rng = np.random.default_rng((seed, 0x5F10AD))
    history = mlp.TrainHistory()
    best_val = math.inf
    best_params = [p.copy() for p in params]
    improved_val = math.inf
    epochs_since_improvement = 0

    n = len(y_train)
    for epoch in range(epochs):
        order = shuffle_rng.permutation(n)
        batch_losses = []
        for start in range(0, n, mlp.BATCH_SIZE):
            idx = order[start : start + mlp.BATCH_SIZE]
            xb, yb = x_train[idx], y_train[idx]
            h, p = mlp._forward_batch(params, xb)
            batch_losses.append(mlp._checked_loss(p, yb, f"epoch {epoch + 1}"))
            grads = backward(params[2], xb, yb, h, p)

            step += 1
            bias1 = 1.0 - mlp.ADAM_BETA1**step
            bias2 = 1.0 - mlp.ADAM_BETA2**step
            for param, grad, m_acc, v_acc in zip(params, grads, m_state, v_state):
                m_acc *= mlp.ADAM_BETA1
                m_acc += (1.0 - mlp.ADAM_BETA1) * grad
                v_acc *= mlp.ADAM_BETA2
                v_acc += (1.0 - mlp.ADAM_BETA2) * (grad * grad)
                param -= mlp.LEARNING_RATE * (m_acc / bias1) / (np.sqrt(v_acc / bias2) + mlp.ADAM_EPSILON)

        _, p_val = mlp._forward_batch(params, x_val)
        val_loss = mlp._checked_loss(p_val, y_val, f"validation after epoch {epoch + 1}")
        history.train_loss.append(float(np.mean(batch_losses)))
        history.val_loss.append(val_loss)
        history.val_accuracy.append(float(np.mean(p_val.argmax(axis=1) == y_val)))

        if val_loss < best_val:
            best_val = val_loss
            best_params = [p.copy() for p in params]
        if val_loss < improved_val - mlp.MIN_IMPROVEMENT:
            improved_val = val_loss
            epochs_since_improvement = 0
        else:
            epochs_since_improvement += 1
            if epochs_since_improvement > mlp.PATIENCE:
                break

    return mlp.MlpModel(mean, std, *best_params), history
