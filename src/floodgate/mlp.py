"""The 24-106-5 feed-forward classifier: forward pass, training, persistence.

One hidden layer of 106 tanh units, a 5-unit softmax output, categorical
cross-entropy, and Adam over seeded mini-batches. All arithmetic is float64
and every operation is deterministic for a given seed.

There is one forward computation, `_forward_batch`, over a matrix of rows:
training, `forward` (which `classify` calls once per capture) and
`predict_batch` (which `eval` calls) all use it. There is one backward
computation, `_backward`, which `train` calls on each mini-batch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .dataset import (
    NUM_CLASSES,
    NUM_FEATURES,
    Dataset,
    NormalizationStats,
    apply_normalization,
    fit_normalization,
)
from .errors import (
    BadMagic,
    CorruptModel,
    DimensionMismatch,
    EmptyDataset,
    NonFiniteLoss,
    VersionMismatch,
)
from .ioutil import atomic_write

INPUT_UNITS = NUM_FEATURES
HIDDEN_UNITS = 106
OUTPUT_UNITS = NUM_CLASSES

ACT_TANH = "tanh"
ACT_SOFTMAX = "softmax"

MODEL_MAGIC = "FLOODGATE-MLP"
MODEL_VERSION = 1

LOSS_CLAMP = 1e-15

# Early stopping counts an epoch as an improvement only when its validation
# loss (mean cross-entropy, nats) is more than this below the loss at the last
# counted improvement. Absolute, not relative: on separable data the loss
# keeps falling by a steady fraction per epoch, so any relative margin small
# enough to be useful would never let patience run out.
MIN_IMPROVEMENT = 1e-4

# Adam's moment decay rates and denominator guard (Kingma and Ba's defaults).
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPSILON = 1e-8


@dataclass
class DenseLayer:
    """Weights (out x in) and biases (out,); the hidden layer applies tanh, the output softmax."""

    weights: np.ndarray
    biases: np.ndarray

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=np.float64)
        self.biases = np.asarray(self.biases, dtype=np.float64)
        if self.weights.ndim != 2 or self.biases.shape != (self.weights.shape[0],):
            raise ValueError("weight/bias shapes are inconsistent")
        if not (np.isfinite(self.weights).all() and np.isfinite(self.biases).all()):
            raise ValueError("layer parameters must be finite")


@dataclass
class MlpModel:
    """The fixed 24-106-5 network plus the normalization fitted with it."""

    hidden: DenseLayer
    output: DenseLayer
    norm: NormalizationStats

    def __post_init__(self):
        if self.hidden.weights.shape != (HIDDEN_UNITS, INPUT_UNITS):
            raise ValueError(f"hidden layer must be {HIDDEN_UNITS}x{INPUT_UNITS}")
        if self.output.weights.shape != (OUTPUT_UNITS, HIDDEN_UNITS):
            raise ValueError(f"output layer must be {OUTPUT_UNITS}x{HIDDEN_UNITS}")


def glorot_limit(fan_in: int, fan_out: int) -> float:
    return math.sqrt(6.0 / (fan_in + fan_out))


def init_model(seed: int, norm: NormalizationStats) -> MlpModel:
    """Fresh model: Glorot-uniform weights, zero biases, deterministic per seed."""
    rng = np.random.default_rng(seed)
    l1 = glorot_limit(INPUT_UNITS, HIDDEN_UNITS)
    l2 = glorot_limit(HIDDEN_UNITS, OUTPUT_UNITS)
    w1 = rng.uniform(-l1, l1, size=(HIDDEN_UNITS, INPUT_UNITS))
    w2 = rng.uniform(-l2, l2, size=(OUTPUT_UNITS, HIDDEN_UNITS))
    return MlpModel(DenseLayer(w1, np.zeros(HIDDEN_UNITS)), DenseLayer(w2, np.zeros(OUTPUT_UNITS)), norm)


_OPEN_LO = 5e-324
_OPEN_HI = math.nextafter(1.0, 0.0)


def _forward_batch(w1, b1, w2, b2, x_rows):
    h = np.tanh(x_rows @ w1.T + b1)
    z = h @ w2.T + b2
    z = z - z.max(axis=1, keepdims=True)
    e = np.exp(z)
    p = e / e.sum(axis=1, keepdims=True)
    return h, p


def _backward(w2, x_rows, y, h, p):
    """Gradients of the mean cross-entropy over a batch, from its forward pass.

    `h` and `p` are the hidden activations and probabilities `_forward_batch`
    returned for `x_rows`; `p` is overwritten with the output-layer error.
    Returns the gradients of the hidden weights and biases, then the output's.
    """
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


def forward(m: MlpModel, x_rows) -> np.ndarray:
    """Class probabilities, (n, 5), for an (n, 24) matrix of normalized features.

    Each row is a max-shifted softmax over its logits, kept strictly inside
    (0, 1): an extreme logit gap that would round an entry to exactly 0 or 1
    is nudged to the nearest representable value inside the interval. A
    single row is passed as `x[None]`. A row's last bits can depend on the
    batch it is computed in, because the matrix products block the rows
    differently for different batch sizes, so `classify` computes each
    capture in one call.
    """
    x_rows = np.asarray(x_rows, dtype=np.float64)
    if x_rows.ndim != 2 or x_rows.shape[1] != INPUT_UNITS:
        raise DimensionMismatch(f"expected (n, {INPUT_UNITS}), got {x_rows.shape}")
    _, p = _forward_batch(m.hidden.weights, m.hidden.biases, m.output.weights, m.output.biases, x_rows)
    return np.clip(p, _OPEN_LO, _OPEN_HI)


def predict_batch(m: MlpModel, x_rows) -> np.ndarray:
    """Argmax class of each row of `forward`; ties resolve to the lowest ordinal."""
    return forward(m, x_rows).argmax(axis=1)


@dataclass
class TrainConfig:
    learning_rate: float = 1e-3
    epochs: int = 100
    batch_size: int = 64
    seed: int = 0
    patience: int = 10

    def __post_init__(self):
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if self.epochs < 1:
            raise ValueError("epochs must be at least 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be at least 1")
        if self.patience < 0:
            raise ValueError("patience must be non-negative")


@dataclass
class TrainHistory:
    """Per-epoch training loss, validation loss, and validation accuracy."""

    train_loss: list[float] = field(default_factory=list)
    val_loss: list[float] = field(default_factory=list)
    val_accuracy: list[float] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.train_loss)


def _checked_loss(p, y, where: str) -> float:
    """Mean cross-entropy; raises NonFiniteLoss if any true-class prob hit zero."""
    true_p = p[np.arange(len(y)), y]
    if not np.isfinite(true_p).all() or true_p.min() <= 0.0:
        raise NonFiniteLoss(f"training diverged ({where}): true-class probability underflowed")
    return float(np.mean(-np.log(np.maximum(true_p, LOSS_CLAMP))))


def train(train_ds: Dataset, val_ds: Dataset, cfg: TrainConfig | None = None) -> tuple[MlpModel, TrainHistory]:
    """Fit the network on raw records; normalization is fitted on train only.

    Mini-batch Adam with a seeded per-epoch shuffle and early stopping on
    validation loss. An epoch is an improvement when its validation loss is
    more than `MIN_IMPROVEMENT` below the loss at the last improvement;
    training stops after `cfg.patience + 1` epochs in a row without one, or
    at `cfg.epochs`. Returns the weights of the epoch with the lowest
    validation loss, which may be a later epoch than the last improvement.
    """
    if cfg is None:
        cfg = TrainConfig()
    if len(train_ds) == 0 or len(val_ds) == 0:
        raise EmptyDataset("train and validation datasets must be non-empty")

    norm = fit_normalization(train_ds)
    x_train = apply_normalization(train_ds.features, norm)
    y_train = train_ds.labels
    x_val = apply_normalization(val_ds.features, norm)
    y_val = val_ds.labels

    model = init_model(cfg.seed, norm)
    params = [
        model.hidden.weights.copy(),
        model.hidden.biases.copy(),
        model.output.weights.copy(),
        model.output.biases.copy(),
    ]
    m_state = [np.zeros_like(p) for p in params]
    v_state = [np.zeros_like(p) for p in params]
    step = 0

    shuffle_rng = np.random.default_rng((cfg.seed, 0x5F10AD))
    history = TrainHistory()
    best_val = math.inf
    best_params = [p.copy() for p in params]
    improved_val = math.inf
    epochs_since_improvement = 0

    n = len(y_train)
    for epoch in range(cfg.epochs):
        order = shuffle_rng.permutation(n)
        batch_losses = []
        for start in range(0, n, cfg.batch_size):
            idx = order[start : start + cfg.batch_size]
            xb, yb = x_train[idx], y_train[idx]
            w1, b1, w2, b2 = params
            h, p = _forward_batch(w1, b1, w2, b2, xb)
            batch_losses.append(_checked_loss(p, yb, f"epoch {epoch + 1}"))
            grads = _backward(w2, xb, yb, h, p)

            step += 1
            bias1 = 1.0 - ADAM_BETA1**step
            bias2 = 1.0 - ADAM_BETA2**step
            for param, grad, m_acc, v_acc in zip(params, grads, m_state, v_state):
                m_acc *= ADAM_BETA1
                m_acc += (1.0 - ADAM_BETA1) * grad
                v_acc *= ADAM_BETA2
                v_acc += (1.0 - ADAM_BETA2) * (grad * grad)
                param -= cfg.learning_rate * (m_acc / bias1) / (np.sqrt(v_acc / bias2) + ADAM_EPSILON)

        w1, b1, w2, b2 = params
        _, p_val = _forward_batch(w1, b1, w2, b2, x_val)
        val_loss = _checked_loss(p_val, y_val, f"validation after epoch {epoch + 1}")
        val_acc = float(np.mean(p_val.argmax(axis=1) == y_val))
        history.train_loss.append(float(np.mean(batch_losses)))
        history.val_loss.append(val_loss)
        history.val_accuracy.append(val_acc)

        if val_loss < best_val:
            best_val = val_loss
            best_params = [p.copy() for p in params]
        if val_loss < improved_val - MIN_IMPROVEMENT:
            improved_val = val_loss
            epochs_since_improvement = 0
        else:
            epochs_since_improvement += 1
            if epochs_since_improvement > cfg.patience:
                break

    w1, b1, w2, b2 = best_params
    return MlpModel(DenseLayer(w1, b1), DenseLayer(w2, b2), norm), history


def _fmt(value: float) -> str:
    return repr(float(value))


def save_model(m: MlpModel, path) -> None:
    """Write the model as whitespace-separated text with exact float round-trip."""
    with atomic_write(path, "w") as fh:
        fh.write(f"{MODEL_MAGIC} v{MODEL_VERSION}\n")
        fh.write(f"layers {INPUT_UNITS} {HIDDEN_UNITS} {OUTPUT_UNITS}\n")
        fh.write(f"activations {ACT_TANH} {ACT_SOFTMAX}\n")
        fh.write("norm_mean " + " ".join(_fmt(v) for v in m.norm.mean) + "\n")
        fh.write("norm_std " + " ".join(_fmt(v) for v in m.norm.std) + "\n")
        for layer in (m.hidden, m.output):
            rows, cols = layer.weights.shape
            fh.write(f"weights {rows} {cols}\n")
            for row in layer.weights:
                fh.write(" ".join(_fmt(v) for v in row) + "\n")
            fh.write(f"biases {rows}\n")
            fh.write(" ".join(_fmt(v) for v in layer.biases) + "\n")


def load_model(path) -> MlpModel:
    """Read a model file written by save_model, validating structure throughout."""
    with open(path) as fh:
        first = fh.readline().split()
        if len(first) != 2 or first[0] != MODEL_MAGIC:
            raise BadMagic(f"{path}: not a {MODEL_MAGIC} model file")
        if first[1] != f"v{MODEL_VERSION}":
            raise VersionMismatch(f"{path}: unsupported version {first[1]!r}")
        tokens = fh.read().split()

    pos = 0

    def take() -> str:
        nonlocal pos
        if pos >= len(tokens):
            raise CorruptModel(f"{path}: file ends prematurely")
        tok = tokens[pos]
        pos += 1
        return tok

    def expect(word: str) -> None:
        tok = take()
        if tok != word:
            raise CorruptModel(f"{path}: expected {word!r}, found {tok!r}")

    def take_int() -> int:
        tok = take()
        try:
            return int(tok)
        except ValueError:
            raise CorruptModel(f"{path}: expected an integer, found {tok!r}") from None

    def take_floats(count: int) -> np.ndarray:
        nonlocal pos
        if pos + count > len(tokens):
            raise CorruptModel(f"{path}: expected {count} values, file ends prematurely")
        chunk = tokens[pos : pos + count]
        pos += count
        try:
            return np.array([float(t) for t in chunk], dtype=np.float64)
        except ValueError:
            raise CorruptModel(f"{path}: non-numeric parameter value") from None

    expect("layers")
    dims = (take_int(), take_int(), take_int())
    if dims != (INPUT_UNITS, HIDDEN_UNITS, OUTPUT_UNITS):
        raise CorruptModel(f"{path}: unsupported layer sizes {dims}")
    expect("activations")
    acts = (take(), take())
    if acts != (ACT_TANH, ACT_SOFTMAX):
        raise CorruptModel(f"{path}: unsupported activations {acts}")
    expect("norm_mean")
    mean = take_floats(INPUT_UNITS)
    expect("norm_std")
    std = take_floats(INPUT_UNITS)

    layers = []
    for expected_shape in ((HIDDEN_UNITS, INPUT_UNITS), (OUTPUT_UNITS, HIDDEN_UNITS)):
        expect("weights")
        rows, cols = take_int(), take_int()
        if (rows, cols) != expected_shape:
            raise CorruptModel(f"{path}: weights declared {rows}x{cols}, expected {expected_shape}")
        weights = take_floats(rows * cols).reshape(rows, cols)
        expect("biases")
        count = take_int()
        if count != rows:
            raise CorruptModel(f"{path}: biases declared {count}, expected {rows}")
        biases = take_floats(count)
        layers.append((weights, biases))

    if pos != len(tokens):
        raise CorruptModel(f"{path}: trailing data after model parameters")

    try:
        norm = NormalizationStats(mean, std)
        return MlpModel(hidden=DenseLayer(*layers[0]), output=DenseLayer(*layers[1]), norm=norm)
    except ValueError as exc:
        raise CorruptModel(f"{path}: {exc}") from None
