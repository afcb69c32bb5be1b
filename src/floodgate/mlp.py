"""The 24-106-5 feed-forward classifier: forward pass, training, persistence.

One hidden layer of 106 tanh units, a 5-unit softmax output, categorical
cross-entropy, and Adam over seeded mini-batches of BATCH_SIZE rows at
LEARNING_RATE. All arithmetic is float64 and every operation is
deterministic for a given seed; `train` takes only the number of epochs and
the seed, and fits the normalization (`mean`, `std`) on the training split.

A model is the six arrays of its file, one entry each in the table
`_SECTIONS`, which `MlpModel`, `save_model` and `load_model` all walk.

There is one forward computation, `_forward_batch`, over a matrix of
normalized rows: training, `forward` (which `classify` calls once per
capture) and `predict_batch` (which `eval` calls) all use it; the latter two
take raw features and normalize them with the model's `mean` and `std`.
There is one backward computation, `_backward`, which `train` calls on each
mini-batch; it writes into views of the flat gradient vector. `train` keeps
its parameters, gradients and Adam moments in flat vectors of 3,185 entries,
with `w1`, `b1`, `w2` and `b2` as views in `_SECTIONS` order (`_views`).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .dataset import NUM_CLASSES, NUM_FEATURES, Dataset, TrafficClass
from .errors import FloodgateError, NonFiniteLoss
from .ioutil import atomic_write, open_text, strict_numbers

INPUT_UNITS = NUM_FEATURES
HIDDEN_UNITS = 106
OUTPUT_UNITS = NUM_CLASSES

MODEL_MAGIC = "FLOODGATE-MLP"
MODEL_VERSION = 1

LOSS_CLAMP = 1e-15

# Early stopping counts an epoch as an improvement only when its validation
# loss (mean cross-entropy, nats) is more than this below the loss at the last
# counted improvement. Absolute, not relative: on separable data the loss
# keeps falling by a steady fraction per epoch, so any relative margin small
# enough to be useful would never let patience run out. Training stops after
# PATIENCE + 1 epochs in a row without an improvement.
MIN_IMPROVEMENT = 1e-4
PATIENCE = 10

# Adam's step size, moment decay rates and denominator guard (Kingma and
# Ba's defaults), and the rows per mini-batch.
LEARNING_RATE = 1e-3
BATCH_SIZE = 64
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPSILON = 1e-8


# The model file after its magic line, one section per entry in file order:
# the `MlpModel` field it holds (None for a header line), its header words,
# then floats of the given shape, one row per line (a shape of (0,) is one
# empty row). A header ending in a space shares a line with its first row;
# the reader only splits on whitespace.
_SECTIONS = (
    (None, f"layers {INPUT_UNITS} {HIDDEN_UNITS} {OUTPUT_UNITS}", (0,)),
    (None, "activations tanh softmax", (0,)),
    ("mean", "norm_mean ", (INPUT_UNITS,)),
    ("std", "norm_std ", (INPUT_UNITS,)),
    ("w1", f"weights {HIDDEN_UNITS} {INPUT_UNITS}\n", (HIDDEN_UNITS, INPUT_UNITS)),
    ("b1", f"biases {HIDDEN_UNITS}\n", (HIDDEN_UNITS,)),
    ("w2", f"weights {OUTPUT_UNITS} {HIDDEN_UNITS}\n", (OUTPUT_UNITS, HIDDEN_UNITS)),
    ("b2", f"biases {OUTPUT_UNITS}\n", (OUTPUT_UNITS,)),
)


@dataclass(eq=False)
class MlpModel:
    """The fixed 24-106-5 network plus the normalization fitted with it, as the
    arrays of `_SECTIONS`: each must have its shape and be finite, and `std` positive."""

    mean: np.ndarray
    std: np.ndarray
    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: np.ndarray

    def __post_init__(self):
        for name, _, shape in _SECTIONS:
            if name:
                value = np.asarray(getattr(self, name), dtype=np.float64)
                if value.shape != shape:
                    raise ValueError(f"{name} must have shape {shape}, got {value.shape}")
                if not np.isfinite(value).all():
                    raise ValueError(f"{name} must be finite")
                setattr(self, name, value)
        if (self.std <= 0).any():
            raise ValueError("std values must be positive")

    @property
    def params(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The trained arrays `(w1, b1, w2, b2)`, as `_forward_batch` takes them."""
        return self.w1, self.b1, self.w2, self.b2


def glorot_limit(fan_in: int, fan_out: int) -> float:
    return math.sqrt(6.0 / (fan_in + fan_out))


def init_model(seed: int, mean, std) -> MlpModel:
    """Fresh model: Glorot-uniform weights, zero biases, deterministic per seed."""
    rng = np.random.default_rng(seed)
    l1 = glorot_limit(INPUT_UNITS, HIDDEN_UNITS)
    l2 = glorot_limit(HIDDEN_UNITS, OUTPUT_UNITS)
    w1 = rng.uniform(-l1, l1, size=(HIDDEN_UNITS, INPUT_UNITS))
    w2 = rng.uniform(-l2, l2, size=(OUTPUT_UNITS, HIDDEN_UNITS))
    return MlpModel(mean, std, w1, np.zeros(HIDDEN_UNITS), w2, np.zeros(OUTPUT_UNITS))


_OPEN_LO = 5e-324
_OPEN_HI = math.nextafter(1.0, 0.0)


def _forward_batch(params, x_rows):
    w1, b1, w2, b2 = params
    h = np.tanh(x_rows @ w1.T + b1)
    z = h @ w2.T + b2
    z = z - z.max(axis=1, keepdims=True)
    e = np.exp(z)
    p = e / e.sum(axis=1, keepdims=True)
    return h, p


def _views(flat):
    """`(w1, b1, w2, b2)`, the last four of `_SECTIONS`, as reshaped views into one flat vector."""
    shapes = [shape for _, _, shape in _SECTIONS[-4:]]
    parts = np.split(flat, np.cumsum([math.prod(shape) for shape in shapes])[:-1])
    return [part.reshape(shape) for part, shape in zip(parts, shapes)]


def _backward(w2, x_rows, y, h, p, out):
    """Gradients of the mean cross-entropy over a batch, from its forward pass.

    `h` and `p` are the hidden activations and probabilities `_forward_batch`
    returned for `x_rows`; `p` is overwritten with the output-layer error.
    The gradients of `(w1, b1, w2, b2)` are written into the four arrays of `out`.
    """
    gw1, gb1, gw2, gb2 = out
    n = len(y)
    d2 = p
    d2[np.arange(n), y] -= 1.0
    d2 /= n
    np.matmul(d2.T, h, out=gw2)
    d2.sum(axis=0, out=gb2)
    d1 = (d2 @ w2) * (1.0 - h * h)
    np.matmul(d1.T, x_rows, out=gw1)
    d1.sum(axis=0, out=gb1)


def forward(m: MlpModel, x_rows) -> np.ndarray:
    """Class probabilities, (n, 5), for an (n, 24) matrix of raw features.

    Each row is normalized with the model's own `mean` and `std`, and its
    probabilities are a max-shifted softmax over its logits, kept strictly
    inside (0, 1): an extreme logit gap that would round an entry to exactly
    0 or 1 is nudged to the nearest representable value inside the interval.
    A single row is passed as `x[None]`. A row's last bits can depend on the
    batch it is computed in, because the matrix products block the rows
    differently for different batch sizes, so `classify` computes each
    capture in one call.
    """
    x_rows = np.asarray(x_rows, dtype=np.float64)
    if x_rows.ndim != 2 or x_rows.shape[1] != INPUT_UNITS:
        raise ValueError(f"expected (n, {INPUT_UNITS}), got {x_rows.shape}")
    _, p = _forward_batch(m.params, (x_rows - m.mean) / m.std)
    return np.clip(p, _OPEN_LO, _OPEN_HI)


def predict_batch(m: MlpModel, x_rows) -> np.ndarray:
    """Argmax class of each row of `forward`; ties resolve to the lowest ordinal."""
    return forward(m, x_rows).argmax(axis=1)


@dataclass
class TrainHistory:
    """Per-epoch training loss, validation loss and accuracy; the 1-based epoch whose
    weights were kept (the first with the lowest validation loss); whether patience ran out."""

    train_loss: list[float] = field(default_factory=list)
    val_loss: list[float] = field(default_factory=list)
    val_accuracy: list[float] = field(default_factory=list)
    best_epoch: int = 0
    patience_ran_out: bool = False

    def __len__(self) -> int:
        return len(self.train_loss)


def _checked_loss(p, y, where: str) -> float:
    """Mean cross-entropy; raises NonFiniteLoss if any true-class prob hit zero."""
    true_p = p[np.arange(len(y)), y]
    if not np.isfinite(true_p).all() or true_p.min() <= 0.0:
        raise NonFiniteLoss(f"training diverged ({where}): true-class probability underflowed")
    return float(np.mean(-np.log(np.maximum(true_p, LOSS_CLAMP))))


def train(train_ds: Dataset, val_ds: Dataset, epochs: int, seed: int) -> tuple[MlpModel, TrainHistory]:
    """Fit the network on raw records; normalization is fitted on train only.

    Mini-batch Adam with a seeded per-epoch shuffle and early stopping on
    validation loss. An epoch is an improvement when its validation loss is
    more than `MIN_IMPROVEMENT` below the loss at the last improvement;
    training stops after `PATIENCE + 1` epochs in a row without one, or
    after `epochs`. Returns the weights of the epoch with the lowest
    validation loss, which may be a later epoch than the last improvement.
    `epochs` must be an integer of at least 1 and `seed` a non-negative
    integer, or ValueError is raised.
    """
    if not (isinstance(epochs, numbers.Integral) and epochs >= 1):
        raise ValueError(f"epochs must be an integer of at least 1, got {epochs!r}")
    if not (isinstance(seed, numbers.Integral) and seed >= 0):
        raise ValueError(f"seed must be a non-negative integer, got {seed!r}")
    for split, ds in (("training", train_ds), ("validation", val_ds)):
        if len(ds) == 0:
            counts = ", ".join(f"{TrafficClass(c).alias} ({n})" for c, n in enumerate(train_ds.class_counts()))
            raise FloodgateError(f"the {split} split is empty; training rows per class: {counts}")

    # The population std; a constant feature is centred but not scaled, as
    # MlpModel requires std > 0.
    mean, std = train_ds.features.mean(axis=0), train_ds.features.std(axis=0)
    std = np.where(std < 1e-12, 1.0, std)
    x_train = (train_ds.features - mean) / std
    y_train = train_ds.labels
    x_val = (val_ds.features - mean) / std
    y_val = val_ds.labels

    theta = np.concatenate([a.ravel() for a in init_model(seed, mean, std).params])
    grad, m, v = (np.zeros_like(theta) for _ in range(3))
    params, grads = _views(theta), _views(grad)
    step = 0

    shuffle_rng = np.random.default_rng((seed, 0x5F10AD))
    history = TrainHistory()
    best_val = math.inf
    best = theta.copy()
    improved_val = math.inf
    epochs_since_improvement = 0

    n = len(y_train)
    for epoch in range(epochs):
        order = shuffle_rng.permutation(n)
        x_epoch, y_epoch = x_train[order], y_train[order]
        batch_losses = []
        for start in range(0, n, BATCH_SIZE):
            xb, yb = x_epoch[start : start + BATCH_SIZE], y_epoch[start : start + BATCH_SIZE]
            h, p = _forward_batch(params, xb)
            batch_losses.append(_checked_loss(p, yb, f"epoch {epoch + 1}"))
            _backward(params[2], xb, yb, h, p, grads)

            step += 1
            m *= ADAM_BETA1
            m += (1.0 - ADAM_BETA1) * grad
            v *= ADAM_BETA2
            v += (1.0 - ADAM_BETA2) * (grad * grad)
            bias1, bias2 = 1.0 - ADAM_BETA1**step, 1.0 - ADAM_BETA2**step
            theta -= LEARNING_RATE * (m / bias1) / (np.sqrt(v / bias2) + ADAM_EPSILON)

        _, p_val = _forward_batch(params, x_val)
        val_loss = _checked_loss(p_val, y_val, f"validation after epoch {epoch + 1}")
        val_acc = float(np.mean(p_val.argmax(axis=1) == y_val))
        history.train_loss.append(float(np.mean(batch_losses)))
        history.val_loss.append(val_loss)
        history.val_accuracy.append(val_acc)

        if val_loss < best_val:
            best_val = val_loss
            best[:] = theta
            history.best_epoch = epoch + 1
        if val_loss < improved_val - MIN_IMPROVEMENT:
            improved_val = val_loss
            epochs_since_improvement = 0
        else:
            epochs_since_improvement += 1
            if epochs_since_improvement > PATIENCE:
                history.patience_ran_out = True
                break

    return MlpModel(mean, std, *_views(best)), history


def save_model(m: MlpModel, path) -> None:
    """Write the model as whitespace-separated text with exact float round-trip."""
    with atomic_write(path, "w") as fh:
        fh.write(f"{MODEL_MAGIC} v{MODEL_VERSION}\n")
        for name, head, _ in _SECTIONS:
            fh.write(head)
            for row in np.atleast_2d(getattr(m, name) if name else np.empty(0)).tolist():
                fh.write(" ".join(map(repr, row)) + "\n")


def load_model(path) -> MlpModel:
    """Read a model file written by save_model, checking it against `_SECTIONS`."""
    with open_text(path) as fh:
        first = fh.readline().split()
        if len(first) != 2 or first[0] != MODEL_MAGIC:
            raise FloodgateError(f"{path}: not a {MODEL_MAGIC} model file")
        if first[1] != f"v{MODEL_VERSION}":
            raise FloodgateError(f"{path}: unsupported version {first[1]!r}")
        tokens = fh.read().split()

    arrays, pos = {}, 0
    for name, head, shape in _SECTIONS:
        words, count = head.split(), math.prod(shape)
        found = tokens[pos : pos + len(words)]
        if found != words:
            raise FloodgateError(f"{path}: expected {' '.join(words)!r}, found {' '.join(found)!r}")
        pos += len(words) + count
        try:
            values = np.array(strict_numbers(tokens[pos - count : pos]), dtype=np.float64).reshape(shape)
        except ValueError:
            raise FloodgateError(f"{path}: section {words[0]!r} does not hold {count} numbers") from None
        if name:
            arrays[name] = values
    if pos != len(tokens):
        raise FloodgateError(f"{path}: trailing data after model parameters")

    try:
        return MlpModel(**arrays)
    except ValueError as exc:
        raise FloodgateError(f"{path}: {exc}") from None
