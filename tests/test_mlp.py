import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from floodgate import mlp
from floodgate.dataset import NUM_FEATURES, Dataset, TrafficClass
from floodgate.errors import (
    BadMagic,
    CorruptModel,
    DimensionMismatch,
    EmptyDataset,
    NonFiniteLoss,
    VersionMismatch,
)
from floodgate.mlp import (
    HIDDEN_UNITS,
    INPUT_UNITS,
    OUTPUT_UNITS,
    MlpModel,
    TrainConfig,
    _backward,
    _checked_loss,
    _forward_batch,
    forward,
    glorot_limit,
    init_model,
    load_model,
    predict_batch,
    save_model,
    train,
)

# Normalization that leaves a row as it is, so raw and normalized rows agree.
UNIT_MEAN, UNIT_STD = np.zeros(NUM_FEATURES), np.ones(NUM_FEATURES)

# The model's array fields, in file order.
ARRAYS = [name for name, _, _ in mlp._SECTIONS if name]


def random_model(seed):
    return init_model(seed, UNIT_MEAN, UNIT_STD)


def random_batch(rng, size):
    return rng.normal(size=(size, NUM_FEATURES)), rng.integers(0, 5, size=size)


def logit_model(logits, hidden_biases=0.0):
    """Zero weights, so the hidden layer is tanh(hidden_biases) and the output biases are the logits."""
    return MlpModel(
        UNIT_MEAN,
        UNIT_STD,
        w1=np.zeros((HIDDEN_UNITS, INPUT_UNITS)),
        b1=np.full(HIDDEN_UNITS, hidden_biases),
        w2=np.zeros((OUTPUT_UNITS, HIDDEN_UNITS)),
        b2=logits,
    )


def softmax_of(logits):
    return forward(logit_model(logits), np.zeros((1, NUM_FEATURES)))[0]


def hidden_of(value):
    """Hidden activations of the forward pass when every hidden unit's input is `value`."""
    m = logit_model(np.zeros(OUTPUT_UNITS), value)
    x = np.zeros((1, NUM_FEATURES))
    h, _ = _forward_batch(m.params, x)
    return h[0]


def gradients(model, x, y):
    """The backward pass `train` runs, on the forward pass it runs."""
    return _backward(model.w2, x, y, *_forward_batch(model.params, x))


def batch_loss(model, x, y):
    return float(np.mean(-np.log(forward(model, x)[np.arange(len(y)), y])))


def finite_difference_check(model, x, y, h=1e-5, tol=1e-6):
    """Central-difference oracle over every parameter; returns worst relative error."""
    grads = gradients(model, x, y)
    worst = 0.0
    for arr, grad in zip(model.params, grads):
        flat = arr.reshape(-1)
        gflat = grad.reshape(-1)
        for i in range(flat.size):
            keep = flat[i]
            flat[i] = keep + h
            up = batch_loss(model, x, y)
            flat[i] = keep - h
            down = batch_loss(model, x, y)
            flat[i] = keep
            numeric = (up - down) / (2 * h)
            rel = abs(gflat[i] - numeric) / max(1.0, abs(gflat[i]))
            worst = max(worst, rel)
            assert rel < tol, f"param {i}: analytic {gflat[i]} vs numeric {numeric}"
    return worst


class TestInit:
    def test_deterministic(self):
        a, b = random_model(42), random_model(42)
        assert np.array_equal(a.w1, b.w1)
        assert np.array_equal(a.w2, b.w2)

    def test_seeds_differ(self):
        a, b = random_model(1), random_model(2)
        assert not np.array_equal(a.w1, b.w1)

    def test_biases_zero(self):
        m = random_model(0)
        assert np.all(m.b1 == 0)
        assert np.all(m.b2 == 0)

    def test_glorot_bounds(self):
        m = random_model(5)
        l1 = math.sqrt(6 / (INPUT_UNITS + HIDDEN_UNITS))
        l2 = math.sqrt(6 / (HIDDEN_UNITS + OUTPUT_UNITS))
        assert glorot_limit(INPUT_UNITS, HIDDEN_UNITS) == pytest.approx(l1)
        assert glorot_limit(INPUT_UNITS, HIDDEN_UNITS) == pytest.approx(0.21483, abs=1e-5)
        assert np.abs(m.w1).max() <= l1
        assert np.abs(m.w2).max() <= l2
        # With thousands of uniform draws the max should approach the bound.
        assert np.abs(m.w1).max() > 0.9 * l1

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            MlpModel(UNIT_MEAN, UNIT_STD, np.zeros((10, INPUT_UNITS)), np.zeros(10), np.zeros((OUTPUT_UNITS, 10)),
                     np.zeros(OUTPUT_UNITS))


def damaged(value, how):
    """`value` with the wrong shape (one fewer column), or with its first entry set to `how`."""
    if how == "shape":
        return value[..., 1:]
    value = value.copy()
    value.flat[0] = float(how)
    return value


# Each array with a wrong shape, a nan and an inf; and std at zero and below.
BAD_ARRAYS = [(name, how) for name in ARRAYS for how in ("shape", "nan", "inf")] + [("std", "0"), ("std", "-1")]


class TestModelArrays:
    @pytest.mark.parametrize("name,how", BAD_ARRAYS)
    def test_constructor_rejects(self, name, how):
        m = random_model(0)
        arrays = {n: getattr(m, n) for n in ARRAYS}
        arrays[name] = damaged(arrays[name], how)
        with pytest.raises(ValueError, match=name):
            MlpModel(**arrays)

    @pytest.mark.parametrize("name,how", BAD_ARRAYS)
    def test_load_model_rejects(self, tmp_path, name, how):
        # The constructor checks only at construction, so a changed field
        # reaches save_model unchecked, as a damaged file would.
        m = random_model(0)
        setattr(m, name, damaged(getattr(m, name), how))
        save_model(m, tmp_path / "m.model")
        with pytest.raises(CorruptModel):
            load_model(tmp_path / "m.model")


class TestActivations:
    """The hidden layer's tanh and the output layer's softmax, seen through the forward pass."""

    def test_tanh_zero(self):
        assert np.all(hidden_of(0.0) == 0.0)

    def test_tanh_reference_value(self):
        assert hidden_of(1.0)[0] == pytest.approx(0.7615941559557649, abs=1e-15)

    @given(x=st.floats(-50, 50, allow_nan=False))
    def test_tanh_odd_and_bounded(self, x):
        assert hidden_of(-x)[0] == -hidden_of(x)[0]
        assert -1.0 <= hidden_of(x)[0] <= 1.0

    def test_softmax_uniform_on_constant(self):
        for c in (-3.0, 0.0, 7.5):
            assert np.allclose(softmax_of([c] * 5), 0.2, atol=1e-15)

    def test_softmax_reference_value(self):
        # Direct evaluation: p0 = e / (e + 4), others 1 / (e + 4).
        p = softmax_of([1.0, 0.0, 0.0, 0.0, 0.0])
        e = math.exp(1.0)
        assert p[0] == pytest.approx(e / (e + 4), abs=1e-12)
        assert p[1] == pytest.approx(1 / (e + 4), abs=1e-12)

    @given(
        z=st.lists(st.floats(-100, 100, allow_nan=False), min_size=5, max_size=5),
        shift=st.floats(-200, 200, allow_nan=False),
    )
    def test_softmax_contract(self, z, shift):
        p = softmax_of(z)
        assert abs(p.sum() - 1.0) <= 1e-12
        assert np.all(p > 0) and np.all(p < 1)
        assert np.allclose(softmax_of(np.asarray(z) + shift), p, atol=1e-12)

    def test_softmax_extreme_logits_stable(self):
        p = softmax_of([800.0, 0.0, -800.0, 0.0, 0.0])
        assert np.isfinite(p).all()
        assert p.sum() == pytest.approx(1.0, abs=1e-12)
        # exp(-800) underflows to 0; the entries stay strictly inside (0, 1).
        assert np.all(p > 0) and np.all(p < 1)


class TestForwardPredict:
    def test_zero_model_is_uniform(self):
        m = random_model(0)
        m.w1[:] = 0
        m.w2[:] = 0
        p = forward(m, np.zeros((1, NUM_FEATURES)))
        assert p.shape == (1, OUTPUT_UNITS)
        assert np.allclose(p, 0.2, atol=1e-15)
        assert predict_batch(m, np.zeros((1, NUM_FEATURES))).tolist() == [int(TrafficClass.NORMAL)]

    def test_wrong_length_rejected(self):
        m = random_model(0)
        with pytest.raises(DimensionMismatch):
            forward(m, np.zeros((1, 23)))
        with pytest.raises(DimensionMismatch):
            predict_batch(m, np.zeros((1, 23)))

    def test_single_vector_rejected(self):
        m = random_model(0)
        with pytest.raises(DimensionMismatch):
            forward(m, np.zeros(NUM_FEATURES))
        with pytest.raises(DimensionMismatch):
            forward(m, np.zeros((1, 1, NUM_FEATURES)))

    def test_no_rows_give_no_results(self):
        m = random_model(0)
        assert forward(m, np.zeros((0, NUM_FEATURES))).shape == (0, OUTPUT_UNITS)
        assert predict_batch(m, np.zeros((0, NUM_FEATURES))).shape == (0,)

    def test_probability_contract(self, rng):
        m = random_model(3)
        p = forward(m, rng.normal(size=(20, NUM_FEATURES)))
        assert np.all(np.abs(p.sum(axis=1) - 1.0) <= 1e-12)
        assert np.all(p > 0) and np.all(p < 1)

    def test_argmax_semantics(self):
        m = logit_model([0.1, 2.0, 0.1, 0.1, 0.1])
        assert predict_batch(m, np.zeros((1, NUM_FEATURES))).tolist() == [int(TrafficClass.SYN_FLOOD)]

    def test_ties_resolve_to_lowest_ordinal(self):
        m = logit_model([0.1, 2.0, 0.1, 2.0, 0.1])
        assert predict_batch(m, np.zeros((1, NUM_FEATURES))).tolist() == [int(TrafficClass.SYN_FLOOD)]

    def test_monotone_logit_transform_preserves_predictions(self, rng):
        m = random_model(9)
        scaled = MlpModel(m.mean, m.std, m.w1.copy(), m.b1.copy(), 3.0 * m.w2, 3.0 * m.b2 + 0.7)
        xs = rng.normal(size=(30, NUM_FEATURES))
        assert np.array_equal(predict_batch(m, xs), predict_batch(scaled, xs))

    def test_forward_normalizes_with_the_models_stats(self, rng):
        m = MlpModel(rng.normal(size=NUM_FEATURES), rng.uniform(0.5, 4.0, NUM_FEATURES), *random_model(6).params)
        xs = rng.normal(size=(30, NUM_FEATURES)) * 3 + 7
        assert np.array_equal(forward(m, xs), _forward_batch(m.params, (xs - m.mean) / m.std)[1])

    def test_predict_batch_is_forward_argmax(self, rng):
        m = random_model(4)
        xs = rng.normal(size=(40, NUM_FEATURES))
        assert np.array_equal(predict_batch(m, xs), forward(m, xs).argmax(axis=1))

    def test_row_agrees_with_its_batch(self, rng):
        # Matrix products block the rows of a batch differently from a single
        # row, so the last bits can differ; agreement is to 1e-15, not ==.
        m = random_model(4)
        xs = rng.normal(size=(40, NUM_FEATURES))
        batched = forward(m, xs)
        for i in range(len(xs)):
            assert np.max(np.abs(forward(m, xs[i : i + 1])[0] - batched[i])) <= 1e-15


class TestCrossEntropy:
    """The training loss, `_checked_loss`: mean -ln of the true-class probability."""

    def test_uniform_is_ln5(self):
        p = np.full((1, OUTPUT_UNITS), 0.2)
        assert _checked_loss(p, np.array([int(TrafficClass.ACK_FLOOD)]), "test") == pytest.approx(
            math.log(5), abs=1e-9
        )

    def test_perfect_prediction(self):
        p = np.array([[0.0, 1.0, 0.0, 0.0, 0.0]])
        assert _checked_loss(p, np.array([int(TrafficClass.SYN_FLOOD)]), "test") == 0.0

    def test_zero_probability_clamped(self):
        # A true-class probability below 1e-15 counts as 1e-15; exactly 0 means divergence.
        p = np.array([[1.0, 0.0, 0.0, 0.0, 1e-300]])
        loss = _checked_loss(p, np.array([int(TrafficClass.UDP_FLOOD)]), "test")
        assert loss == pytest.approx(-math.log(1e-15), abs=1e-9)
        assert loss == pytest.approx(34.538776394910684, abs=1e-9)
        with pytest.raises(NonFiniteLoss):
            _checked_loss(p, np.array([int(TrafficClass.SYN_FLOOD)]), "test")


class TestGradients:
    def test_finite_difference_small_sweep(self, rng):
        # The full sweep over >=5 models lives in the acceptance suite; keep
        # one pair here so module tests stay fast.
        model = random_model(11)
        x, y = random_batch(rng, 6)
        worst = finite_difference_check(model, x, y)
        assert worst < 1e-6

    def test_train_runs_the_checked_backward_pass(self, rng, monkeypatch):
        calls = []

        def spy(*args):
            calls.append(len(args[2]))
            return _backward(*args)

        monkeypatch.setattr(mlp, "_backward", spy)
        train(separable_dataset(rng, 50), separable_dataset(rng, 20), TrainConfig(epochs=2, batch_size=16))
        assert calls == [16, 16, 16, 2] * 2

    def test_duplicated_batch_mean_invariance(self, rng):
        model = random_model(12)
        x, y = random_batch(rng, 5)
        g1 = gradients(model, x, y)
        g2 = gradients(model, np.concatenate([x, x]), np.concatenate([y, y]))
        for a, b in zip(g1, g2):
            assert np.allclose(a, b, rtol=1e-12, atol=1e-12)

    def test_saturated_correct_prediction_has_zero_output_bias_gradient(self, rng):
        model = logit_model([-800, -800, 800, -800, -800])
        x = rng.normal(size=(4, NUM_FEATURES))
        y = np.full(4, int(TrafficClass.ACK_FLOOD))
        _, _, _, output_b = gradients(model, x, y)
        assert np.allclose(output_b, 0.0, atol=1e-12)


def separable_dataset(rng, n, spread=0.4):
    """Two well-separated clusters labeled normal / SYN flood."""
    feats = np.zeros((n, NUM_FEATURES))
    labels = np.zeros(n, dtype=np.int64)
    half = n // 2
    feats[:half] = rng.normal(-2.0, spread, size=(half, NUM_FEATURES))
    feats[half:] = rng.normal(2.0, spread, size=(n - half, NUM_FEATURES))
    labels[half:] = int(TrafficClass.SYN_FLOOD)
    order = rng.permutation(n)
    return Dataset(feats[order], labels[order])


def nearest_centroid_accuracy(train_ds, val_ds):
    c0 = train_ds.features[train_ds.labels == 0].mean(axis=0)
    c1 = train_ds.features[train_ds.labels == 1].mean(axis=0)
    d0 = np.linalg.norm(val_ds.features - c0, axis=1)
    d1 = np.linalg.norm(val_ds.features - c1, axis=1)
    predicted = (d1 < d0).astype(np.int64)
    return float(np.mean(predicted == val_ds.labels))


class TestTrain:
    def test_separable_two_class_reaches_99_percent(self, rng):
        train_ds = separable_dataset(rng, 150)
        val_ds = separable_dataset(rng, 50)
        # The clusters really are separable: a nearest-centroid classifier
        # built only from the training data gets validation exactly right.
        assert nearest_centroid_accuracy(train_ds, val_ds) == 1.0
        cfg = TrainConfig(epochs=50, seed=7)
        model, history = train(train_ds, val_ds, cfg)
        assert max(history.val_accuracy) >= 0.99
        accuracy = float(np.mean(predict_batch(model, val_ds.features) == val_ds.labels))
        assert accuracy >= 0.99

    def test_deterministic(self, rng):
        train_ds = separable_dataset(rng, 80)
        val_ds = separable_dataset(rng, 30)
        cfg = TrainConfig(epochs=5, seed=21)
        m1, h1 = train(train_ds, val_ds, cfg)
        m2, h2 = train(train_ds, val_ds, cfg)
        for name in ARRAYS:
            assert np.array_equal(getattr(m1, name), getattr(m2, name))
        assert h1.train_loss == h2.train_loss

    def test_huge_learning_rate_diverges(self, rng):
        train_ds = separable_dataset(rng, 60)
        val_ds = separable_dataset(rng, 20)
        with pytest.raises(NonFiniteLoss):
            train(train_ds, val_ds, TrainConfig(learning_rate=1e6, epochs=5, seed=0))

    def test_empty_dataset(self, rng):
        with pytest.raises(EmptyDataset):
            train(Dataset(), separable_dataset(rng, 20), TrainConfig(epochs=1))

    def test_small_lr_decreases_loss(self, rng):
        train_ds = separable_dataset(rng, 100, spread=1.5)
        val_ds = separable_dataset(rng, 40, spread=1.5)
        _, history = train(train_ds, val_ds, TrainConfig(learning_rate=1e-4, epochs=20, seed=3))
        assert history.train_loss[-1] < history.train_loss[0]

    def test_history_one_entry_per_epoch(self, rng):
        train_ds = separable_dataset(rng, 60)
        val_ds = separable_dataset(rng, 20)
        cfg = TrainConfig(epochs=4, seed=1)
        _, history = train(train_ds, val_ds, cfg)
        assert len(history) == 4
        assert len(history.val_loss) == len(history.val_accuracy) == 4

    def test_early_stopping_can_shorten_training(self, rng):
        train_ds = separable_dataset(rng, 60)
        val_ds = separable_dataset(rng, 20)
        cfg = TrainConfig(epochs=400, seed=1)
        _, history = train(train_ds, val_ds, cfg)
        assert len(history) < 400

    def test_early_stop_returns_lowest_validation_loss_weights(self, rng):
        train_ds = separable_dataset(rng, 60)
        val_ds = separable_dataset(rng, 20)
        cfg = TrainConfig(epochs=400, seed=1)
        model, history = train(train_ds, val_ds, cfg)
        assert len(history) < cfg.epochs
        val_loss = batch_loss(model, val_ds.features, val_ds.labels)
        assert val_loss == pytest.approx(min(history.val_loss), rel=1e-9)

    def test_config_validation(self):
        for learning_rate in (0, math.nan, math.inf):
            with pytest.raises(ValueError):
                TrainConfig(learning_rate=learning_rate)
        with pytest.raises(ValueError):
            TrainConfig(epochs=0)
        with pytest.raises(ValueError):
            TrainConfig(batch_size=0)


def pinned_model():
    """A model made by elementwise arithmetic only, with no BLAS call, so
    that its arrays, and so its file, are the same on every machine."""

    def ramp(shape, scale):
        return (np.arange(math.prod(shape)) % 23 - 11).reshape(shape) / scale

    return MlpModel(
        mean=np.arange(NUM_FEATURES) / 7 - 1.5,
        std=(np.arange(NUM_FEATURES) + 1) / 7,
        w1=ramp((HIDDEN_UNITS, INPUT_UNITS), 7),
        b1=np.arange(HIDDEN_UNITS) / -11,
        w2=ramp((OUTPUT_UNITS, HIDDEN_UNITS), 13),
        b2=np.arange(OUTPUT_UNITS) / 3,
    )


# SHA-256 of `save_model(pinned_model())`, the model file format (version 1).
PINNED_MODEL_SHA256 = "d1583fd0d943d69c23a1647b2b6ba5cb60c58c548201fc11c1f4b652af7c98d1"


class TestPersistence:
    def test_file_bytes_are_pinned(self, tmp_path):
        path = tmp_path / "m.model"
        save_model(pinned_model(), path)
        data = path.read_bytes()
        assert hashlib.sha256(data).hexdigest() == PINNED_MODEL_SHA256
        save_model(load_model(path), tmp_path / "again.model")
        assert (tmp_path / "again.model").read_bytes() == data

    def trained_fixture(self, rng):
        train_ds = separable_dataset(rng, 60)
        val_ds = separable_dataset(rng, 20)
        model, _ = train(train_ds, val_ds, TrainConfig(epochs=3, seed=5))
        return model

    def test_round_trip_exact(self, tmp_path, rng):
        model = self.trained_fixture(rng)
        path = tmp_path / "m.model"
        save_model(model, path)
        loaded = load_model(path)
        for name in ARRAYS:
            assert np.array_equal(getattr(loaded, name), getattr(model, name))

    def test_round_trip_forward_bit_identical(self, tmp_path, rng):
        model = self.trained_fixture(rng)
        path = tmp_path / "m.model"
        save_model(model, path)
        loaded = load_model(path)
        xs = rng.normal(size=(100, NUM_FEATURES))
        assert np.array_equal(forward(model, xs), forward(loaded, xs))

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "m.model"
        path.write_text("NOT-A-MODEL v1\nlayers 24 106 5\n")
        with pytest.raises(BadMagic):
            load_model(path)

    def test_version_mismatch(self, tmp_path, rng):
        model = self.trained_fixture(rng)
        path = tmp_path / "m.model"
        save_model(model, path)
        lines = path.read_text().splitlines()
        lines[0] = "FLOODGATE-MLP v2"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(VersionMismatch):
            load_model(path)

    def test_wrong_input_count(self, tmp_path, rng):
        model = self.trained_fixture(rng)
        path = tmp_path / "m.model"
        save_model(model, path)
        text = path.read_text().replace("layers 24 106 5", "layers 23 106 5", 1)
        path.write_text(text)
        with pytest.raises(CorruptModel):
            load_model(path)

    def test_zero_padded_size_is_corrupt(self, tmp_path):
        path = tmp_path / "m.model"
        save_model(random_model(1), path)
        path.write_text(path.read_text().replace("layers 24 106 5", "layers 024 106 5", 1))
        with pytest.raises(CorruptModel, match="found 'layers 024 106 5'"):
            load_model(path)

    def test_truncated_file(self, tmp_path, rng):
        model = self.trained_fixture(rng)
        path = tmp_path / "m.model"
        save_model(model, path)
        content = path.read_text()
        path.write_text(content[: len(content) // 2])
        with pytest.raises(CorruptModel):
            load_model(path)

    def test_trailing_garbage(self, tmp_path, rng):
        model = self.trained_fixture(rng)
        path = tmp_path / "m.model"
        save_model(model, path)
        path.write_text(path.read_text() + "0.5 0.5\n")
        with pytest.raises(CorruptModel):
            load_model(path)

    def test_non_numeric_value(self, tmp_path, rng):
        model = self.trained_fixture(rng)
        path = tmp_path / "m.model"
        save_model(model, path)
        text = path.read_text()
        token = repr(float(model.w1[0, 0]))
        path.write_text(text.replace(token, "bogus", 1))
        with pytest.raises(CorruptModel):
            load_model(path)

    @pytest.mark.parametrize("token", ["1_0", "\u0661"])
    def test_number_forms_float_also_reads_are_corrupt(self, tmp_path, token):
        path = tmp_path / "m.model"
        save_model(random_model(1), path)
        path.write_text(path.read_text().replace("norm_mean 0.0", f"norm_mean {token}", 1), encoding="utf-8")
        with pytest.raises(CorruptModel, match="section 'norm_mean' does not hold 24 numbers"):
            load_model(path)

    def test_bad_activations(self, tmp_path, rng):
        model = self.trained_fixture(rng)
        path = tmp_path / "m.model"
        save_model(model, path)
        path.write_text(path.read_text().replace("activations tanh softmax", "activations relu softmax"))
        with pytest.raises(CorruptModel):
            load_model(path)

    def test_non_positive_std(self, tmp_path, rng):
        model = self.trained_fixture(rng)
        model.std[0] = 1.0
        path = tmp_path / "m.model"
        save_model(model, path)
        lines = path.read_text().splitlines()
        idx = next(i for i, l in enumerate(lines) if l.startswith("norm_std"))
        parts = lines[idx].split()
        parts[1] = "-1.0"
        lines[idx] = " ".join(parts)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(CorruptModel):
            load_model(path)


# Every token of a model file after its magic line that is not a float value.
HEADER_WORDS = {"layers", "activations", "tanh", "softmax", "norm_mean", "norm_std", "weights", "biases",
                "24", "106", "5"}


class TestDamagedModelFile:
    @pytest.fixture(scope="class")
    def saved(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("model") / "m.model"
        save_model(random_model(2), path)
        magic, body = path.read_text().split("\n", 1)
        return path, magic, body.split()

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_one_token_replaced_or_deleted_is_corrupt(self, saved, data):
        path, magic, tokens = saved
        header = [i for i, t in enumerate(tokens) if t in HEADER_WORDS]
        i = data.draw(st.one_of(st.sampled_from(header), st.integers(0, len(tokens) - 1)), label="position")
        # None deletes the token. Only a header token is damaged by any change,
        # so it also gets replacements that would be valid float values.
        edits = [None, "nan", "inf", "-1e999", "bogus", "0x1p3"]
        if tokens[i] in HEADER_WORDS:
            edits += ["0" + tokens[i], "+" + tokens[i], tokens[i] + "0", "0.5"]
        edit = data.draw(st.sampled_from(edits), label="edit")
        damaged = tokens[:i] + ([] if edit is None else [edit]) + tokens[i + 1 :]
        path.write_text(magic + "\n" + " ".join(damaged) + "\n")
        with pytest.raises(CorruptModel):
            load_model(path)
