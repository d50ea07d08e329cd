"""SGD classifier, metric suite and cross-validation tests."""

import dataclasses
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from transferaudit.classifier import TextClassifier
from transferaudit.corpus import LabeledSegment, PolicySegment
from transferaudit.errors import DegenerateTraining, ParseError, ShapeError
from transferaudit.features import TF, Vocabulary
from transferaudit.linear import (
    LinearModel,
    TrainConfig,
    compute_metrics,
    decision_value,
    modified_huber_dloss,
    modified_huber_loss,
    predict,
)
from transferaudit.training import cross_validate, train


def fv(entries):
    """A sample's features from {index: value}: index and value arrays in
    the dict's order."""
    entries = dict(entries)
    return (np.fromiter(entries.keys(), dtype=np.int64, count=len(entries)),
            np.fromiter(entries.values(), dtype=np.float64, count=len(entries)))


def test_train_separates_two_points():
    samples = [(fv({0: 1.0}), 1), (fv({0: -1.0}), 0)]
    model = train(samples, TrainConfig(alpha=1e-3, epochs=50, seed=0), dim=1)
    assert predict(model, fv({0: 1.0})) == 1
    assert predict(model, fv({0: -1.0})) == 0


def test_train_rejects_single_class():
    samples = [(fv({0: 1.0}), 1), (fv({1: 1.0}), 1)]
    with pytest.raises(DegenerateTraining):
        train(samples, TrainConfig(), dim=2)


def test_train_rejects_feature_index_outside_dimension():
    for bad in (-1, 3):
        samples = [(fv({bad: 1.0}), 1), (fv({0: 1.0}), 0)]
        with pytest.raises(ShapeError, match=f"feature index {bad} outside dimension 3"):
            train(samples, TrainConfig(epochs=2), dim=3)


@pytest.mark.parametrize("field", ["alpha", "eta0"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_config_rejects_non_finite_rates(field, value):
    with pytest.raises(ValueError, match=f"{field} must be positive and finite"):
        TrainConfig(**{field: value})


def _blobs(n=200, dim=6, seed=5):
    # two clusters with margin >= 1 along the first axis
    rng = random.Random(seed)
    samples = []
    for i in range(n):
        y = i % 2
        center = 2.0 if y else -2.0
        entries = {0: center + rng.uniform(-0.5, 0.5)}
        for j in range(1, dim):
            entries[j] = rng.uniform(-0.5, 0.5)
        samples.append((fv(entries), y))
    return samples


def test_train_separable_blobs_perfect_accuracy():
    samples = _blobs()
    model = train(samples, TrainConfig(alpha=1e-3, epochs=50, seed=1), dim=6)
    # brute-force sign check against every training point
    correct = sum(predict(model, x) == y for x, y in samples)
    assert correct == len(samples)


def test_training_reduces_mean_loss_on_separable_data():
    samples = _blobs()
    cfg = TrainConfig(alpha=1e-3, epochs=30, seed=2)
    model = train(samples, cfg, dim=6)
    # initial model is the origin: every margin is 0, loss 1 per sample
    initial = sum(modified_huber_loss(0.0) for _ in samples) / len(samples)
    final = sum(
        modified_huber_loss((1 if y else -1) * decision_value(model, x))
        for x, y in samples
    ) / len(samples)
    assert final < initial


def test_predict_bias_only():
    model = train([(fv({0: 1.0}), 1), (fv({0: -1.0}), 0)],
                  TrainConfig(epochs=5, seed=0), dim=1)
    model = dataclasses.replace(model, weights=(0.0,), bias=0.5)
    assert predict(model, fv({})) == 1


def test_predict_tie_goes_negative():
    model = train([(fv({0: 1.0}), 1), (fv({0: -1.0}), 0)],
                  TrainConfig(epochs=5, seed=0), dim=1)
    model = dataclasses.replace(model, weights=(0.0,), bias=0.0)
    assert decision_value(model, fv({0: 3.0})) == 0.0
    assert predict(model, fv({0: 3.0})) == 0


def test_decision_value_dot_product():
    model = train([(fv({0: 1.0}), 1), (fv({1: 1.0}), 0)],
                  TrainConfig(epochs=5, seed=0), dim=2)
    model = dataclasses.replace(model, weights=(2.0, -1.0), bias=0.0)
    assert decision_value(model, fv({0: 1.0, 1: 1.0})) == pytest.approx(1.0)
    assert predict(model, fv({0: 1.0, 1: 1.0})) == 1


def test_decision_value_index_out_of_range():
    model = train([(fv({0: 1.0}), 1), (fv({0: -1.0}), 0)],
                  TrainConfig(epochs=5, seed=0), dim=1)
    with pytest.raises(ShapeError):
        decision_value(model, fv({5: 1.0}))


def _reference_decision_value(weights, bias, x):
    """The former scoring loop, over numpy scalars of a weight array."""
    total = bias
    for idx, val in zip(*x):
        total += weights[idx] * val
    return float(total)


_VALUES = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)


@given(st.lists(_VALUES, min_size=1, max_size=40), st.data())
def test_score_is_bit_equal_to_numpy_scalar_score(weights, data):
    """Scoring through Python floats adds the same values in the same order,
    so the value keeps every bit, also for sums near zero whose sign another
    order could flip."""
    w = np.array(weights)
    x = fv(data.draw(st.dictionaries(st.integers(0, len(weights) - 1), _VALUES,
                                     max_size=len(weights))))
    products = [w[i] * v for i, v in zip(*x)]
    # biases that cancel the features' sum, summed in other orders
    for bias in [data.draw(_VALUES), -math.fsum(products), -sum(reversed(products)),
                 -sum(sorted(products))]:
        model = LinearModel(weights=tuple(weights), bias=float(bias), config=TrainConfig())
        expected = _reference_decision_value(w, bias, x)
        # as lists, the one form that scoring reads
        form = (x[0].tolist(), x[1].tolist())
        assert decision_value(model, form).hex() == expected.hex()
        assert predict(model, form) == (1 if expected > 0.0 else 0)


def test_model_weights_cannot_be_assigned():
    model = LinearModel(weights=(0.5, -0.25), bias=0.0, config=TrainConfig())
    with pytest.raises(dataclasses.FrozenInstanceError):
        model.weights = (0.0, 0.0)
    with pytest.raises(TypeError):
        model.weights[0] = 0.0


def test_prediction_invariant_under_positive_scaling():
    samples = _blobs(n=60)
    model = train(samples, TrainConfig(epochs=20, seed=3), dim=6)
    before = [predict(model, x) for x, _ in samples]
    model = dataclasses.replace(model, weights=tuple(w * 7.5 for w in model.weights),
                                bias=model.bias * 7.5)
    after = [predict(model, x) for x, _ in samples]
    assert before == after


def test_modified_huber_piecewise_values():
    assert modified_huber_loss(2.0) == 0.0
    assert modified_huber_loss(0.0) == 1.0
    assert modified_huber_loss(-1.0) == 4.0
    assert modified_huber_loss(-2.0) == 8.0
    assert modified_huber_dloss(2.0) == 0.0
    assert modified_huber_dloss(0.0) == -2.0
    assert modified_huber_dloss(-3.0) == -4.0


def test_gradient_matches_central_differences():
    # gradient of L(y*(w.x+b)) wrt w against central differences, away from
    # the non-smooth margins z in {-1, 1}
    rng = random.Random(17)
    eps = 1e-6
    checked = 0
    while checked < 60:
        dim = 4
        w = [rng.uniform(-2, 2) for _ in range(dim)]
        x = [rng.uniform(-2, 2) for _ in range(dim)]
        y = rng.choice([-1.0, 1.0])
        z = y * sum(wi * xi for wi, xi in zip(w, x))
        if min(abs(z - 1.0), abs(z + 1.0)) < 1e-3:
            continue
        analytic = [modified_huber_dloss(z) * y * xi for xi in x]
        for j in range(dim):
            w_hi = list(w)
            w_lo = list(w)
            w_hi[j] += eps
            w_lo[j] -= eps
            z_hi = y * sum(wi * xi for wi, xi in zip(w_hi, x))
            z_lo = y * sum(wi * xi for wi, xi in zip(w_lo, x))
            numeric = (modified_huber_loss(z_hi) - modified_huber_loss(z_lo)) / (2 * eps)
            scale = max(abs(numeric), abs(analytic[j]), 1e-8)
            assert abs(numeric - analytic[j]) / scale < 1e-6
        checked += 1


def test_metrics_hand_computed_case():
    # tp=2 fp=1 fn=1 tn=6
    predictions = [1, 1, 1, 0, 0, 0, 0, 0, 0, 0]
    labels = [1, 1, 0, 1, 0, 0, 0, 0, 0, 0]
    m = compute_metrics(predictions, labels)
    assert m.confusion == (2, 1, 1, 6)
    assert m.precision == pytest.approx(2 / 3, abs=1e-12)
    assert m.recall == pytest.approx(2 / 3, abs=1e-12)
    assert m.f_measure == pytest.approx(2 / 3, abs=1e-12)
    assert m.npv == pytest.approx(6 / 7, abs=1e-12)
    assert m.specificity == pytest.approx(6 / 7, abs=1e-12)
    assert m.f_measure_negative == pytest.approx(6 / 7, abs=1e-12)
    assert m.accuracy == pytest.approx(0.8, abs=1e-12)


def test_metrics_all_correct():
    m = compute_metrics([1, 0, 1], [1, 0, 1])
    for name in ("precision", "recall", "f_measure", "npv", "specificity",
                 "f_measure_negative", "accuracy"):
        assert getattr(m, name) == 1.0


def test_metrics_zero_denominator_rule():
    m = compute_metrics([0, 0, 0], [1, 0, 0])
    assert m.precision == 0.0
    assert m.recall == 0.0
    assert m.specificity == 1.0


def test_metrics_length_mismatch():
    with pytest.raises(ShapeError):
        compute_metrics([1, 0], [1])
    with pytest.raises(ShapeError):
        compute_metrics([], [])


@given(st.lists(st.tuples(st.integers(0, 1), st.integers(0, 1)), min_size=1,
                max_size=60))
def test_metric_identities(pairs):
    predictions = [p for p, _ in pairs]
    labels = [y for _, y in pairs]
    m = compute_metrics(predictions, labels)
    tp, fp, fn, tn = m.confusion
    assert tp + fp + fn + tn == len(pairs)
    assert m.f_measure <= min(1.0, 2 * min(m.precision, m.recall)) + 1e-12
    assert m.accuracy == pytest.approx((tp + tn) / len(pairs))


def _marker_corpus(n=500, positive_share=0.1, seed=9):
    rng = random.Random(seed)
    filler = ["account", "settings", "cookies", "support", "billing", "update",
              "notification", "password", "profile", "report", "device", "session"]
    markers = ["transfer outside countries", "international transfer abroad"]
    samples = []
    n_pos = int(n * positive_share)
    for i in range(n):
        words = [rng.choice(filler) for _ in range(rng.randint(6, 12))]
        if i < n_pos:
            insert_at = rng.randint(0, len(words))
            words[insert_at:insert_at] = rng.choice(markers).split()
            label = 1
        else:
            label = 0
        samples.append(LabeledSegment(PolicySegment("d", " ".join(words)), label))
    return samples


def test_cross_validate_separable_corpus():
    corpus = _marker_corpus()
    result = cross_validate(corpus, (1, 2), TF, TrainConfig(alpha=1e-3, epochs=20, seed=4),
                            k=5, seed=4)
    assert result.means["f_measure"] >= 0.95


def test_cross_validate_fit_on_all_differs_from_per_fold():
    corpus = _marker_corpus(n=150, seed=21)
    kwargs = dict(ngram=(1, 2), scheme=TF,
                  train_cfg=TrainConfig(epochs=10, seed=2), k=5, seed=2)
    per_fold = cross_validate(corpus, **kwargs)
    on_all = cross_validate(corpus, fit_on_all=True, **kwargs)
    # both evaluate the same folds; the shared vocabulary sees every document
    assert len(per_fold.folds) == len(on_all.folds) == 5
    assert on_all.means["f_measure"] >= 0.9


def test_cross_validate_deterministic():
    corpus = _marker_corpus(n=120)
    kwargs = dict(ngram=(1, 1), scheme=TF,
                  train_cfg=TrainConfig(epochs=10, seed=6), k=5, seed=6)
    a = cross_validate(corpus, **kwargs)
    b = cross_validate(corpus, **kwargs)
    assert a.folds == b.folds
    assert a.means == b.means


def test_train_deterministic_and_serializable(tmp_path):
    samples = _blobs(n=80)
    cfg = TrainConfig(alpha=1e-3, epochs=15, seed=12)
    m1 = train(samples, cfg, dim=6)
    m2 = train(samples, cfg, dim=6)
    assert np.array_equal(m1.weights, m2.weights)
    assert m1.bias == m2.bias
    for name, model in (("m1", m1), ("m2", m2)):
        _bundle(model).save(tmp_path, name)
    for suffix in ("vocab", "model"):
        assert ((tmp_path / f"m1.{suffix}.tsv").read_bytes()
                == (tmp_path / f"m2.{suffix}.tsv").read_bytes())

    loaded = TextClassifier.load(tmp_path, "m1")
    assert np.array_equal(loaded.model.weights, m1.weights)
    assert loaded.model.bias == m1.bias
    assert (loaded.scheme, loaded.ngram) == (TF, (1, 2))
    assert loaded.model.config == cfg


def _bundle(model):
    """A TF 1-2 bundle of `model` over one feature per weight."""
    n = len(model.weights)
    vocab = Vocabulary({f"f{i}": i for i in range(n)}, [1] * n, 1)
    return TextClassifier(ngram=(1, 2), vocabulary=vocab, scheme=TF, model=model)


def _model_lines(tmp_path):
    model = LinearModel(weights=(0.5, -0.25, 2.0), bias=0.125, config=TrainConfig())
    _bundle(model).save(tmp_path, "m")
    path = tmp_path / "m.model.tsv"
    lines = path.read_text(encoding="utf-8").splitlines()
    return model, path, lines[:8], lines[8:11], lines[11:]


def test_load_reads_weight_lines_in_any_order(tmp_path):
    model, path, head, rows, tail = _model_lines(tmp_path)
    assert rows == ["0.5", "-0.25", "2.0"]
    # a weight's index is its row, whatever the order of the values; a
    # weight not written as `save` writes it reads as its value
    path.write_text("\n".join([*head, rows[2], rows[1], "00.50", *tail]) + "\n",
                    encoding="utf-8")
    loaded = TextClassifier.load(tmp_path, "m").model
    assert loaded.weights == model.weights[::-1]
    assert loaded.bias == model.bias


def test_load_names_a_weight_line_without_a_tab(tmp_path):
    # a weight line is one field without a TAB: of these two lines the
    # first reads as a weight, and the second, which holds TABs, is named
    _, path, head, rows, tail = _model_lines(tmp_path)
    path.write_text("\n".join([*head, "0", "0.5\t1\t0.25", rows[2], *tail]) + "\n",
                    encoding="utf-8")
    with pytest.raises(ParseError, match="expected `weight`") as exc:
        TextClassifier.load(tmp_path, "m")
    assert exc.value.line_number == 10


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000))
def test_training_loss_finite_under_any_seed(seed):
    samples = [(fv({0: 1.0, 1: 0.5}), 1), (fv({0: -1.0}), 0), (fv({1: -2.0}), 0)]
    model = train(samples, TrainConfig(epochs=5, seed=seed), dim=2)
    assert math.isfinite(model.bias)
    assert np.all(np.isfinite(model.weights))


def _reference_train(samples, cfg, dim):
    """The former SGD loop: two gathers and the step size computed per update.

    Returns the model and how often the scaled weights were rescaled.
    """
    indices = [idx for (idx, _), _ in samples]
    values = [x for (_, x), _ in samples]
    ys = np.array([1.0 if y == 1 else -1.0 for _, y in samples])
    rng = np.random.default_rng(cfg.seed)
    v = np.zeros(dim)
    scale = 1.0
    bias = 0.0
    t = 0
    rescales = 0
    for _ in range(cfg.epochs):
        for i in rng.permutation(len(samples)):
            eta = cfg.eta0 / (1.0 + cfg.alpha * cfg.eta0 * t)
            z = ys[i] * (scale * float(v[indices[i]] @ values[i]) + bias)
            scale *= 1.0 - eta * cfg.alpha
            if scale < 1e-9:
                v *= scale
                scale = 1.0
                rescales += 1
            g = modified_huber_dloss(z)
            if g != 0.0:
                v[indices[i]] -= eta * g * ys[i] * values[i] / scale
                bias -= eta * g * ys[i]
            t += 1
    return LinearModel(weights=tuple((v * scale).tolist()), bias=float(bias), config=cfg), rescales


def _bits(model):
    return np.array(model.weights).tobytes(), float.hex(model.bias)


# feature values as each weighting scheme makes them: bc 1.0, tf a count,
# tfidf a count times log(N/df)
_SCHEME_VALUES = {
    "bc": st.just(1.0),
    "tf": st.integers(1, 20).map(float),
    "tfidf": st.integers(2, 5000).flatmap(
        lambda n: st.tuples(st.integers(1, 20), st.integers(1, n - 1))
        .map(lambda c_df: c_df[0] * math.log(n / c_df[1]))),
}


@st.composite
def _training_sets(draw, min_samples=2):
    dim = draw(st.integers(1, 30))
    value = _SCHEME_VALUES[draw(st.sampled_from(sorted(_SCHEME_VALUES)))]
    # max_size 0 some of the time: samples with no features
    vector = st.dictionaries(st.integers(0, dim - 1), value,
                             max_size=draw(st.sampled_from([0, 3, dim])))
    rest = draw(st.lists(st.tuples(vector, st.integers(0, 1)),
                         min_size=min_samples - 2, max_size=25))
    samples = [(draw(vector), 0), (draw(vector), 1), *rest]
    return [(fv(x), y) for x, y in samples], dim


@settings(max_examples=150, deadline=None)
@given(_training_sets(), st.integers(0, 2**32 - 1), st.integers(1, 6),
       st.floats(1e-5, 1.0), st.floats(1e-3, 1.0))
def test_train_is_bit_equal_to_reference(training_set, seed, epochs, alpha, eta0):
    samples, dim = training_set
    cfg = TrainConfig(alpha=alpha, epochs=epochs, eta0=eta0, seed=seed)
    want, _ = _reference_train(samples, cfg, dim)
    assert _bits(train(samples, cfg, dim)) == _bits(want)


@settings(max_examples=60, deadline=None)
@given(_training_sets(min_samples=6), st.integers(0, 2**32 - 1), st.integers(2, 4))
def test_train_is_bit_equal_to_reference_through_rescale(training_set, seed, epochs):
    """The scale after steps s..T-1 telescopes to (1+a(s-1))/(1+a(T-1)),
    a = alpha*eta0, so it drops below 1e-9 only when a >= 1 or a*T passes
    about 1e9.  With a = 1e8 the weights are rescaled at the first step and
    again about ten steps later, when they are no longer zero."""
    samples, dim = training_set
    cfg = TrainConfig(alpha=1e4, epochs=epochs, eta0=1e4, seed=seed)
    want, rescales = _reference_train(samples, cfg, dim)
    assert rescales >= 2
    assert _bits(train(samples, cfg, dim)) == _bits(want)


def test_ndarray_dot_is_bit_equal_to_matmul():
    rng = np.random.default_rng(0)
    for n in [*range(301), 1000, 2047, 4099, 8192]:
        w = rng.normal(size=n) * rng.choice([1e-3, 1.0, 1e6], size=n)
        x = rng.normal(size=n)
        assert float(w.dot(x)).hex() == float(w @ x).hex()
