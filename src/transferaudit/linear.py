"""Binary linear classifier trained by SGD with modified-Huber loss.

The objective is mean modified-Huber loss plus (alpha/2)*||w||^2; the bias is
unregularized.  Labels {0,1} map to {-1,+1}.  The learning rate decays as
eta0 / (1 + alpha*eta0*t) with t counting individual updates, and sample
order is reshuffled each epoch under the configured seed, so training is
fully deterministic.  A sample's features are one pair, its feature
indices and their values in the order `classifier` weighs them, which
`training.train` and `decision_value` both read.

This module holds the model, its scoring and metrics, in pure Python; the
SGD loop is in `training.py`, and the model file is written and read with
its vocabulary by `TextClassifier.save` and `.load` (`classifier.py`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from typing import NamedTuple, Sequence

from .errors import ShapeError

MODIFIED_HUBER = "modified_huber"

# A sample's features: its feature indices and their values, in one order.
Features = tuple[Sequence[int], Sequence[float]]


def modified_huber_loss(z: float) -> float:
    """Loss on the margin z = y * (w.x + b)."""
    if z >= 1.0:
        return 0.0
    if z >= -1.0:
        return (1.0 - z) ** 2
    return -4.0 * z


def modified_huber_dloss(z: float) -> float:
    """Derivative of the loss with respect to the margin."""
    if z >= 1.0:
        return 0.0
    if z >= -1.0:
        return -2.0 * (1.0 - z)
    return -4.0


@dataclass(frozen=True)
class TrainConfig:
    alpha: float = 1e-3
    epochs: int = 50
    eta0: float = 0.01
    seed: int = 0

    def __post_init__(self):
        # every comparison with NaN is false, so NaN fails these ranges too
        if not 0 < self.alpha < math.inf:
            raise ValueError(f"alpha must be positive and finite, got {self.alpha!r}")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if not 0 < self.eta0 < math.inf:
            raise ValueError(f"eta0 must be positive and finite, got {self.eta0!r}")


@dataclass(frozen=True)
class LinearModel:
    weights: tuple[float, ...]
    bias: float
    config: TrainConfig

    def __post_init__(self):
        if not all(map(math.isfinite, self.weights)) or not math.isfinite(self.bias):
            raise ValueError("model parameters must be finite")


def decision_value(model: LinearModel, x: Features) -> float:
    """w.x + b for a sample's features, indexed against the model's vocabulary.

    The sum starts at the bias and adds the features in the sample's order.
    """
    indices, values = x
    weights = model.weights
    n = len(weights)
    total = model.bias
    for idx, val in zip(indices, values):
        if not 0 <= idx < n:
            raise ShapeError(f"feature index {idx} outside model dimension {n}")
        total += weights[idx] * val
    return total


def predict(model: LinearModel, x: Features) -> int:
    """1 iff the decision value is strictly positive; an exact 0 is negative."""
    return 1 if decision_value(model, x) > 0.0 else 0


class Confusion(NamedTuple):
    tp: int
    fp: int
    fn: int
    tn: int


@dataclass(frozen=True)
class EvalMetrics:
    precision: float
    recall: float
    f_measure: float
    npv: float
    specificity: float
    f_measure_negative: float
    accuracy: float
    confusion: Confusion


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _harmonic(a: float, b: float) -> float:
    return _ratio(2.0 * a * b, a + b)


def compute_metrics(predictions: Sequence[int], labels: Sequence[int]) -> EvalMetrics:
    """Confusion counts and the positive/negative metric suite; 0/0 -> 0."""
    if len(predictions) != len(labels) or not labels:
        raise ShapeError(f"{len(predictions)} predictions vs {len(labels)} labels")
    tp = fp = fn = tn = 0
    for p, y in zip(predictions, labels):
        if p == 1 and y == 1:
            tp += 1
        elif p == 1:
            fp += 1
        elif y == 1:
            fn += 1
        else:
            tn += 1
    precision = _ratio(tp, tp + fp)
    recall = _ratio(tp, tp + fn)
    npv = _ratio(tn, tn + fn)
    specificity = _ratio(tn, tn + fp)
    return EvalMetrics(
        precision=precision,
        recall=recall,
        f_measure=_harmonic(precision, recall),
        npv=npv,
        specificity=specificity,
        f_measure_negative=_harmonic(npv, specificity),
        accuracy=_ratio(tp + tn, tp + fp + fn + tn),
        confusion=Confusion(tp, fp, fn, tn),
    )


_METRIC_NAMES = tuple(f.name for f in fields(EvalMetrics) if f.name != "confusion")


@dataclass
class CrossValidationResult:
    folds: list[EvalMetrics]
    means: dict[str, float] = field(init=False)

    def __post_init__(self):
        self.means = {
            name: sum(getattr(m, name) for m in self.folds) / len(self.folds)
            for name in _METRIC_NAMES
        }
