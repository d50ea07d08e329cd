"""Fitting bundles and k-fold evaluation: the one module that imports numpy.

`train` fits the linear model by SGD.  Weights are kept as v * scale
(Bottou's scaled-weight SGD), so the decay step is one multiply of
`scale`.  Each epoch's step sizes are computed in one numpy expression, the
same IEEE operations in the same order as one update at a time, and each
update gathers its sample's weights once, updates them in place and writes
them back: the model keeps every bit.  The weights leave as a tuple of
Python floats, which is all that scoring reads.

Fitting a bundle and k-fold evaluation share one path, over n-grams
computed and numbered once per sample (`labeled_grams`), so a caller that
does both computes them once.  `IdVocabulary.vector` weighs a sample by
n-gram id as `TextClassifier.weigh` weighs its n-grams by string.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterable, Sequence
from dataclasses import dataclass

import numpy as np

from .classifier import TextClassifier, _idf
from .corpus import LabeledSegment, stratified_kfold, task_samples
from .errors import DegenerateTraining, ShapeError
from .features import BC, SCHEMES, TFIDF, Vocabulary, extract_ngrams, tokenize
from .linear import (
    CrossValidationResult,
    EvalMetrics,
    Features,
    LinearModel,
    TrainConfig,
    compute_metrics,
    modified_huber_dloss,
    predict,
)
from .parallel import ordered_map


def train(samples: Sequence[tuple[Features, int]], cfg: TrainConfig,
          dim: int) -> LinearModel:
    """Fit the hyperplane by SGD to `(features, label)` pairs, whose feature
    indices (int64 arrays) must lie in 0..dim-1 and whose values are float64
    arrays; raises DegenerateTraining on one-class input."""
    indices = [idx for (idx, _), _ in samples]
    values = [x for (_, x), _ in samples]
    labels = [y for _, y in samples]
    classes = sorted(set(labels))
    if classes != [0, 1]:
        raise DegenerateTraining(f"need both classes in training data, got labels {classes}")
    every = np.concatenate(indices)
    if every.size:
        lo, hi = int(every.min()), int(every.max())
        if lo < 0 or hi >= dim:
            raise ShapeError(f"feature index {lo if lo < 0 else hi} outside dimension {dim}")
    ys = [1.0 if y == 1 else -1.0 for y in labels]

    n = len(ys)
    alpha = cfg.alpha
    decay = cfg.alpha * cfg.eta0
    rng = np.random.default_rng(cfg.seed)
    v = np.zeros(dim)
    scale = 1.0
    bias = 0.0
    # 0-d arrays for the update's two scalars: numpy takes a Python float
    # operand through its scalar promotion, which costs more than the
    # multiply itself on a sample's few dozen features
    step = np.empty(())
    div = np.empty(())
    for epoch in range(cfg.epochs):
        # the step sizes of this epoch's updates t, as eta0 / (1 + alpha*eta0*t)
        t = np.arange(epoch * n, (epoch + 1) * n, dtype=np.float64)
        etas = (cfg.eta0 / (1.0 + decay * t)).tolist()
        for i, eta in zip(rng.permutation(n).tolist(), etas):
            idx = indices[i]
            x = values[i]
            y = ys[i]
            w = v[idx]
            z = y * (scale * float(w.dot(x)) + bias)
            scale *= 1.0 - eta * alpha
            if scale < 1e-9:
                v *= scale
                scale = 1.0
                w = v[idx]
            g = modified_huber_dloss(z)
            if g != 0.0:
                # v[idx] -= c * x / scale, computed in place on the gathered w
                c = eta * g * y
                step[()] = c
                div[()] = scale
                d = x * step
                d /= div
                w -= d
                v[idx] = w
                bias -= c
    return LinearModel(weights=tuple((v * scale).tolist()), bias=float(bias), config=cfg)


def labeled_grams(samples: Iterable[LabeledSegment], ngram: tuple[int, int],
                  task: str) -> NumberedGrams:
    """The n-grams over the range, numbered, and the label of each sample
    that `task` trains on (`corpus.task_samples`).

    The samples are put in one canonical order first, so that every fit and
    fold is a function of the corpus as a multiset, not of its line order:
    samples with equal keys are equal.  Computed once per corpus, the
    n-grams serve any number of fits and folds.
    """
    labeled = sorted(task_samples(samples, task), key=lambda pair: (
        pair[0].segment.text, pair[0].intention_label, sorted(pair[0].element_labels),
        pair[0].segment.doc_id))
    gram_lists = [extract_ngrams(tokenize(s.segment.text), *ngram) for s, _ in labeled]
    return number_grams(gram_lists, [y for _, y in labeled], ngram)


@dataclass(frozen=True)
class NumberedGrams:
    """Labeled samples whose n-grams over the range `ngram` are numbered
    once, for every fit.

    `grams` holds the distinct n-grams in string order, so that an n-gram's
    id is its rank.  Sample i keeps the ids of its distinct n-grams in
    first-occurrence order, `ids[i]`, and their counts as floats,
    `counts[i]`.
    """

    ngram: tuple[int, int]
    grams: list[str]
    ids: list[np.ndarray]
    counts: list[np.ndarray]
    labels: list[int]


def number_grams(gram_lists: list[list[str]], labels: list[int],
                 ngram: tuple[int, int]) -> NumberedGrams:
    """Number each sample's n-grams over the range (see `NumberedGrams`)."""
    grams = sorted(set().union(*gram_lists))
    rank = {gram: i for i, gram in enumerate(grams)}.__getitem__
    ids, counts = [], []
    for sample in gram_lists:
        count = Counter(sample)
        ids.append(np.fromiter(map(rank, count), dtype=np.int64, count=len(count)))
        counts.append(np.fromiter(count.values(), dtype=np.float64, count=len(count)))
    return NumberedGrams(ngram=ngram, grams=grams, ids=ids, counts=counts, labels=list(labels))


class IdVocabulary:
    """The vocabulary of some of the samples, by n-gram id.

    A feature is an n-gram with a document frequency above 0 among those
    samples, and features are numbered in string order.  `vector` weighs
    sample i as `TextClassifier.weigh` weighs its n-grams against
    `vocabulary()`.
    """

    def __init__(self, data: NumberedGrams, among: Sequence[int], scheme: str):
        if scheme not in SCHEMES:
            raise ValueError(f"unknown weighting scheme {scheme!r}")
        if not among:
            raise ValueError("need at least one segment to build a vocabulary")
        df = np.bincount(np.concatenate([data.ids[i] for i in among]),
                         minlength=len(data.grams))
        self.data, self.scheme, self.document_count = data, scheme, len(among)
        self.ids = np.flatnonzero(df)
        self.document_frequency = df[self.ids]
        # an n-gram id's feature index, or -1 for an n-gram out of the vocabulary
        self.feature = np.full(len(data.grams), -1, dtype=np.int64)
        self.feature[self.ids] = np.arange(self.ids.size)
        if scheme == TFIDF:
            self.idf = np.array(_idf(self.document_count, self.document_frequency.tolist()))

    def __len__(self):
        return self.ids.size

    def vector(self, i: int) -> Features:
        """Sample i's feature indices and weights, as int64 and float64 arrays."""
        feature = self.feature[self.data.ids[i]]
        known = feature >= 0
        idx = feature[known]
        if self.scheme == BC:
            return idx, np.ones(idx.size)
        values = self.data.counts[i][known]
        if self.scheme == TFIDF:
            values *= self.idf[idx]
            weighted = values != 0.0
            idx, values = idx[weighted], values[weighted]
        return idx, values

    def vocabulary(self) -> Vocabulary:
        grams = self.data.grams
        return Vocabulary(
            feature_to_index={grams[g]: i for i, g in enumerate(self.ids.tolist())},
            document_frequency=self.document_frequency.tolist(),
            document_count=self.document_count,
        )


def _fit(vocab: IdVocabulary, among: Sequence[int], train_cfg: TrainConfig) -> LinearModel:
    """Train on the samples `among`, weighed against the vocabulary."""
    labels = vocab.data.labels
    return train([(vocab.vector(i), labels[i]) for i in among], train_cfg, len(vocab))


def fit_grams(data: NumberedGrams, scheme: str, train_cfg: TrainConfig) -> TextClassifier:
    """Build the vocabulary on all the samples, and train."""
    everyone = range(len(data.labels))
    vocab = IdVocabulary(data, everyone, scheme)
    model = _fit(vocab, everyone, train_cfg)
    return TextClassifier(ngram=data.ngram, vocabulary=vocab.vocabulary(), scheme=scheme,
                          model=model)


def cross_validate_grams(data: NumberedGrams, scheme: str, train_cfg: TrainConfig, k: int,
                         seed: int, fit_on_all: bool = False) -> CrossValidationResult:
    """Stratified k-fold evaluation over n-grams already numbered.

    Vocabularies are fitted on the train split of each fold; `fit_on_all`
    fits one vocabulary on all the samples instead.  That leaks document
    frequencies from each test split into its fold; it is the setup in which
    acceptance criterion 5 reproduces the paper's corpus-level F-measure on
    IT-100.  The
    folds run in up to min(k, usable CPUs) forked processes, which inherit
    the samples and `evaluate` itself; each fold's result is the same
    wherever it runs.
    """
    folds = stratified_kfold(data.labels, k, seed)
    shared_vocab = IdVocabulary(data, range(len(data.labels)), scheme) if fit_on_all else None

    def evaluate(fold: int) -> EvalMetrics:
        train_idx, test_idx = folds[fold]
        vocab = shared_vocab
        if vocab is None:
            vocab = IdVocabulary(data, train_idx, scheme)
        model = _fit(vocab, train_idx, train_cfg)
        predictions = [predict(model, (idx.tolist(), x.tolist()))
                       for idx, x in map(vocab.vector, test_idx)]
        return compute_metrics(predictions, [data.labels[i] for i in test_idx])

    return CrossValidationResult(folds=list(ordered_map(evaluate, range(len(folds)))))

