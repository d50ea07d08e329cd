"""Text classifier bundle: n-gram range + vocabulary + linear model.

A bundle is what the annotation pipeline actually consumes; it knows how to
turn raw segment text, or n-grams already computed, into a prediction and
how to round-trip itself through the vocabulary/model file formats.  Fitting
a bundle and k-fold evaluation share one training path, over n-grams
computed and numbered once per sample (`labeled_grams`), so a caller that
does both computes them once.

The BC/TF/TF-IDF weighing is defined here for both forms of a vocabulary:
by n-gram string for a bundle (`TextClassifier.weigh`) and by n-gram id for
a fit (`IdVocabulary.vector`).  Both give a sample's features as one pair,
feature indices and their weights in order of first occurrence, which is
what `linear.train` and `linear.decision_value` read.  A string-keyed
`Vocabulary` is built only for the bundle.
"""

from __future__ import annotations

import math
import os
from collections import Counter
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Callable

import numpy as np

from .corpus import Corpus, LabeledSegment, stratified_kfold
from .errors import ParseError
from .features import (
    BC,
    SCHEMES,
    TF,
    TFIDF,
    Vocabulary,
    bytes_hash,
    extract_ngrams,
    load_vocabulary,
    parse_ngram_range,
    save_vocabulary,
    tokenize,
    vocabulary_hash,
)
from .linear import (
    CrossValidationResult,
    EvalMetrics,
    Features,
    LinearModel,
    TrainConfig,
    compute_metrics,
    intention_label,
    load_model,
    predict,
    save_model,
    train,
)


def _idf(document_count: int, document_frequency: list[int]) -> list[float]:
    """Each feature's TF-IDF factor ln(N / n_i), taken in Python once per
    distinct n_i."""
    logs = {df: math.log(document_count / df) for df in set(document_frequency)}
    return [logs[df] for df in document_frequency]


@dataclass
class TextClassifier:
    ngram: tuple[int, int]
    vocabulary: Vocabulary
    scheme: str
    model: LinearModel

    def predict_text(self, text: str) -> int:
        return self.predict_grams(extract_ngrams(tokenize(text), *self.ngram))

    def predict_grams(self, grams: list[str]) -> int:
        """Predict from the segment's n-grams over this bundle's range."""
        return predict(self.model, self.weigh(grams))

    def weigh(self, grams: list[str]) -> Features:
        """The in-vocabulary n-grams' feature indices, in order of first
        occurrence, and their weights under the scheme; n-grams out of the
        vocabulary and zero TF-IDF weights are dropped."""
        counts: dict[int, int] = {}
        for i in map(self.vocabulary.feature_to_index.get, grams):
            if i is not None:
                counts[i] = counts.get(i, 0) + 1
        indices = list(counts)
        if self.scheme == BC:
            return indices, [1.0] * len(indices)
        if self.scheme == TF:
            return indices, list(map(float, counts.values()))
        idf = self.idf
        kept = [(i, w) for i, c in counts.items() if (w := c * idf[i]) != 0.0]
        return [i for i, _ in kept], [w for _, w in kept]

    @cached_property
    def idf(self) -> list[float]:
        """Each feature's TF-IDF factor, computed on first use; a bundle's
        vocabulary is not changed once the bundle is made."""
        return _idf(self.vocabulary.document_count, self.vocabulary.document_frequency)

    def save(self, directory, name: str) -> None:
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        vocab_bytes = save_vocabulary(self.vocabulary, directory / f"{name}.vocab.tsv")
        save_model(
            self.model,
            directory / f"{name}.model.tsv",
            scheme=self.scheme,
            ngram=self.ngram,
            vocab_hash=bytes_hash(vocab_bytes),
        )

    @classmethod
    def load(cls, directory, name: str) -> "TextClassifier":
        directory = Path(directory)
        vocab = load_vocabulary(directory / f"{name}.vocab.tsv")
        model, header = load_model(directory / f"{name}.model.tsv")
        if model.weights.shape[0] != len(vocab):
            raise ParseError(
                f"model has {model.weights.shape[0]} weights for a "
                f"{len(vocab)}-feature vocabulary"
            )
        stored_hash = header.get("vocab_sha256")
        if stored_hash and stored_hash != vocabulary_hash(vocab):
            raise ParseError("vocabulary file does not match the model's vocab hash")
        return cls(ngram=parse_ngram_range(header["ngram"]), vocabulary=vocab,
                   scheme=header["scheme"], model=model)


def labeled_grams(corpus: Corpus, ngram: tuple[int, int],
                  label_fn: Callable[[LabeledSegment], int]) -> NumberedGrams:
    """Each sample's n-grams over the range, numbered, and its label.

    Computed once per corpus, they serve any number of fits and folds.
    """
    gram_lists = [extract_ngrams(tokenize(s.segment.text), *ngram) for s in corpus.samples]
    return number_grams(gram_lists, [label_fn(s) for s in corpus.samples], ngram)


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


def fit_text_classifier(corpus: Corpus, ngram: tuple[int, int], scheme: str,
                        train_cfg: TrainConfig,
                        label_fn: Callable[[LabeledSegment], int]) -> TextClassifier:
    """Build the vocabulary on the full corpus, and train."""
    return fit_grams(labeled_grams(corpus, ngram, label_fn), scheme, train_cfg)


@dataclass(frozen=True)
class _CrossValidation:
    data: NumberedGrams
    scheme: str
    train_cfg: TrainConfig
    folds: list[tuple[list[int], list[int]]]
    shared_vocab: IdVocabulary | None

    def evaluate(self, fold: int) -> EvalMetrics:
        train_idx, test_idx = self.folds[fold]
        vocab = self.shared_vocab
        if vocab is None:
            vocab = IdVocabulary(self.data, train_idx, self.scheme)
        model = _fit(vocab, train_idx, self.train_cfg)
        predictions = [predict(model, vocab.vector(i)) for i in test_idx]
        return compute_metrics(predictions, [self.data.labels[i] for i in test_idx])


# the cross-validation whose folds forked workers evaluate, while its pool runs
_running: _CrossValidation | None = None


def _evaluate_running(fold: int) -> EvalMetrics:
    return _running.evaluate(fold)


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def cross_validate_grams(data: NumberedGrams, scheme: str, train_cfg: TrainConfig, k: int,
                         seed: int, fit_on_all: bool = False) -> CrossValidationResult:
    """Stratified k-fold evaluation over n-grams already numbered.

    Vocabularies are fitted on the train split of each fold; `fit_on_all`
    fits one vocabulary on all the samples instead (leaks document
    frequencies between folds; kept for compatibility experiments).  The
    folds run in up to min(k, usable CPUs) forked processes, which inherit
    the samples; each fold's result is the same wherever it runs.
    """
    global _running
    folds = stratified_kfold(data.labels, k, seed)
    shared_vocab = IdVocabulary(data, range(len(data.labels)), scheme) if fit_on_all else None
    run = _CrossValidation(data, scheme, train_cfg, folds, shared_vocab)
    workers = min(len(folds), _usable_cpus())
    import multiprocessing  # here, so that importing this module does not pay for it

    if workers < 2 or "fork" not in multiprocessing.get_all_start_methods():
        return CrossValidationResult(folds=list(map(run.evaluate, range(len(folds)))))
    _running = run
    try:
        with multiprocessing.get_context("fork").Pool(workers) as pool:
            results = pool.map(_evaluate_running, range(len(folds)), chunksize=1)
    finally:
        _running = None
    return CrossValidationResult(folds=results)


def cross_validate(corpus: Corpus, ngram: tuple[int, int], scheme: str,
                   train_cfg: TrainConfig, k: int, seed: int,
                   fit_on_all: bool = False,
                   label_fn: Callable[[LabeledSegment], int] = intention_label,
                   ) -> CrossValidationResult:
    """Stratified k-fold evaluation of the corpus (see `cross_validate_grams`)."""
    return cross_validate_grams(labeled_grams(corpus, ngram, label_fn), scheme, train_cfg,
                                k, seed, fit_on_all)
