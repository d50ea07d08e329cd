"""Text classifier bundle: n-gram range + vocabulary + linear model.

A bundle is what the annotation pipeline actually consumes; it knows how to
turn raw segment text, or n-grams already computed, into a prediction and
how to round-trip itself through its two files.  This module alone knows
their format: a vocabulary file and a model file, each `#key=value` header
lines and TAB rows read by one reader (`_read_records`), the model naming
its vocabulary by the hash of the vocabulary file's text.  Fitting
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

import hashlib
import math
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
    extract_ngrams,
    parse_ngram_range,
    tokenize,
)
from .linear import (
    MODIFIED_HUBER,
    CrossValidationResult,
    EvalMetrics,
    Features,
    LinearModel,
    TrainConfig,
    compute_metrics,
    intention_label,
    predict,
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
        (directory / f"{name}.model.tsv").write_bytes(model_bytes(
            self.model, scheme=self.scheme, ngram=self.ngram,
            vocab_hash=bytes_hash(vocab_bytes)))

    @classmethod
    def load(cls, directory, name: str) -> "TextClassifier":
        """Read a bundle that `save` wrote; the model's `#vocab_sha256=` must
        be the hash of the vocabulary file's text."""
        directory = Path(directory)
        vocab_text = (directory / f"{name}.vocab.tsv").read_text(encoding="utf-8")
        vocab = _parse_vocabulary(vocab_text)
        model, header = load_model(directory / f"{name}.model.tsv")
        if model.weights.shape[0] != len(vocab):
            raise ParseError(
                f"model has {model.weights.shape[0]} weights for a "
                f"{len(vocab)}-feature vocabulary"
            )
        if header["vocab_sha256"] != bytes_hash(vocab_text.encode("utf-8")):
            raise ParseError("vocabulary file does not match the model's vocab hash")
        return cls(ngram=parse_ngram_range(header["ngram"]), vocabulary=vocab,
                   scheme=header["scheme"], model=model)


def bytes_hash(data: bytes) -> str:
    """The short SHA-256 that a model header stores for its vocabulary file."""
    return hashlib.sha256(data).hexdigest()[:16]


def vocabulary_bytes(vocab: Vocabulary) -> bytes:
    """The `#N=` header, then one `feature TAB index TAB df` line per feature
    in string order."""
    lines = [f"#N={vocab.document_count}"]
    for feature in sorted(vocab.feature_to_index):
        idx = vocab.feature_to_index[feature]
        lines.append(f"{feature}\t{idx}\t{vocab.document_frequency[idx]}")
    return ("\n".join(lines) + "\n").encode("utf-8")


def save_vocabulary(vocab: Vocabulary, path) -> bytes:
    """Write `vocabulary_bytes`; returns the bytes written."""
    data = vocabulary_bytes(vocab)
    Path(path).write_bytes(data)
    return data


def model_bytes(model: LinearModel, *, scheme: str, ngram: tuple[int, int],
                vocab_hash: str) -> bytes:
    """Exact-decimal serialization; repr() round-trips every float."""
    cfg = model.config
    lines = [
        f"#scheme={scheme}",
        f"#ngram={ngram[0]}-{ngram[1]}",
        f"#alpha={cfg.alpha!r}",
        f"#eta0={cfg.eta0!r}",
        f"#epochs={cfg.epochs}",
        f"#seed={cfg.seed}",
        f"#loss={MODIFIED_HUBER}",
        f"#vocab_sha256={vocab_hash}",
    ]
    lines.extend(f"{idx}\t{weight!r}" for idx, weight in enumerate(model.weights.tolist()))
    lines.append(f"#bias={float(model.bias)!r}")
    return ("\n".join(lines) + "\n").encode("utf-8")


def _read_records(text: str, usage: str, header_checks: dict[str, Callable[[str], object]],
                  row: Callable[[int, list[str]], tuple[int, object]], noun: str,
                  ) -> tuple[dict[str, str], list]:
    """Read a vocabulary or model file's text.

    `#key=value` lines are the header: each key of `header_checks` exactly
    once, its value passing the key's check.  Every other non-empty line is
    a `usage` row (`a TAB b`), which `row` reads, given its line number, as
    (index, value); the indices are 0..n-1 in any order.  Returns the header
    values and the row values in index order.  A bare `#` line is skipped,
    and a ValueError is a ParseError naming its line.
    """
    header: dict[str, str] = {}
    values: dict[int, object] = {}
    count = usage.count(" TAB ") + 1
    for lineno, line in enumerate(text.split("\n"), start=1):
        try:
            if line[:1] == "#":
                if line == "#":
                    continue
                key, _, value = line[1:].partition("=")
                if not key or not value:
                    raise ParseError(f"malformed header {line!r}", lineno)
                if key not in header_checks:
                    raise ParseError(f"unknown header key {key!r}", lineno)
                if key in header:
                    raise ParseError(f"repeated header key {key!r}", lineno)
                header_checks[key](value)
                header[key] = value
            elif line:
                fields = line.split("\t")
                if len(fields) != count:
                    raise ParseError(f"expected `{usage}`", lineno)
                idx, value = row(lineno, fields)
                if idx in values:
                    raise ParseError(f"repeated {noun} index {idx}", lineno)
                values[idx] = value
        except ValueError as exc:
            raise ParseError(str(exc), lineno) from exc
    missing = header_checks.keys() - header.keys()
    if missing:
        raise ParseError(f"missing header fields: {sorted(missing)}")
    try:  # n distinct indices are dense iff each of 0..n-1 is one of them
        return header, [values[i] for i in range(len(values))]
    except KeyError:
        raise ParseError(f"{noun} indices are not dense 0..n-1") from None


def _one_of(*allowed: str):
    def check(value: str) -> None:
        if value not in allowed:
            raise ValueError(f"expected one of {', '.join(allowed)}, got {value!r}")
    return check


def _finite(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"model parameter {text!r} is not finite")
    return value


# each header key `model_bytes` writes, and the check its value must pass
_MODEL_HEADER = {"scheme": _one_of(*SCHEMES), "ngram": parse_ngram_range,
                 "alpha": lambda v: TrainConfig(alpha=float(v)),
                 "eta0": lambda v: TrainConfig(eta0=float(v)),
                 "epochs": lambda v: TrainConfig(epochs=int(v)), "seed": int,
                 "loss": _one_of(MODIFIED_HUBER), "vocab_sha256": str, "bias": _finite}


def load_model(path) -> tuple[LinearModel, dict[str, str]]:
    """Read a model file; returns the model and its header fields.

    A header key that `model_bytes` does not write, a missing or repeated
    one, or a value that it could not have written, is a ParseError; so is
    a repeated, missing or non-finite weight.
    """
    header, weights = _read_records(
        Path(path).read_text(encoding="utf-8"), "index TAB weight", _MODEL_HEADER,
        lambda _, fields: (int(fields[0]), _finite(fields[1])), "weight")
    cfg = TrainConfig(alpha=float(header["alpha"]), epochs=int(header["epochs"]),
                      eta0=float(header["eta0"]), seed=int(header["seed"]))
    return LinearModel(weights=np.array(weights), bias=float(header["bias"]), config=cfg), header


def _document_count(text: str) -> None:
    if (n := int(text)) < 1:
        raise ValueError(f"#N= must be at least 1, got {n}")


def _parse_vocabulary(text: str) -> Vocabulary:
    """A vocabulary file's text as a `Vocabulary`.

    `#N=` must be at least 1 and every df in 1..N, so that each TF-IDF
    weight is defined; a line that breaks this, or repeats a feature or an
    index, is a ParseError naming it.
    """
    feature_to_index: dict[str, int] = {}
    top = [0, None]  # the largest df and its line: N may follow the rows

    def row(lineno: int, fields: list[str]) -> tuple[int, int]:
        feature, idx, df = fields[0], int(fields[1]), int(fields[2])
        if df < 1:
            raise ValueError(f"df must be at least 1, got {df}")
        if feature in feature_to_index:
            raise ValueError(f"repeated feature {feature!r}")
        feature_to_index[feature] = idx
        if df > top[0]:
            top[:] = df, lineno
        return idx, df

    header, dfs = _read_records(text, "feature TAB index TAB df", {"N": _document_count},
                                row, "vocabulary")
    document_count = int(header["N"])
    if top[0] > document_count:
        raise ParseError(f"df {top[0]} exceeds #N={document_count}", top[1])
    return Vocabulary(feature_to_index=feature_to_index, document_frequency=dfs,
                      document_count=document_count)


def load_vocabulary(path) -> Vocabulary:
    """Read a vocabulary file written by `save_vocabulary`."""
    return _parse_vocabulary(Path(path).read_text(encoding="utf-8"))


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


def cross_validate_grams(data: NumberedGrams, scheme: str, train_cfg: TrainConfig, k: int,
                         seed: int, fit_on_all: bool = False) -> CrossValidationResult:
    """Stratified k-fold evaluation over n-grams already numbered.

    Vocabularies are fitted on the train split of each fold; `fit_on_all`
    fits one vocabulary on all the samples instead (leaks document
    frequencies between folds; kept for compatibility experiments).  The
    folds run in up to min(k, usable CPUs) forked processes, which inherit
    the samples; each fold's result is the same wherever it runs.
    """
    from .parallel import ordered_map  # here, so that loading a model does not import it

    folds = stratified_kfold(data.labels, k, seed)
    shared_vocab = IdVocabulary(data, range(len(data.labels)), scheme) if fit_on_all else None
    run = _CrossValidation(data, scheme, train_cfg, folds, shared_vocab)
    return CrossValidationResult(folds=list(ordered_map(run.evaluate, range(len(folds)))))


def cross_validate(corpus: Corpus, ngram: tuple[int, int], scheme: str,
                   train_cfg: TrainConfig, k: int, seed: int,
                   fit_on_all: bool = False,
                   label_fn: Callable[[LabeledSegment], int] = intention_label,
                   ) -> CrossValidationResult:
    """Stratified k-fold evaluation of the corpus (see `cross_validate_grams`)."""
    return cross_validate_grams(labeled_grams(corpus, ngram, label_fn), scheme, train_cfg,
                                k, seed, fit_on_all)
