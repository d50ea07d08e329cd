"""Text classifier bundle: n-gram range + vocabulary + linear model.

A bundle is what the annotation pipeline actually consumes; it knows how to
turn raw segment text, or n-grams already computed, into a prediction and
how to round-trip itself through the vocabulary/model file formats.  Fitting
a bundle and k-fold evaluation share one training path, over n-grams
computed once per sample (`labeled_grams`), so a caller that does both
computes them once.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from .corpus import Corpus, LabeledSegment, stratified_kfold
from .errors import ParseError
from .features import (
    Vocabulary,
    build_vocabulary,
    extract_ngrams,
    load_vocabulary,
    parse_ngram_range,
    save_vocabulary,
    tokenize,
    vectorize,
)
from .linear import (
    CrossValidationResult,
    LinearModel,
    TrainConfig,
    compute_metrics,
    intention_label,
    load_model,
    predict,
    save_model,
    train,
    vocabulary_hash,
)


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
        x = vectorize(grams, self.vocabulary, self.scheme)
        return predict(self.model, x)

    def save(self, directory, name: str) -> None:
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        save_vocabulary(self.vocabulary, directory / f"{name}.vocab.tsv")
        save_model(
            self.model,
            directory / f"{name}.model.tsv",
            scheme=self.scheme,
            ngram=self.ngram,
            vocab_hash=vocabulary_hash(self.vocabulary),
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
                  label_fn: Callable[[LabeledSegment], int],
                  ) -> tuple[list[list[str]], list[int]]:
    """Each sample's n-grams over the range, and its label.

    Computed once per corpus, they serve any number of fits and folds.
    """
    gram_lists = [extract_ngrams(tokenize(s.segment.text), *ngram) for s in corpus.samples]
    return gram_lists, [label_fn(s) for s in corpus.samples]


def _fit(gram_lists: list[list[str]], labels: list[int], scheme: str,
         train_cfg: TrainConfig, vocab: Vocabulary | None = None,
         ) -> tuple[Vocabulary, LinearModel]:
    """Train on the samples; the vocabulary is built over them unless given."""
    if vocab is None:
        vocab = build_vocabulary(gram_lists)
    samples = [(vectorize(g, vocab, scheme), y) for g, y in zip(gram_lists, labels)]
    return vocab, train(samples, train_cfg, len(vocab))


def fit_grams(gram_lists: list[list[str]], labels: list[int], ngram: tuple[int, int],
              scheme: str, train_cfg: TrainConfig) -> TextClassifier:
    """Build the vocabulary on all the samples, and train."""
    vocab, model = _fit(gram_lists, labels, scheme, train_cfg)
    return TextClassifier(ngram=ngram, vocabulary=vocab, scheme=scheme, model=model)


def fit_text_classifier(corpus: Corpus, ngram: tuple[int, int], scheme: str,
                        train_cfg: TrainConfig,
                        label_fn: Callable[[LabeledSegment], int]) -> TextClassifier:
    """Build the vocabulary on the full corpus, and train."""
    return fit_grams(*labeled_grams(corpus, ngram, label_fn), ngram, scheme, train_cfg)


def cross_validate_grams(gram_lists: list[list[str]], labels: list[int], scheme: str,
                         train_cfg: TrainConfig, k: int, seed: int,
                         fit_on_all: bool = False) -> CrossValidationResult:
    """Stratified k-fold evaluation over n-grams already computed.

    Vocabularies are fitted on the train split of each fold; `fit_on_all`
    fits one vocabulary on all the samples instead (leaks document
    frequencies between folds; kept for compatibility experiments).
    """
    folds = stratified_kfold(labels, k, seed)
    shared_vocab = build_vocabulary(gram_lists) if fit_on_all else None
    results = []
    for train_idx, test_idx in folds:
        vocab, model = _fit([gram_lists[i] for i in train_idx],
                            [labels[i] for i in train_idx], scheme, train_cfg, shared_vocab)
        predictions = [predict(model, vectorize(gram_lists[i], vocab, scheme))
                       for i in test_idx]
        results.append(compute_metrics(predictions, [labels[i] for i in test_idx]))
    return CrossValidationResult(folds=results)


def cross_validate(corpus: Corpus, ngram: tuple[int, int], scheme: str,
                   train_cfg: TrainConfig, k: int, seed: int,
                   fit_on_all: bool = False,
                   label_fn: Callable[[LabeledSegment], int] = intention_label,
                   ) -> CrossValidationResult:
    """Stratified k-fold evaluation of the corpus (see `cross_validate_grams`)."""
    return cross_validate_grams(*labeled_grams(corpus, ngram, label_fn), scheme, train_cfg,
                                k, seed, fit_on_all)
