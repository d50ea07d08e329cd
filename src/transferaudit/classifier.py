"""Text classifier bundle: token pipeline + vocabulary + linear model.

A bundle is what the annotation pipeline actually consumes; it knows how to
turn raw segment text into a prediction and how to round-trip itself through
the vocabulary/model file formats.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from .corpus import Corpus
from .errors import ParseError
from .features import (
    TokenPipelineConfig,
    Vocabulary,
    build_vocabulary,
    load_vocabulary,
    save_vocabulary,
    tokenize,
    vectorize,
)
from .linear import (
    LinearModel,
    TrainConfig,
    load_model,
    predict,
    save_model,
    train,
    vocabulary_hash,
)


@dataclass
class TextClassifier:
    pipeline: TokenPipelineConfig
    vocabulary: Vocabulary
    scheme: str
    model: LinearModel

    def predict_text(self, text: str) -> int:
        tokens = tokenize(text)
        return predict(self.model, vectorize(tokens, self.vocabulary, self.scheme))

    def save(self, directory, name: str) -> None:
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        save_vocabulary(self.vocabulary, directory / f"{name}.vocab.tsv")
        save_model(
            self.model,
            directory / f"{name}.model.tsv",
            scheme=self.scheme,
            ngram_min=self.vocabulary.ngram_min,
            ngram_max=self.vocabulary.ngram_max,
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
        lo, _, hi = header["ngram"].partition("-")
        pipeline = TokenPipelineConfig(ngram_min=int(lo), ngram_max=int(hi or lo))
        vocab.ngram_min, vocab.ngram_max = pipeline.ngram_min, pipeline.ngram_max
        return cls(pipeline=pipeline, vocabulary=vocab, scheme=header["scheme"], model=model)


def fit_text_classifier(corpus: Corpus, pipeline: TokenPipelineConfig, scheme: str,
                        train_cfg: TrainConfig, label_fn) -> TextClassifier:
    """Tokenize, build the vocabulary on the full corpus, and train."""
    tokens = [tokenize(s.segment.text) for s in corpus.samples]
    vocab = build_vocabulary(tokens, pipeline)
    samples = [(vectorize(t, vocab, scheme), label_fn(s))
               for t, s in zip(tokens, corpus.samples)]
    model = train(samples, train_cfg, dim=len(vocab))
    return TextClassifier(pipeline=pipeline, vocabulary=vocab, scheme=scheme, model=model)
