"""Text classifier bundle: token pipeline + vocabulary + linear model.

A bundle is what the annotation pipeline actually consumes; it knows how to
turn raw segment text into a prediction and how to round-trip itself through
the vocabulary/model file formats.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from pathlib import Path

from .corpus import Corpus
from .errors import ParseError
from .features import (
    TokenPipelineConfig,
    Vocabulary,
    build_vocabulary,
    load_vocabulary,
    save_vocabulary,
    stopword_list,
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


# Token-pipeline switches other than the n-gram range (stored as `#ngram`);
# the model header names each one whose value differs from its default.
_SWITCHES = tuple(f for f in fields(TokenPipelineConfig)
                  if f.name not in ("ngram_min", "ngram_max"))
_BOOL_TEXT = {True: "true", False: "false"}


def _switch_header(pipeline: TokenPipelineConfig) -> list[tuple[str, str]]:
    header = []
    for f in _SWITCHES:
        value = getattr(pipeline, f.name)
        if value != f.default:
            header.append((f.name, _BOOL_TEXT.get(value, value)))
    return header


def _switches_from_header(header: dict[str, str]) -> dict:
    switches = {}
    for f in _SWITCHES:
        text = header.get(f.name)
        if text is None:
            continue
        if isinstance(f.default, bool):
            if text not in ("true", "false"):
                raise ParseError(f"header {f.name} must be true or false, got {text!r}")
            switches[f.name] = text == "true"
        else:
            switches[f.name] = text
    return switches


@dataclass
class TextClassifier:
    pipeline: TokenPipelineConfig
    vocabulary: Vocabulary
    scheme: str
    model: LinearModel

    def predict_text(self, text: str) -> int:
        tokens = tokenize(text, self.pipeline)
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
            extra_header=_switch_header(self.pipeline),
        )

    @classmethod
    def load(cls, directory, name: str) -> "TextClassifier":
        directory = Path(directory)
        vocab = load_vocabulary(directory / f"{name}.vocab.tsv")
        model, header = load_model(directory / f"{name}.model.tsv",
                                   extra_keys=[f.name for f in _SWITCHES])
        if model.weights.shape[0] != len(vocab):
            raise ParseError(
                f"model has {model.weights.shape[0]} weights for a "
                f"{len(vocab)}-feature vocabulary"
            )
        stored_hash = header.get("vocab_sha256")
        if stored_hash and stored_hash != vocabulary_hash(vocab):
            raise ParseError("vocabulary file does not match the model's vocab hash")
        lo, _, hi = header["ngram"].partition("-")
        pipeline = TokenPipelineConfig(ngram_min=int(lo), ngram_max=int(hi or lo),
                                       **_switches_from_header(header))
        stopword_list(pipeline.stopword_list_id)  # an unknown list id fails here
        vocab.ngram_min, vocab.ngram_max = pipeline.ngram_min, pipeline.ngram_max
        return cls(pipeline=pipeline, vocabulary=vocab, scheme=header["scheme"], model=model)


def fit_text_classifier(corpus: Corpus, pipeline: TokenPipelineConfig, scheme: str,
                        train_cfg: TrainConfig, label_fn) -> TextClassifier:
    """Tokenize, build the vocabulary on the full corpus, and train."""
    tokens = [tokenize(s.segment.text, pipeline) for s in corpus.samples]
    vocab = build_vocabulary(tokens, pipeline)
    samples = [(vectorize(t, vocab, scheme), label_fn(s))
               for t, s in zip(tokens, corpus.samples)]
    model = train(samples, train_cfg, dim=len(vocab))
    return TextClassifier(pipeline=pipeline, vocabulary=vocab, scheme=scheme, model=model)
