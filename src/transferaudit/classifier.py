"""Text classifier bundle: n-gram range + vocabulary + linear model.

A bundle is what the annotation pipeline actually consumes; it knows how to
turn raw segment text, or n-grams already computed, into a prediction and
how to round-trip itself through its two files.  This module alone knows
their names and format: a vocabulary file and a model file, each
`#key=value` header lines and one row per feature, read by one reader
(`_read_records`); a feature's index is its row in both files, and the
model names its vocabulary by the hash of the vocabulary file's text.
Bundles are fitted in `training.py`, the only module that imports numpy.

`TextClassifier.weigh` gives the BC/TF/TF-IDF weighing by n-gram string, as
one pair, feature indices and their weights in order of first occurrence,
which is what `linear.decision_value` reads.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Callable

from .errors import ParseError
from .features import BC, SCHEMES, TF, Vocabulary, extract_ngrams, parse_ngram_range, tokenize
from .linear import MODIFIED_HUBER, Features, LinearModel, TrainConfig, predict


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
        if len(model.weights) != len(vocab):
            raise ParseError(
                f"model has {len(model.weights)} weights for a {len(vocab)}-feature vocabulary")
        if header["vocab_sha256"] != bytes_hash(vocab_text.encode("utf-8")):
            raise ParseError("vocabulary file does not match the model's vocab hash")
        return cls(ngram=parse_ngram_range(header["ngram"]), vocabulary=vocab,
                   scheme=header["scheme"], model=model)


def saved(directory, name: str) -> bool:
    """Whether `directory` holds a bundle's model file saved under `name`."""
    return Path(directory, f"{name}.model.tsv").exists()


def bytes_hash(data: bytes) -> str:
    """The short SHA-256 that a model header stores for its vocabulary file."""
    return hashlib.sha256(data).hexdigest()[:16]


def vocabulary_bytes(vocab: Vocabulary) -> bytes:
    """The `#N=` header, then one `feature TAB df` line per feature in string
    order; a feature's index is its row.  A vocabulary whose indices are not
    its features' string ranks cannot be read back, so it is refused."""
    features = sorted(vocab.feature_to_index)
    if list(map(vocab.feature_to_index.get, features)) != list(range(len(features))):
        raise ValueError("a saved vocabulary must number its features by string rank")
    lines = [f"#N={vocab.document_count}",
             *map("{}\t{}".format, features, vocab.document_frequency)]
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
    lines.extend(map(repr, model.weights))
    lines.append(f"#bias={float(model.bias)!r}")
    return ("\n".join(lines) + "\n").encode("utf-8")


def _read_records(text: str, usage: str, header_checks: dict[str, Callable[[str], object]],
                  row: Callable[[str], object]) -> tuple[dict[str, str], list]:
    """Read a vocabulary or model file's text.

    `#key=value` lines are the header: each key of `header_checks` exactly
    once, its value passing the key's check.  Every other non-empty line is
    a `usage` row (`a TAB b`), which `row` reads as one value; the header
    lines before a row have been checked when it is read.  Returns the
    header values and the row values in file order: a row's index is its
    position among the rows.  A ValueError is a ParseError naming its line.
    """
    header: dict[str, str] = {}
    values: list = []
    tabs = usage.count(" TAB ")
    for lineno, line in enumerate(text.split("\n"), start=1):
        try:
            if line[:1] == "#":
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
                if line.count("\t") != tabs:
                    raise ParseError(f"expected `{usage}`", lineno)
                values.append(row(line))
        except ValueError as exc:
            raise ParseError(str(exc), lineno) from exc
    missing = header_checks.keys() - header.keys()
    if missing:
        raise ParseError(f"missing header fields: {sorted(missing)}")
    return header, values


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
    a row that is not one finite weight.
    """
    header, weights = _read_records(Path(path).read_text(encoding="utf-8"), "weight",
                                    _MODEL_HEADER, _finite)
    cfg = TrainConfig(alpha=float(header["alpha"]), epochs=int(header["epochs"]),
                      eta0=float(header["eta0"]), seed=int(header["seed"]))
    return LinearModel(weights=tuple(weights), bias=float(header["bias"]), config=cfg), header


def _parse_vocabulary(text: str) -> Vocabulary:
    """A vocabulary file's text as a `Vocabulary`.

    `#N=` comes before the rows and is at least 1, every df is in 1..N, so
    that each TF-IDF weight is defined, and each feature comes after the one
    before it in string order, which also refuses a repeated feature; a line
    that breaks this is a ParseError naming it.
    """
    feature_to_index: dict[str, int] = {}
    previous = ""
    document_count = 0

    def read_count(text: str) -> None:
        nonlocal document_count
        if (document_count := int(text)) < 1:
            raise ValueError(f"#N= must be at least 1, got {document_count}")

    def row(line: str) -> int:
        nonlocal previous
        feature, _, df = line.partition("\t")
        df = int(df)
        if not 1 <= df <= document_count:
            raise ValueError(f"df {df} is not in 1..#N={document_count}" if document_count
                             else "a row before the #N= line")
        if feature <= previous and feature_to_index:
            raise ValueError(f"repeated feature {feature!r}" if feature == previous else
                             f"feature {feature!r} does not follow {previous!r} in string order")
        previous = feature
        feature_to_index[feature] = len(feature_to_index)
        return df

    _, dfs = _read_records(text, "feature TAB df", {"N": read_count}, row)
    return Vocabulary(feature_to_index=feature_to_index, document_frequency=dfs,
                      document_count=document_count)


def load_vocabulary(path) -> Vocabulary:
    """Read a vocabulary file written by `save_vocabulary`."""
    return _parse_vocabulary(Path(path).read_text(encoding="utf-8"))
