"""Text classifier bundle: n-gram range + vocabulary + linear model.

A bundle turns raw segment text, or n-grams already computed, into a
prediction.  `TextClassifier.save` and `.load` are its whole file API: this
module alone knows the names and layout of its two files, a vocabulary and a
model, in which a feature's index is its row, and `load` reads exactly what
`save` writes.  Bundles are fitted in `training.py`, the only module that
imports numpy.

`TextClassifier.weigh` gives the BC/TF/TF-IDF weighing by n-gram string, as
one pair, feature indices and their weights in order of first occurrence,
which is what `linear.decision_value` reads.
"""

from __future__ import annotations

import hashlib
import math
from contextlib import suppress
from dataclasses import dataclass
from functools import cached_property, partial
from itertools import count, repeat
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
        """Write the vocabulary file, `#N=` and a `feature TAB df` row per
        feature in string order, and the model file, the `_MODEL_HEADER`
        lines, a `repr` weight per row and `#bias=`.  A feature's index is
        its row, so a vocabulary numbered otherwise is refused, and so is a
        feature that `load` could not read back as one row."""
        vocab, cfg = self.vocabulary, self.model.config
        features = sorted(vocab.feature_to_index)
        if list(map(vocab.feature_to_index.get, features)) != list(range(len(features))):
            raise ValueError("a saved vocabulary must number its features by string rank")
        for feature in features:
            if feature[:1] == "#" or "\t" in feature or "\n" in feature or "\r" in feature:
                raise ValueError(f"a saved feature holds no TAB or line break and does not "
                                 f"start with `#`, got {feature!r}")
        vocab_text = "\n".join([f"#N={vocab.document_count}",
                                *map("{}\t{}".format, features, vocab.document_frequency)]) + "\n"
        model_lines = [f"#scheme={self.scheme}", f"#ngram={self.ngram[0]}-{self.ngram[1]}",
                       f"#alpha={float(cfg.alpha)!r}", f"#eta0={float(cfg.eta0)!r}",
                       f"#epochs={cfg.epochs}", f"#seed={cfg.seed}", f"#loss={MODIFIED_HUBER}",
                       f"#vocab_sha256={_text_hash(vocab_text)}",
                       *map(repr, self.model.weights), f"#bias={float(self.model.bias)!r}"]
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        for suffix, text in ("vocab", vocab_text), ("model", "\n".join(model_lines) + "\n"):
            (directory / f"{name}.{suffix}.tsv").write_bytes(text.encode("utf-8"))

    @classmethod
    def load(cls, directory, name: str) -> "TextClassifier":
        """Read a bundle in exactly the layout that `save` writes; any other
        line is a ParseError naming it.  The model holds one weight per
        vocabulary feature, and its `#vocab_sha256=` is the hash of the
        vocabulary file's text."""
        directory = Path(directory)
        vocab_text = (directory / f"{name}.vocab.tsv").read_text(encoding="utf-8")
        vocab = _read_vocabulary(vocab_text)
        model_text = (directory / f"{name}.model.tsv").read_text(encoding="utf-8")
        header, weights = _read_model(model_text)
        if len(weights) != len(vocab):
            raise ParseError(
                f"model has {len(weights)} weights for a {len(vocab)}-feature vocabulary")
        if header["vocab_sha256"] != _text_hash(vocab_text):
            raise ParseError("vocabulary file does not match the model's vocab hash")
        cfg = TrainConfig(alpha=float(header["alpha"]), epochs=int(header["epochs"]),
                          eta0=float(header["eta0"]), seed=int(header["seed"]))
        model = LinearModel(weights=tuple(weights), bias=float(header["bias"]), config=cfg)
        return cls(ngram=parse_ngram_range(header["ngram"]), vocabulary=vocab,
                   scheme=header["scheme"], model=model)


def _text_hash(text: str) -> str:
    """The short SHA-256 that a model header stores for its vocabulary file's text."""
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def _one_of(allowed: tuple[str, ...], value: str) -> None:
    if value not in allowed:
        raise ValueError(f"expected one of {', '.join(allowed)}, got {value!r}")


def _finite(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"model parameter {text!r} is not finite")
    return value


# A header value in the one form that `save` writes of it: `str` of an int,
# `repr` of a finite float.  `int` and `float` also take signs, spaces,
# underscores and non-ASCII digits, which would load as the same value.
def _int(text: str) -> int:
    value = int(text)
    if str(value) != text:
        raise ValueError(f"expected {str(value)!r}, got {text!r}")
    return value


def _float(text: str) -> float:
    value = _finite(text)
    if repr(value) != text:
        raise ValueError(f"expected {repr(value)!r}, got {text!r}")
    return value


# the model file's header keys, in the order `save` writes them, and the
# check each value must pass; `#bias=` is the file's last line, and
# `#ngram=` takes only the `lo-hi` form that `save` writes
_MODEL_HEADER = {"scheme": partial(_one_of, SCHEMES),
                 "ngram": partial(parse_ngram_range, short=False),
                 "alpha": lambda v: TrainConfig(alpha=_float(v)),
                 "eta0": lambda v: TrainConfig(eta0=_float(v)),
                 "epochs": lambda v: TrainConfig(epochs=_int(v)), "seed": _int,
                 "loss": partial(_one_of, (MODIFIED_HUBER,)), "vocab_sha256": str}


def _headers(lines: list[str], at: int, checks: dict[str, Callable[[str], object]],
             header: dict[str, str]) -> dict[str, str]:
    """`header` with one `#key=value` line per key of `checks` added, in its
    order from `lines[at]` on; a line that is not the next key's, or whose
    value fails the key's check, is a ParseError naming it."""
    for lineno, (key, check) in enumerate(checks.items(), start=at + 1):
        if lineno > len(lines):
            raise ParseError(f"expected `#{key}=`, got the end of the file", lineno)
        line = lines[lineno - 1]
        if not line.startswith(f"#{key}="):
            name = line[1:].partition("=")[0]
            raise ParseError(f"repeated header key {name!r}" if line[:1] == "#" and name in header
                             else f"expected `#{key}=`, got {line!r}", lineno)
        try:
            check(value := line[len(key) + 2:])
        except ValueError as exc:
            raise ParseError(str(exc), lineno) from exc
        header[key] = value
    return header


def _first_bad_row(rows: list[str], start: int,
                   check: Callable[[str, str | None], None]) -> ParseError | None:
    """The first of `rows`, numbered from line `start`, for which `check(row,
    previous row)` raises ValueError, as a ParseError naming its line.  The
    readers check the rows in bulk and look here only when that fails."""
    for lineno, row, previous in zip(count(start), rows, [None, *rows]):
        try:
            check(row, previous)
        except ValueError as exc:
            return ParseError(str(exc), lineno)
    return None


def _read_vocabulary(text: str) -> Vocabulary:
    """A vocabulary file's text: `#N=` on line 1, at least 1, then one
    `feature TAB df` row per line, each df in 1..N, so that every TF-IDF
    weight is defined, and the features in strictly increasing string order."""
    lines, ended = text.removesuffix("\n").split("\n"), text.endswith("\n")
    n = int(_headers(lines, 0, {"N": _int}, {})["N"])
    rows, body = lines[1:], text[len(lines[0]) + 1:]
    if n < 1:
        raise ParseError(f"#N= must be at least 1, got {n}", 1)
    if ended and list(map(str.count, rows, repeat("\t"))).count(1) == len(rows) \
            and body[:1] != "#" and "\n#" not in body:
        cells = body.replace("\t", "\n").split("\n")
        features = cells[:-1:2]
        with suppress(ValueError):
            dfs = list(map(int, cells[1::2]))
            if (min(dfs, default=1) >= 1 and max(dfs, default=n) <= n
                    and all(map(str.__lt__, features, features[1:]))):
                return Vocabulary(dict(zip(features, count())), dfs, n)

    def check(row: str, previous: str | None) -> None:
        if row[:1] == "#" or row.count("\t") != 1:
            raise ValueError(f"expected `feature TAB df`, got {row!r}")
        feature, _, df = row.partition("\t")
        if not 1 <= int(df) <= n:
            raise ValueError(f"df {df} is not in 1..#N={n}")
        before = previous is not None and previous.partition("\t")[0]
        if before is not False and feature <= before:
            raise ValueError(f"repeated feature {feature!r}" if feature == before else
                             f"feature {feature!r} does not follow {before!r} in string order")

    raise _first_bad_row(rows, 2, check) or ParseError("no newline at the end of the file",
                                                       len(lines))


def _read_model(text: str) -> tuple[dict[str, str], list[float]]:
    """A model file's header values, `bias` included, and its weights: the
    `_MODEL_HEADER` lines in its order, one finite weight without a TAB per
    line, the weight of the feature of its row, and `#bias=` as the last line."""
    lines, ended = text.removesuffix("\n").split("\n"), text.endswith("\n")
    header = _headers(lines, 0, _MODEL_HEADER, {})
    rows, weights = lines[len(header):-1], None
    with suppress(ValueError):
        weights = list(map(float, rows))
    if (weights is None or not all(map(math.isfinite, weights))
            or any(map(str.__contains__, rows, repeat("\t")))):

        def check(row: str, _: str | None) -> None:
            if row[:1] in ("", "#") or "\t" in row:
                raise ValueError(f"expected `weight`, got {row!r}")
            _finite(row)

        raise _first_bad_row(rows, len(header) + 1, check)
    _headers(lines, max(len(lines) - 1, len(header)), {"bias": _float}, header)
    if not ended:
        raise ParseError("no newline at the end of the file", len(lines))
    return header, weights
