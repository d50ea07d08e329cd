"""Sparse n-gram features for policy segments.

The token pipeline is fixed: lowercase -> drop non-ASCII -> ASCII letter
runs -> drop stop words -> stem; n-grams are built over its tokens.
Vocabularies record document frequencies so TF-IDF weights can be computed
as count * ln(N / n_i).
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from functools import cache

from .errors import ParseError
from .lines import data_lines
from .stemmer import stem

BC = "bc"
TF = "tf"
TFIDF = "tfidf"
SCHEMES = (BC, TF, TFIDF)

# the words of lowercased text: ASCII letter runs, shared with the rule layer
WORD_RUNS = re.compile(r"[a-z]+")


@cache
def stopword_list() -> frozenset[str]:
    """The English stop-word set, loaded once."""
    return frozenset(word for _, line in data_lines(None, "stopwords.txt")
                     if (word := line.strip()))


def tokenize(text: str) -> list[str]:
    """Normalize text to a token list; may be empty.

    Punctuation and digits separate tokens and are dropped with them.
    """
    text = text.lower().encode("ascii", "ignore").decode("ascii")
    stops = stopword_list()
    return [stem(t) for t in WORD_RUNS.findall(text) if t not in stops]


def check_ngram_range(ngram_min: int, ngram_max: int) -> None:
    """Raise ValueError unless 1 <= ngram_min <= ngram_max <= 4."""
    if not 1 <= ngram_min <= ngram_max <= 4:
        raise ValueError(f"bad n-gram range {ngram_min}-{ngram_max}")


def parse_ngram_range(text: str) -> tuple[int, int]:
    """Read the `lo-hi` (or `n`) form of an n-gram range and check it."""
    lo, _, hi = text.partition("-")
    ngram = int(lo), int(hi or lo)
    check_ngram_range(*ngram)
    return ngram


def extract_ngrams(tokens: list[str], ngram_min: int, ngram_max: int) -> list[str]:
    """All contiguous n-grams for n in [ngram_min, ngram_max], space-joined."""
    check_ngram_range(ngram_min, ngram_max)
    grams: list[str] = []
    for n in range(ngram_min, ngram_max + 1):
        if n == 1:
            grams.extend(tokens)
            continue
        for i in range(len(tokens) - n + 1):
            grams.append(" ".join(tokens[i:i + n]))
    return grams


@dataclass
class Vocabulary:
    """Feature index plus the document frequencies behind IDF weights."""

    feature_to_index: dict[str, int]
    document_frequency: list[int]
    document_count: int

    def __len__(self):
        return len(self.feature_to_index)


@dataclass(frozen=True)
class FeatureVector:
    """Sparse weights for one segment under a weighting scheme."""

    entries: dict[int, float] = field(default_factory=dict)


def build_vocabulary(gram_lists: list[list[str]]) -> Vocabulary:
    """Index every distinct n-gram and count the segments containing it."""
    if not gram_lists:
        raise ValueError("need at least one segment to build a vocabulary")
    df: dict[str, int] = {}
    for grams in gram_lists:
        for gram in set(grams):
            df[gram] = df.get(gram, 0) + 1
    features = sorted(df)
    return Vocabulary(
        feature_to_index={f: i for i, f in enumerate(features)},
        document_frequency=[df[f] for f in features],
        document_count=len(gram_lists),
    )


def vectorize(grams: list[str], vocab: Vocabulary, scheme: str) -> FeatureVector:
    """Weight the in-vocabulary n-grams of one segment; OOV grams are ignored."""
    if scheme not in SCHEMES:
        raise ValueError(f"unknown weighting scheme {scheme!r}")
    counts: dict[int, int] = {}
    for gram in grams:
        idx = vocab.feature_to_index.get(gram)
        if idx is not None:
            counts[idx] = counts.get(idx, 0) + 1
    entries: dict[int, float] = {}
    for idx, count in counts.items():
        if scheme == BC:
            entries[idx] = 1.0
        elif scheme == TF:
            entries[idx] = float(count)
        else:
            weight = count * math.log(vocab.document_count / vocab.document_frequency[idx])
            if weight != 0.0:
                entries[idx] = weight
    return FeatureVector(entries=entries)


def save_vocabulary(vocab: Vocabulary, path) -> bytes:
    """Write `#N=` header plus one `feature TAB index TAB df` line per
    feature; returns the bytes written."""
    data = vocabulary_bytes(vocab)
    with open(path, "wb") as fh:
        fh.write(data)
    return data


def vocabulary_bytes(vocab: Vocabulary) -> bytes:
    lines = [f"#N={vocab.document_count}"]
    for feature in sorted(vocab.feature_to_index):
        idx = vocab.feature_to_index[feature]
        lines.append(f"{feature}\t{idx}\t{vocab.document_frequency[idx]}")
    return ("\n".join(lines) + "\n").encode("utf-8")


def load_vocabulary(path) -> Vocabulary:
    """Read a vocabulary file written by `save_vocabulary`."""
    feature_to_index: dict[str, int] = {}
    df_by_index: dict[int, int] = {}
    document_count = None
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.rstrip("\n")
            if not line:
                continue
            try:
                if line.startswith("#N="):
                    document_count = int(line[3:])
                    continue
                parts = line.split("\t")
                if len(parts) != 3:
                    raise ParseError("expected `feature TAB index TAB df`", lineno)
                feature, idx, df = parts[0], int(parts[1]), int(parts[2])
            except ValueError as exc:
                raise ParseError(str(exc), lineno) from exc
            feature_to_index[feature] = idx
            df_by_index[idx] = df
    if document_count is None:
        raise ParseError("missing #N= header")
    if sorted(df_by_index) != list(range(len(feature_to_index))):
        raise ParseError("vocabulary indices are not dense 0..n-1")
    return Vocabulary(
        feature_to_index=feature_to_index,
        document_frequency=[df_by_index[i] for i in range(len(df_by_index))],
        document_count=document_count,
    )
