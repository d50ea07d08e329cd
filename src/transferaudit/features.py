"""Tokens, n-grams and the vocabulary file of policy segments.

The token pipeline is fixed: lowercase -> drop non-ASCII -> ASCII letter
runs -> drop stop words -> stem; n-grams are built over its tokens.  A
vocabulary numbers the n-grams of a model and records their document
frequencies, so that TF-IDF weights can be computed as count * ln(N / n_i);
the weighing itself lives with the classifier (`classifier.py`).
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass
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


def save_vocabulary(vocab: Vocabulary, path) -> bytes:
    """Write `#N=` header plus one `feature TAB index TAB df` line per
    feature; returns the bytes written."""
    data = vocabulary_bytes(vocab)
    with open(path, "wb") as fh:
        fh.write(data)
    return data


def vocabulary_bytes(vocab: Vocabulary) -> bytes:
    """The file `save_vocabulary` writes."""
    lines = [f"#N={vocab.document_count}"]
    for feature in sorted(vocab.feature_to_index):
        idx = vocab.feature_to_index[feature]
        lines.append(f"{feature}\t{idx}\t{vocab.document_frequency[idx]}")
    return ("\n".join(lines) + "\n").encode("utf-8")


def bytes_hash(data: bytes) -> str:
    """The short SHA-256 that a model header stores for its vocabulary file."""
    return hashlib.sha256(data).hexdigest()[:16]


def vocabulary_hash(vocab: Vocabulary) -> str:
    return bytes_hash(vocabulary_bytes(vocab))


def load_vocabulary(path) -> Vocabulary:
    """Read a vocabulary file written by `save_vocabulary`.

    `#N=` must be at least 1 and every df in 1..N, so that each TF-IDF
    weight is defined; a line that breaks this is a ParseError naming it.
    """
    feature_to_index: dict[str, int] = {}
    df_by_index: dict[int, int] = {}
    document_count = None
    # the largest df and its line, checked against N once N is known
    max_df, max_df_line = 0, None
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.rstrip("\n")
            if not line:
                continue
            try:
                if line.startswith("#N="):
                    document_count = int(line[3:])
                    if document_count < 1:
                        raise ParseError(f"#N= must be at least 1, got {document_count}",
                                         lineno)
                    continue
                parts = line.split("\t")
                if len(parts) != 3:
                    raise ParseError("expected `feature TAB index TAB df`", lineno)
                feature, idx, df = parts[0], int(parts[1]), int(parts[2])
            except ValueError as exc:
                raise ParseError(str(exc), lineno) from exc
            if df < 1:
                raise ParseError(f"df must be at least 1, got {df}", lineno)
            if df > max_df:
                max_df, max_df_line = df, lineno
            feature_to_index[feature] = idx
            df_by_index[idx] = df
    if document_count is None:
        raise ParseError("missing #N= header")
    if max_df > document_count:
        raise ParseError(f"df {max_df} exceeds #N={document_count}", max_df_line)
    if sorted(df_by_index) != list(range(len(feature_to_index))):
        raise ParseError("vocabulary indices are not dense 0..n-1")
    return Vocabulary(
        feature_to_index=feature_to_index,
        document_frequency=[df_by_index[i] for i in range(len(df_by_index))],
        document_count=document_count,
    )
