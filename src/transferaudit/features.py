"""Tokens and n-grams of policy segments.

The token pipeline is fixed: fold to lowercase ASCII -> letter runs -> drop
stop words -> stem; n-grams are built over its tokens.  A vocabulary
numbers the n-grams of a model and records their document frequencies, so
that TF-IDF weights can be computed as count * ln(N / n_i).  The weighing
lives in `classifier.py` and `training.py`; the vocabulary file is written
and read with its model by `TextClassifier.save` and `.load`.
"""

from __future__ import annotations

import re
import unicodedata
from dataclasses import dataclass
from functools import cache

from .lines import data_lines
from .stemmer import stem

BC = "bc"
TF = "tf"
TFIDF = "tfidf"
SCHEMES = (BC, TF, TFIDF)

# the words of folded text: ASCII letter runs, shared with the rule layer
WORD_RUNS = re.compile(r"[a-z]+")


def fold(text: str) -> str:
    """The lowercase ASCII form of text that the classifiers, the rules and the
    gazetteer read.  Non-ASCII text is NFKD-decomposed, loses its combining
    marks and format characters (soft hyphens) except the zero-width space,
    which separates words, gets a space for each other non-ASCII character
    and is lowercased again (NFKD gives "h" from "ℌ")."""
    lowered = text.lower()
    if lowered.isascii():
        return lowered
    decomposed = unicodedata.normalize("NFKD", lowered.replace("\u200b", " "))
    return "".join(c if c.isascii() else "" if unicodedata.category(c) in ("Mn", "Mc", "Me", "Cf")
                   else " " for c in decomposed).lower()


@cache
def stopword_list() -> frozenset[str]:
    """The English stop-word set, loaded once."""
    return frozenset(word for _, line in data_lines(None, "stopwords.txt")
                     if (word := line.strip()))


def tokenize(text: str) -> list[str]:
    """The stems of the words of folded text that are no stop words; may be empty.

    Punctuation and digits separate tokens and are dropped with them.
    """
    stops = stopword_list()
    return [stem(t) for t in WORD_RUNS.findall(fold(text)) if t not in stops]


def check_ngram_range(ngram_min: int, ngram_max: int) -> None:
    """Raise ValueError unless 1 <= ngram_min <= ngram_max <= 4."""
    if not 1 <= ngram_min <= ngram_max <= 4:
        raise ValueError(f"bad n-gram range {ngram_min}-{ngram_max}")


# an n-gram range written `n` or `lo-hi`, in ASCII digits from 1 to 4
_NGRAM_RANGE = re.compile(r"([1-4])(?:-([1-4]))?")


def parse_ngram_range(text: str, short: bool = True) -> tuple[int, int]:
    """Read the `lo-hi` form of an n-gram range, lo <= hi, or where `short`, `n`."""
    match = _NGRAM_RANGE.fullmatch(text)
    if not match or not (short or match[2]) or int(match[1]) > int(match[2] or match[1]):
        raise ValueError(f"bad n-gram range {text!r}")
    return int(match[1]), int(match[2] or match[1])


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
