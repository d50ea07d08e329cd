"""Policy documents, segmentation, labeled corpora, training tasks and stratified folds."""

from __future__ import annotations

import random
import re
from collections.abc import Iterable
from dataclasses import dataclass

from .errors import EmptyDocument, FoldError, LabelError, ParseError
from .transparency import LABELED_ELEMENTS, UNGATED_ELEMENTS

FULLSTOP = "fullstop"
BLANKLINE = "blankline"

_COUNTRY_LABEL = re.compile(r"^country:[A-Z]{2}$")
_BLANKLINE_SPLIT = re.compile(r"\n\s*\n")
# a period followed by whitespace (as str.isspace() has it) or end of text
_SEGMENT_END = re.compile(r"\.(?!\S)")


def _check_labels(intention_label: int, element_labels: frozenset[str]) -> None:
    if intention_label not in (0, 1):
        raise ValueError(f"intention label must be 0 or 1, got {intention_label!r}")
    for label in element_labels:
        if label not in LABELED_ELEMENTS and not _COUNTRY_LABEL.match(label):
            raise ValueError(f"unknown element label {label!r}")
    # the ungated elements are disclosable outside transfer-intention segments
    if intention_label != 1 and element_labels.difference(UNGATED_ELEMENTS):
        raise ValueError(f"labels other than {', '.join(UNGATED_ELEMENTS)} "
                         "require intention label 1")


@dataclass(frozen=True)
class PolicyDocument:
    app_id: str
    raw_text: str


@dataclass(frozen=True)
class PolicySegment:
    doc_id: str
    text: str


@dataclass(frozen=True)
class LabeledSegment:
    segment: PolicySegment
    intention_label: int
    element_labels: frozenset[str] = frozenset()

    def __post_init__(self):
        _check_labels(self.intention_label, self.element_labels)


# the classifiers a corpus trains, by task name: layer one, then layer two
INTENTION, ADEQUACY = TASKS = ("intention", "adequacy")


def task_samples(samples: Iterable[LabeledSegment], task: str) -> list[tuple[LabeledSegment, int]]:
    """The samples that `task` trains on, each with its 0/1 label.  The
    adequacy classifier runs on intention-positive segments only, so it
    learns from those alone."""
    if task == INTENTION:
        return [(s, s.intention_label) for s in samples]
    if task == ADEQUACY:
        return [(s, int("adequacy" in s.element_labels)) for s in samples if s.intention_label]
    raise ValueError(f"unknown task {task!r}, expected one of {', '.join(TASKS)}")


def segment_policy(doc: PolicyDocument, separator_mode: str = FULLSTOP) -> list[PolicySegment]:
    """Split a policy into ordered, trimmed, non-empty segments.

    ``fullstop`` splits at a period followed by whitespace or end of text,
    except after single-letter tokens (keeps "U.S." together) and drops the
    terminal period.  ``blankline`` splits at blank lines.
    """
    text = doc.raw_text.strip()
    if not text:
        raise EmptyDocument(f"document {doc.app_id!r} is empty")
    if separator_mode == BLANKLINE:
        chunks = [c.strip() for c in _BLANKLINE_SPLIT.split(text)]
    elif separator_mode == FULLSTOP:
        chunks = []
        start = 0
        for match in _SEGMENT_END.finditer(text):
            i = match.start()
            if i and text[i - 1].isalpha() and (i == 1 or not text[i - 2].isalpha()):
                continue  # abbreviation such as "U.S."
            chunks.append(text[start:i].strip())
            start = i + 1
        chunks.append(text[start:].strip())
    else:
        raise ValueError(f"unknown separator mode {separator_mode!r}")
    return [PolicySegment(doc.app_id, c) for c in chunks if c]


_ESCAPES = {"\\": "\\\\", "\t": "\\t", "\n": "\\n", "\r": "\\r"}


def _escape(text: str) -> str:
    return "".join(_ESCAPES.get(ch, ch) for ch in text)


_UNESCAPES = {"\\": "\\", "t": "\t", "n": "\n", "r": "\r"}
# a backslash and the character after it; an empty group is a trailing backslash
_ESCAPE_SEQUENCE = re.compile(r"\\(.?)", re.DOTALL)


def _unescape(text: str, lineno: int) -> str:
    def replace(match: re.Match) -> str:
        ch = match[1]
        if not ch:
            raise ParseError("dangling escape at end of text field", lineno)
        if ch not in _UNESCAPES:
            raise ParseError(f"unknown escape \\{ch}", lineno)
        return _UNESCAPES[ch]

    return _ESCAPE_SEQUENCE.sub(replace, text)


def save_corpus(samples: Iterable[LabeledSegment], path) -> None:
    """One tab-separated sample per line: doc_id, intention, elements, text."""
    with open(path, "w", encoding="utf-8") as fh:
        for sample in samples:
            labels = ";".join(sorted(sample.element_labels)) or "-"
            fh.write(
                f"{sample.segment.doc_id}\t{sample.intention_label}\t"
                f"{labels}\t{_escape(sample.segment.text)}\n"
            )


def load_corpus(path) -> list[LabeledSegment]:
    """Parse the corpus line format."""
    samples: list[LabeledSegment] = []
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.rstrip("\n")
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != 4:
                raise ParseError(f"expected 4 tab-separated fields, got {len(parts)}", lineno)
            doc_id, intention_s, labels_s, text_s = parts
            if intention_s not in ("0", "1"):
                raise ParseError(f"intention must be 0 or 1, got {intention_s!r}", lineno)
            labels = frozenset() if labels_s == "-" else frozenset(labels_s.split(";"))
            text = _unescape(text_s, lineno)
            try:
                sample = LabeledSegment(PolicySegment(doc_id, text), int(intention_s), labels)
            except ValueError as exc:
                raise LabelError(str(exc), lineno) from exc
            samples.append(sample)
    return samples


def stratified_kfold(labels: list[int], k: int, seed: int) -> list[tuple[list[int], list[int]]]:
    """Seeded stratified folds over 0/1 labels: shuffle each class, deal round-robin.

    Returns k (train_indices, test_indices) pairs; test folds partition the
    samples.  Each class is dealt from fold 0, so a class's counts in any two
    folds differ by at most one, while fold sizes may differ by two.  A fold
    left without a test sample is a FoldError.
    """
    n = len(labels)
    if k < 2:
        raise FoldError(f"k must be >= 2, got {k}")
    if k > n:
        raise FoldError(f"k={k} exceeds sample count {n}")
    positives = [i for i, y in enumerate(labels) if y == 1]
    negatives = [i for i, y in enumerate(labels) if y == 0]
    if not positives or not negatives:
        raise FoldError("both classes need at least one sample")
    larger = max(len(positives), len(negatives))
    if k > larger:
        # each class is dealt from fold 0, so the folds from `larger` on stay empty
        raise FoldError(f"fold {larger} gets no test sample: k={k} exceeds the "
                        f"{larger} samples of the larger class")
    rng = random.Random(seed)
    rng.shuffle(positives)
    rng.shuffle(negatives)
    test_folds: list[list[int]] = [[] for _ in range(k)]
    for pool in (positives, negatives):
        for j, idx in enumerate(pool):
            test_folds[j % k].append(idx)
    folds = []
    for f in range(k):
        test = sorted(test_folds[f])
        test_set = set(test)
        train = [i for i in range(n) if i not in test_set]
        folds.append((train, test))
    return folds
