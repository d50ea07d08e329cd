"""Keyword proximity rules for transparency elements.

Grammar: ``CLAUSE (w/<int> CLAUSE)*`` with ``CLAUSE := '(' term ('|' term)* ')'``
and single-quoted terms, e.g. ``('contract'|'standard') w/4 ('model'|'clause')``.
Terms are folded (`features.fold`) and stemmed at parse time, and each must
fold to one word of letters a-z; a rule matches when, inside one sentence,
stemmed tokens satisfying consecutive clauses lie within the clause window
(in either order).  Matching reads one `{stem: [positions]}` dict per
sentence, which needs only the stems that are rule terms; `sentence_stems`
is the one place folded text (`features.fold`) is split into sentences,
words and stems.
"""

from __future__ import annotations

import re
from collections.abc import Iterable, Iterator
from dataclasses import dataclass

from .errors import ParseError, RuleParseError
from .features import WORD_RUNS, fold
from .lines import data_lines
from .stemmer import stem

# The grammar is regular: a rule is a clause, then (window, clause) pairs.
_CLAUSE = re.compile(r"\s*\((\s*'[^']*'(?:\s*\|\s*'[^']*')*)\s*\)")
_TERM = re.compile(r"'([^']*)'")
_WINDOW = re.compile(r"\s*w/(\d*)")  # \d: int() reads every Unicode decimal digit

SENTENCE_ENDS = re.compile(r"[.!?;]")

# The transparency elements that rules detect: the element ids a rules file
# may name.
RULE_ELEMENTS = ("representative", "scc", "bcr", "explicit_consent", "copy_means",
                 "privacy_shield")


@dataclass(frozen=True)
class ProximityRule:
    id: str
    clauses: tuple[frozenset[str], ...]
    windows: tuple[int, ...]

    def __post_init__(self):
        if len(self.windows) != len(self.clauses) - 1:
            raise ValueError("need exactly one window between consecutive clauses")


def parse_rule(rule_text: str, rule_id: str = "") -> ProximityRule:
    """Parse one rule string; raises RuleParseError with the failing position."""
    clauses: list[frozenset[str]] = []
    windows: list[int] = []
    pos = 0
    while True:
        clause = _CLAUSE.match(rule_text, pos)
        if clause is None:
            raise RuleParseError("expected a clause `('term'|'term')`", pos)
        terms = []
        for term in _TERM.finditer(rule_text, clause.start(1), clause.end(1)):
            word = fold(term[1])
            if not WORD_RUNS.fullmatch(word):
                raise RuleParseError(f"term must fold to one word of a-z, got {term[1]!r}",
                                     term.start(1))
            terms.append(stem(word))
        clauses.append(frozenset(terms))
        pos = clause.end()
        if not rule_text[pos:].strip():
            return ProximityRule(id=rule_id, clauses=tuple(clauses), windows=tuple(windows))
        window = _WINDOW.match(rule_text, pos)
        if window is None:
            raise RuleParseError("expected `w/<int>` between clauses", pos)
        if not window[1]:
            raise RuleParseError("window must be an integer", window.end())
        if int(window[1]) < 1:
            raise RuleParseError("window must be >= 1", window.start(1))
        windows.append(int(window[1]))
        pos = window.end()


def load_rules(path=None) -> list[ProximityRule]:
    """Rule file: `element_id TAB rule text` per line; default: shipped rules.

    An element id is one of RULE_ELEMENTS.  A malformed line is a ParseError
    naming it, chained from the grammar's RuleParseError.
    """
    rules = []
    for lineno, line in data_lines(path, "rules.tsv"):
        element_id, sep, text = line.partition("\t")
        if not sep or not element_id or not text.strip():
            raise ParseError("expected `element_id TAB rule`", lineno)
        if element_id not in RULE_ELEMENTS:
            raise ParseError(f"unknown element id {element_id!r}", lineno)
        try:
            rules.append(parse_rule(text.strip(), rule_id=element_id))
        except RuleParseError as exc:
            raise ParseError(str(exc), lineno) from exc
    return rules


def _matches(rule: ProximityRule, positions: dict[str, list[int]]) -> bool:
    """Chain the clauses: a hit counts if it lies within the window of a
    counted hit of the previous clause."""
    reachable = [p for term in rule.clauses[0] for p in positions.get(term, ())]
    for window, clause in zip(rule.windows, rule.clauses[1:]):
        reachable = [q for term in clause for q in positions.get(term, ())
                     if any(abs(q - p) <= window for p in reachable)]
    return bool(reachable)


def rule_terms(rules: list[ProximityRule]) -> frozenset[str]:
    """Every stemmed term of the rules: the only stems matching looks up."""
    return frozenset(term for rule in rules for clause in rule.clauses for term in clause)


def sentence_stems(folded: str) -> Iterator[tuple[list[str], list[str]]]:
    """Each sentence of folded text as its words and their stems.

    Sentences split on . ! ? ; and words are the ASCII letter runs; a word's
    position in its sentence is its index in both lists.
    """
    for sentence in SENTENCE_ENDS.split(folded):
        words = WORD_RUNS.findall(sentence)
        yield words, [stem(word) for word in words]


def term_positions(stems: list[str], terms: frozenset[str]) -> dict[str, list[int]]:
    """The positions of each stem of one sentence that is in `terms`."""
    positions: dict[str, list[int]] = {}
    for i, stemmed in enumerate(stems):
        if stemmed in terms:
            positions.setdefault(stemmed, []).append(i)
    return positions


def elements_in_sentences(rules: list[ProximityRule],
                          sentences: Iterable[dict[str, list[int]]]) -> set[str]:
    """Element ids whose rules match some sentence, given as the word
    positions of each stem in it; stems that are no rule term may be left out."""
    matched = set()
    for positions in sentences:
        if not positions:
            continue  # no rule term in the sentence
        for rule in rules:
            if rule.id not in matched and _matches(rule, positions):
                matched.add(rule.id)
    return matched


def matched_elements(rules: list[ProximityRule], segment_text: str) -> set[str]:
    """Element ids whose rules (any of them) match the segment.

    A rule matches when some single sentence of the segment satisfies it;
    sentences split on . ! ? ; and positions count every word.
    """
    terms = rule_terms(rules)
    return elements_in_sentences(rules, (term_positions(stems, terms)
                                         for _, stems in sentence_stems(fold(segment_text))))
