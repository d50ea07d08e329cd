"""Keyword proximity rules for transparency elements.

Grammar: ``CLAUSE (w/<int> CLAUSE)*`` with ``CLAUSE := '(' term ('|' term)* ')'``
and single-quoted terms, e.g. ``('contract'|'standard') w/4 ('model'|'clause')``.
Terms are stemmed at parse time; a rule matches when, inside one sentence,
stemmed tokens satisfying consecutive clauses lie within the clause window
(in either order).
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .errors import RuleParseError
from .stemmer import stem

_SENTENCE_SPLIT = re.compile(r"[.!?;]")
_WORD_RUNS = re.compile(r"[a-z]+")


@dataclass(frozen=True)
class ProximityRule:
    id: str
    clauses: tuple[frozenset[str], ...]
    windows: tuple[int, ...]

    def __post_init__(self):
        if len(self.windows) != len(self.clauses) - 1:
            raise ValueError("need exactly one window between consecutive clauses")


class _Scanner:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def expect(self, ch: str):
        if self.pos >= len(self.text) or self.text[self.pos] != ch:
            raise RuleParseError(f"expected {ch!r}", self.pos)
        self.pos += 1

    def at_end(self) -> bool:
        self.skip_ws()
        return self.pos >= len(self.text)


def _parse_term(sc: _Scanner) -> str:
    sc.skip_ws()
    sc.expect("'")
    start = sc.pos
    while sc.pos < len(sc.text) and sc.text[sc.pos] != "'":
        sc.pos += 1
    if sc.pos >= len(sc.text):
        raise RuleParseError("unterminated term quote", start - 1)
    term = sc.text[start:sc.pos]
    sc.pos += 1
    if not term or not term.isalpha():
        raise RuleParseError(f"term must be alphabetic, got {term!r}", start)
    return stem(term.lower())


def _parse_clause(sc: _Scanner) -> frozenset[str]:
    sc.skip_ws()
    sc.expect("(")
    terms = [_parse_term(sc)]
    while True:
        sc.skip_ws()
        if sc.pos < len(sc.text) and sc.text[sc.pos] == "|":
            sc.pos += 1
            terms.append(_parse_term(sc))
            continue
        sc.expect(")")
        return frozenset(terms)


def parse_rule(rule_text: str, rule_id: str = "") -> ProximityRule:
    """Parse one rule string; raises RuleParseError with the failing position."""
    sc = _Scanner(rule_text)
    clauses = [_parse_clause(sc)]
    windows: list[int] = []
    while not sc.at_end():
        sc.skip_ws()
        if not sc.text.startswith("w/", sc.pos):
            raise RuleParseError("expected `w/<int>` between clauses", sc.pos)
        sc.pos += 2
        start = sc.pos
        while sc.pos < len(sc.text) and sc.text[sc.pos].isdigit():
            sc.pos += 1
        if sc.pos == start:
            raise RuleParseError("window must be an integer", start)
        window = int(sc.text[start:sc.pos])
        if window < 1:
            raise RuleParseError("window must be >= 1", start)
        windows.append(window)
        clauses.append(_parse_clause(sc))
    return ProximityRule(id=rule_id, clauses=tuple(clauses), windows=tuple(windows))


def sentence_tokens(segment_text: str) -> list[list[str]]:
    """Stemmed word tokens per sentence; sentences split on . ! ? ;"""
    sentences = []
    for raw in _SENTENCE_SPLIT.split(segment_text.lower()):
        tokens = [stem(t) for t in _WORD_RUNS.findall(raw)]
        if tokens:
            sentences.append(tokens)
    return sentences


def _match_in_sentence(rule: ProximityRule, tokens: list[str]) -> bool:
    positions = []
    for clause in rule.clauses:
        hits = [i for i, t in enumerate(tokens) if t in clause]
        if not hits:
            return False
        positions.append(hits)
    reachable = positions[0]
    for window, hits in zip(rule.windows, positions[1:]):
        reachable = [q for q in hits if any(abs(q - p) <= window for p in reachable)]
        if not reachable:
            return False
    return True


def load_rules(path) -> list[ProximityRule]:
    """Rule file: `element_id TAB rule text` per line, # comments allowed."""
    rules = []
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.rstrip("\n")
            if not line or line.startswith("#"):
                continue
            element_id, sep, text = line.partition("\t")
            if not sep or not element_id or not text.strip():
                raise RuleParseError(f"line {lineno}: expected `element_id TAB rule`")
            rules.append(parse_rule(text.strip(), rule_id=element_id))
    return rules


def matched_elements(rules: list[ProximityRule], segment_text: str) -> set[str]:
    """Element ids whose rules (any of them) match the segment.

    A rule matches when some single sentence of the segment satisfies it.
    """
    sentences = sentence_tokens(segment_text)
    matched = set()
    for rule in rules:
        if rule.id in matched:
            continue
        if any(_match_in_sentence(rule, toks) for toks in sentences):
            matched.add(rule.id)
    return matched
