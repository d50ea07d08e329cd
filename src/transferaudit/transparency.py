"""Two-layer transparency extraction.

Layer one flags segments that disclose a transfer intention; layer two runs
only on flagged segments and extracts target countries (gazetteer), the
adequacy claim (second linear classifier) and safeguard/copy elements
(proximity rules).  Representative and privacy-shield rules run on every
segment.  Policy-level annotations OR the segment flags and union countries.
A segment is analysed in one pass: each word is stemmed once, for the rule
positions and, when the segment's lowercase is ASCII, for the classifiers'
tokens; the two classifiers share one n-gram list.  The annotation JSON
form that `annotate` writes and `check`/`report` read is defined here too.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass, field, fields
from operator import itemgetter
from typing import TYPE_CHECKING

from .countries import CountryDictionary, check_country_code, detect_target_countries
from .errors import ParseError
from .features import extract_ngrams, stopword_list, tokenize
from .lines import check_json_strings, json_records, json_type_error
from .rules import (
    ProximityRule,
    elements_in_sentences,
    load_rules,
    rule_terms,
    sentence_stems,
    term_positions,
)

if TYPE_CHECKING:  # a type only: importing classifier loads numpy
    from .classifier import TextClassifier

# Rule-detected elements; the gated ones count only in segments that state a
# transfer intention.
GATED_ELEMENTS = ("scc", "bcr", "explicit_consent", "copy_means")
UNGATED_ELEMENTS = ("representative", "privacy_shield")


def default_rules() -> list[ProximityRule]:
    return load_rules()


@dataclass(frozen=True)
class SegmentAnnotation:
    intention: bool = False
    countries: frozenset[str] = frozenset()
    adequacy: bool = False
    scc: bool = False
    bcr: bool = False
    explicit_consent: bool = False
    copy_means: bool = False
    representative: bool = False
    privacy_shield: bool = False


@dataclass(frozen=True)
class PolicyAnnotation(SegmentAnnotation):
    """A policy's nine elements plus the segment annotations behind them."""

    segments: list[SegmentAnnotation] = field(default_factory=list)


# The nine transparency elements as annotation fields, in field order; the
# policy OR and the annotation JSON form are derived from this tuple.
ELEMENT_FIELDS = tuple(f.name for f in fields(SegmentAnnotation))
_FLAGS = tuple(name for name in ELEMENT_FIELDS if name != "countries")
_flag_values = itemgetter(*_FLAGS)


def _elements_json(ann) -> dict:
    obj = {name: getattr(ann, name) for name in _FLAGS}
    obj["countries"] = sorted(ann.countries)
    return obj


def annotation_json(app_id: str, policy: PolicyAnnotation) -> dict:
    """The JSON object of one annotated policy, as `annotate` writes it."""
    obj = _elements_json(policy)
    obj["app_id"] = app_id
    obj["segments"] = [_elements_json(s) for s in policy.segments]
    return obj


def _elements(obj: dict, lineno: int, codes: set[str]) -> dict:
    """A record's nine elements as annotation fields.  The flags must be JSON
    booleans and the countries a JSON array of ISO-3166 alpha-2 codes;
    `codes` holds the codes already checked."""
    countries = obj["countries"]
    if not isinstance(countries, list):
        raise json_type_error("countries", "array", countries, lineno)
    for code in countries:
        if code not in codes:
            codes.add(check_country_code(code, lineno))
    elements = dict(zip(_FLAGS, _flag_values(obj)))
    for name, value in elements.items():
        if not isinstance(value, bool):
            raise json_type_error(name, "boolean", value, lineno)
    elements["countries"] = frozenset(countries)
    return elements


def read_annotations(lines: Iterable[str]) -> dict[str, PolicyAnnotation]:
    """Parse `annotate` output, one JSON object per line, keyed by app id.

    Segments with equal values load as one shared `SegmentAnnotation`, which
    is safe because the class is frozen: a study repeats a few thousand
    distinct segment values hundreds of thousands of times.  A segment value
    is checked once, when first seen, so a JSON 1 or 0 flag in a segment
    reads as the true or false it equals in Python once that value has been
    checked.
    """
    annotations: dict[str, PolicyAnnotation] = {}
    # by_key skips building an object for JSON values seen before; by_value
    # also unites values whose country lists differ only in order
    by_key: dict[tuple, SegmentAnnotation] = {}
    by_value: dict[SegmentAnnotation, SegmentAnnotation] = {}
    codes: set[str] = set()
    for lineno, obj in json_records(lines):
        try:
            check_json_strings(obj, ("app_id",), lineno)
            records = obj.get("segments", [])
            if not isinstance(records, list):
                raise json_type_error("segments", "array", records, lineno)
            segments = []
            for s in records:
                countries = s["countries"]
                if not isinstance(countries, list):
                    raise json_type_error("countries", "array", countries, lineno)
                key = (_flag_values(s), tuple(countries))
                seg = by_key.get(key)
                if seg is None:
                    seg = SegmentAnnotation(**_elements(s, lineno, codes))
                    seg = by_key[key] = by_value.setdefault(seg, seg)
                segments.append(seg)
            annotations[obj["app_id"]] = PolicyAnnotation(
                segments=segments, **_elements(obj, lineno, codes))
        except KeyError as exc:
            raise ParseError(f"annotation record lacks field {exc}", lineno) from exc
        except TypeError as exc:
            raise ParseError(f"bad annotation record: {exc}", lineno) from exc
    return annotations


def annotate_segment(annotator: SegmentAnnotator, segment_text: str) -> SegmentAnnotation:
    """Annotate one segment; layer-two elements stay off unless gated in."""
    lowered = segment_text.lower()
    stops = stopword_list()
    tokens: list[str] = []
    sentences = []
    for words, stems in sentence_stems(lowered):
        tokens += [stemmed for word, stemmed in zip(words, stems) if word not in stops]
        sentences.append(term_positions(stems, annotator.rule_terms))
    if not lowered.isascii():
        # tokenize drops non-ASCII letters before it splits, joining words at them
        tokens = tokenize(segment_text)
    elements = elements_in_sentences(annotator.rules, sentences)
    flags = {name: name in elements for name in UNGATED_ELEMENTS}
    intention = annotator.intention_model
    grams = extract_ngrams(tokens, *intention.ngram)
    if not intention.predict_grams(grams):
        return SegmentAnnotation(**flags)
    flags.update((name, name in elements) for name in GATED_ELEMENTS)
    adequacy = annotator.adequacy_model
    if adequacy is not None and adequacy.ngram != intention.ngram:
        grams = extract_ngrams(tokens, *adequacy.ngram)
    return SegmentAnnotation(
        intention=True,
        countries=frozenset(detect_target_countries(segment_text.split(), annotator.dictionary)),
        adequacy=adequacy is not None and bool(adequacy.predict_grams(grams)),
        **flags,
    )


def annotate_policy(segment_annotations: list[SegmentAnnotation]) -> PolicyAnnotation:
    """Element-wise OR over segments; a policy discloses what any segment does."""
    segments = list(segment_annotations)
    return PolicyAnnotation(countries=frozenset().union(*(s.countries for s in segments)),
                            segments=segments,
                            **{name: any(getattr(s, name) for s in segments) for name in _FLAGS})


@dataclass(frozen=True)
class SegmentAnnotator:
    """Bundles the models and data files needed to annotate policies."""

    intention_model: TextClassifier
    adequacy_model: TextClassifier | None
    rules: list[ProximityRule]
    dictionary: CountryDictionary
    rule_terms: frozenset[str] = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "rule_terms", rule_terms(self.rules))

    def annotate_segment(self, segment_text: str) -> SegmentAnnotation:
        return annotate_segment(self, segment_text)

    def annotate_policy(self, segment_texts: list[str]) -> PolicyAnnotation:
        return annotate_policy([self.annotate_segment(t) for t in segment_texts])
