"""Two-layer transparency extraction.

Layer one flags segments that disclose a transfer intention; layer two runs
only on flagged segments and extracts target countries (gazetteer), the
adequacy claim (second linear classifier) and safeguard/copy elements
(proximity rules).  Representative and privacy-shield rules run on every
segment.  Policy-level annotations OR the segment flags and union countries.
The fields of `SegmentAnnotation` name the nine elements, in report order.
A segment is folded (`features.fold`) and analysed in one pass: each word
is stemmed once, for the rule positions and for the classifiers' tokens;
the two classifiers share one n-gram list.  The annotation JSON
form that `annotate` writes and `check`/`report` read is defined here too.
"""

from __future__ import annotations

import json
from collections.abc import Iterable
from dataclasses import dataclass, field, fields
from operator import attrgetter, itemgetter
from typing import TYPE_CHECKING

from .countries import CountryDictionary, check_country_code, detect_target_countries
from .errors import ParseError
from .features import extract_ngrams, fold, stopword_list
from .lines import json_records, json_string, json_type_error
from .rules import (
    RULE_ELEMENTS,
    ProximityRule,
    elements_in_sentences,
    load_rules,
    rule_terms,
    sentence_stems,
    term_positions,
)

if TYPE_CHECKING:  # a type only: stages without a model need no bundle code
    from .classifier import TextClassifier

# Rule-detected elements; the gated ones count only in segments that state a
# transfer intention.
UNGATED_ELEMENTS = ("representative", "privacy_shield")
GATED_ELEMENTS = tuple(name for name in RULE_ELEMENTS if name not in UNGATED_ELEMENTS)


def default_rules() -> list[ProximityRule]:
    return load_rules()


@dataclass(frozen=True)
class SegmentAnnotation:
    representative: bool = False
    intention: bool = False
    countries: frozenset[str] = frozenset()
    adequacy: bool = False
    scc: bool = False
    bcr: bool = False
    explicit_consent: bool = False
    copy_means: bool = False
    privacy_shield: bool = False


@dataclass(frozen=True)
class PolicyAnnotation(SegmentAnnotation):
    """A policy's nine elements plus the segment annotations behind them."""

    segments: list[SegmentAnnotation] = field(default_factory=list)


# The nine transparency elements as annotation fields, in field order, and the
# eight flags among them; annotations, verdicts and report rows derive from these.
ELEMENT_FIELDS = tuple(f.name for f in fields(SegmentAnnotation))
FLAGS = tuple(name for name in ELEMENT_FIELDS if name != "countries")
flag_values = attrgetter(*FLAGS)
_flag_items = itemgetter(*FLAGS)  # the flags of an annotation JSON record
# the flags a labeled corpus names per segment; intention has a column of its own
LABELED_ELEMENTS = frozenset(FLAGS) - {"intention"}


def _elements_json(ann) -> dict:
    obj = {name: getattr(ann, name) for name in FLAGS}
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
    elements = dict(zip(FLAGS, _flag_items(obj)))
    for name, value in elements.items():
        if not isinstance(value, bool):
            raise json_type_error(name, "boolean", value, lineno)
    elements["countries"] = frozenset(countries)
    return elements


def _no_number(text: str):
    raise ValueError(f"an annotation record holds no JSON numbers, got {text}")


# Decodes one annotation record.  No field of a record is a number, so a
# number anywhere in one is an error; then no JSON 1 or 0 can reach a flag,
# where it would equal the true or false it stands for as a dict key.
_decode_annotation = json.JSONDecoder(parse_int=_no_number, parse_float=_no_number,
                                      parse_constant=_no_number).decode


def read_annotations(lines: Iterable[str]) -> dict[str, PolicyAnnotation]:
    """Parse `annotate` output, one JSON object per line, keyed by app id;
    an app id may have one record only.  Every key that `annotation_json`
    writes is required, in a record and in each of its segments; other keys
    are ignored.  A policy is `annotate_policy` of its segments; its keys must agree.

    Segments with equal values load as one shared `SegmentAnnotation`, which
    is safe because the class is frozen: a study repeats a few thousand
    distinct segment values hundreds of thousands of times.  A segment value
    is checked once, when first seen.  That is exact, because a record may
    hold no JSON number: two segments with equal JSON values hold the same
    JSON types too.
    """
    annotations: dict[str, PolicyAnnotation] = {}
    # by_key skips building an object for JSON values seen before; by_value
    # also unites values whose country lists differ only in order
    by_key: dict[tuple, SegmentAnnotation] = {}
    by_value: dict[SegmentAnnotation, SegmentAnnotation] = {}
    codes: set[str] = set()
    for lineno, obj in json_records(lines, _decode_annotation):
        try:
            app_id = json_string(obj, "app_id", lineno)
            records = obj["segments"]
            if not isinstance(records, list):
                raise json_type_error("segments", "array", records, lineno)
            segments = []
            for s in records:
                countries = s["countries"]
                if not isinstance(countries, list):
                    raise json_type_error("countries", "array", countries, lineno)
                key = (_flag_items(s), tuple(countries))
                seg = by_key.get(key)
                if seg is None:
                    seg = SegmentAnnotation(**_elements(s, lineno, codes))
                    seg = by_key[key] = by_value.setdefault(seg, seg)
                segments.append(seg)
            policy = annotate_policy(segments)
            countries = obj["countries"]
            if (_flag_items(obj) != flag_values(policy) or not isinstance(countries, list)
                    or set(countries) != policy.countries):
                stated = _elements(obj, lineno, codes)  # a wrongly typed element fails as such
                names = ", ".join(n for n in ELEMENT_FIELDS if stated[n] != getattr(policy, n))
                raise ParseError(f"the policy's {names} are not the OR of its segments", lineno)
            if app_id in annotations:
                # keeping either record would make verdicts depend on their order
                raise ParseError(f"repeated app_id {app_id!r}", lineno)
            annotations[app_id] = policy
        except KeyError as exc:
            raise ParseError(f"annotation record lacks field {exc}", lineno) from exc
        except TypeError as exc:
            raise ParseError(f"bad annotation record: {exc}", lineno) from exc
    return annotations


def annotate_policy(segment_annotations: list[SegmentAnnotation]) -> PolicyAnnotation:
    """Element-wise OR over segments; a policy discloses what any segment does."""
    segments = list(segment_annotations)
    distinct = {id(s): s for s in segments}.values()  # a reader shares equal segments
    return PolicyAnnotation(countries=frozenset().union(*(s.countries for s in distinct)),
                            segments=segments,
                            **dict(zip(FLAGS, map(any, zip(*map(flag_values, distinct))))))


@dataclass(frozen=True)
class SegmentAnnotator:
    """Bundles the models and data files needed to annotate policies."""

    intention_model: TextClassifier
    adequacy_model: TextClassifier
    rules: list[ProximityRule]
    dictionary: CountryDictionary
    rule_terms: frozenset[str] = field(init=False, repr=False)

    def __post_init__(self):
        for name in ("intention_model", "adequacy_model"):
            if getattr(self, name) is None:
                raise ValueError(f"SegmentAnnotator needs {name}, got None")
        object.__setattr__(self, "rule_terms", rule_terms(self.rules))

    def annotate_segment(self, segment_text: str) -> SegmentAnnotation:
        """Annotate one segment; layer-two elements stay off unless gated in."""
        stops = stopword_list()
        tokens: list[str] = []
        sentences = []
        folded = fold(segment_text)
        for words, stems in sentence_stems(folded):
            tokens += [stemmed for word, stemmed in zip(words, stems) if word not in stops]
            sentences.append(term_positions(stems, self.rule_terms))
        elements = elements_in_sentences(self.rules, sentences)
        flags = {name: name in elements for name in UNGATED_ELEMENTS}
        intention = self.intention_model
        grams = extract_ngrams(tokens, *intention.ngram)
        if not intention.predict_grams(grams):
            return SegmentAnnotation(**flags)
        flags.update((name, name in elements) for name in GATED_ELEMENTS)
        adequacy = self.adequacy_model
        if adequacy.ngram != intention.ngram:
            grams = extract_ngrams(tokens, *adequacy.ngram)
        return SegmentAnnotation(
            intention=True,
            countries=frozenset(detect_target_countries(folded.split(), self.dictionary)),
            adequacy=bool(adequacy.predict_grams(grams)),
            **flags,
        )
