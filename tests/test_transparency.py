"""Two-layer annotation pipeline tests."""

import dataclasses
import json

import pytest
from conftest import policy_annotations, policy_text
from hypothesis import given
from hypothesis import strategies as st

from transferaudit.classifier import TextClassifier
from transferaudit.corpus import BLANKLINE, INTENTION, PolicyDocument, segment_policy
from transferaudit.countries import (
    EU_MEMBERS_2020,
    CountryDictionary,
    detect_target_countries,
    phrase_tokens,
)
from transferaudit.features import TF, extract_ngrams, stopword_list, tokenize
from transferaudit.linear import TrainConfig
from transferaudit.rules import RULE_ELEMENTS, matched_elements
from transferaudit.training import fit_grams, labeled_grams
from transferaudit.transparency import (
    ELEMENT_FIELDS,
    GATED_ELEMENTS,
    UNGATED_ELEMENTS,
    PolicyAnnotation,
    SegmentAnnotation,
    annotate_policy,
    annotation_json,
    read_annotations,
)

GATED = ("adequacy", "scc", "bcr", "explicit_consent", "copy_means")


def segments_of(app_id):
    doc = PolicyDocument(app_id, policy_text(app_id))
    return [s.text for s in segment_policy(doc, BLANKLINE)]


def test_rule_elements_and_classifier_elements_are_the_annotation_fields():
    named = [*RULE_ELEMENTS, "intention", "countries", "adequacy"]
    assert sorted(named) == sorted(ELEMENT_FIELDS)
    assert set(GATED_ELEMENTS) | set(UNGATED_ELEMENTS) == set(RULE_ELEMENTS)


def test_full_disclosure_segment(annotator):
    text = ("We transfer and store your personal information on servers located "
            "in the Peoples Republic of China or Singapore. We implement "
            "measures such as standard contractual clauses. A copy of those "
            "clauses can be obtained by contacting our support team.")
    ann = annotator.annotate_segment(text)
    assert ann.intention
    assert ann.countries == {"CN", "SG"}
    assert ann.scc
    assert ann.copy_means


def test_consent_only_segment(annotator):
    text = ("Some countries apply specific rules to the transfer of personal "
            "information. By clicking the accept button or otherwise using our "
            "services, you consent to the processing of your information.")
    ann = annotator.annotate_segment(text)
    assert ann.intention
    assert ann.countries == frozenset()
    assert ann.explicit_consent
    assert not ann.scc and not ann.bcr and not ann.copy_means


def test_adequacy_segment(annotator):
    text = ("The analytics information we collect is transferred to and "
            "processed in Israel, which is recognized by the European "
            "Commission as having adequate protection for personal data.")
    ann = annotator.annotate_segment(text)
    assert ann.intention
    assert ann.countries == {"IL"}
    assert ann.adequacy


def test_gating_blocks_layer_two(annotator):
    # mentions a country and consent wording but no transfer language
    text = "You consent to receiving our newsletter about events in Japan."
    ann = annotator.annotate_segment(text)
    assert not ann.intention
    assert ann.countries == frozenset()
    for name in GATED:
        assert getattr(ann, name) is False


def test_gating_invariant_with_stub_classifier(annotator):
    # force layer one to 0: every gated flag must stay off no matter the text
    from transferaudit.classifier import TextClassifier
    from transferaudit.features import TF, Vocabulary
    from transferaudit.linear import LinearModel, TrainConfig
    from transferaudit.transparency import SegmentAnnotator

    never = TextClassifier(
        ngram=(1, 1),
        vocabulary=Vocabulary({"x": 0}, [1], 1),
        scheme=TF,
        model=LinearModel(weights=(0.0,), bias=-1.0, config=TrainConfig()),
    )
    stub = SegmentAnnotator(
        intention_model=never, adequacy_model=annotator.adequacy_model,
        rules=annotator.rules, dictionary=annotator.dictionary)
    text = ("We transfer data to Japan under standard contractual clauses and "
            "you consent; a copy can be obtained from our representative in the "
            "European Union.")
    ann = stub.annotate_segment(text)
    assert not ann.intention
    assert ann.countries == frozenset()
    for name in GATED:
        assert getattr(ann, name) is False
    # ungated elements still run
    assert ann.representative


@pytest.mark.parametrize("name", ["intention_model", "adequacy_model"])
def test_annotator_refuses_a_missing_classifier(annotator, name):
    with pytest.raises(ValueError, match=f"^SegmentAnnotator needs {name}, got None$"):
        dataclasses.replace(annotator, **{name: None})


def test_ungated_elements_run_everywhere(annotator):
    text = "Questions may be addressed to our representative in the European Union."
    ann = annotator.annotate_segment(text)
    assert ann.representative
    text = "We participate in the Privacy Shield framework."
    ann = annotator.annotate_segment(text)
    assert ann.privacy_shield


def test_policy_or_aggregation():
    a = SegmentAnnotation(intention=True)
    b = SegmentAnnotation(intention=True, scc=True, countries=frozenset({"US"}))
    policy = annotate_policy([a, b])
    assert policy.intention and policy.scc
    assert policy.countries == {"US"}
    assert len(policy.segments) == 2


def test_policy_empty_annotations():
    policy = annotate_policy([SegmentAnnotation(), SegmentAnnotation()])
    assert policy == PolicyAnnotation(segments=policy.segments)
    assert not policy.intention and policy.countries == frozenset()


def test_policy_monotonicity(annotator):
    texts = segments_of("com.viber.voip")
    smaller = annotate_policy([annotator.annotate_segment(t) for t in texts[:1]])
    larger = annotate_policy([annotator.annotate_segment(t) for t in texts])
    for field in ("intention", "adequacy", "scc", "bcr", "explicit_consent",
                  "copy_means", "representative", "privacy_shield"):
        assert getattr(larger, field) >= getattr(smaller, field)
    assert smaller.countries <= larger.countries


def test_full_disclosure_policy_annotation(annotator):
    policy = annotate_policy([annotator.annotate_segment(t)
                              for t in segments_of("com.viber.voip")])
    assert policy.intention
    assert policy.countries >= {"US", "RU", "AU", "BR"}
    assert policy.bcr and policy.copy_means
    assert not policy.scc


def test_omitted_policy_annotation(annotator):
    policy = annotate_policy([annotator.annotate_segment(t)
                              for t in segments_of("com.tellurionmobile.primalcraft")])
    assert not policy.intention
    assert policy.countries == frozenset()
    for name in GATED:
        assert getattr(policy, name) is False


def test_segment_annotation_is_frozen(annotator):
    ann = annotator.annotate_segment("We use cookies.")
    assert dataclasses.is_dataclass(ann)
    assert isinstance(ann.countries, frozenset)


@given(policy_annotations)
def test_annotation_json_round_trip(policy):
    line = json.dumps(annotation_json("app", policy), sort_keys=True)
    assert read_annotations([line]) == {"app": policy}


@given(st.lists(policy_annotations, min_size=1, max_size=4))
def test_equal_segments_load_as_one_object(policies):
    lines = []
    for i, policy in enumerate(policies):
        obj = annotation_json(f"app{i}", policy)
        for seg in obj["segments"][::2]:
            seg["countries"].reverse()  # list order carries no meaning
        lines.append(json.dumps(obj))
    loaded = [s for p in read_annotations(lines).values() for s in p.segments]
    assert loaded == [s for p in policies for s in p.segments]
    for a in loaded:
        for b in loaded:
            assert (a == b) == (a is b)


def _reference_countries(segment_tokens_raw, dictionary):
    """The former gazetteer scan over the phrase tokens: try every phrase
    length up to the longest at every token."""
    tokens = phrase_tokens(" ".join(segment_tokens_raw))
    max_len = max(map(len, dictionary.phrases), default=1)
    found = set()
    i = 0
    n = len(tokens)
    while i < n:
        matched_len = 0
        for length in range(min(max_len, n - i), 0, -1):
            code = dictionary.phrases.get(tuple(tokens[i:i + length]))
            if code is not None:
                found.add(code)
                matched_len = length
                break
        i += matched_len or 1
    return found - EU_MEMBERS_2020


def _reference_annotation(annotator, text):
    """The composition the one-pass annotation must equal: the rule matcher,
    each classifier on the text, and the former gazetteer scan, each of
    which folds the text itself."""
    elements = matched_elements(annotator.rules, text)
    flags = {name: name in elements for name in UNGATED_ELEMENTS}
    if not annotator.intention_model.predict_text(text):
        return SegmentAnnotation(**flags)
    flags.update((name, name in elements) for name in GATED_ELEMENTS)
    return SegmentAnnotation(
        intention=True,
        countries=frozenset(_reference_countries(text.split(), annotator.dictionary)),
        adequacy=bool(annotator.adequacy_model.predict_text(text)),
        **flags)


@pytest.fixture(scope="module")
def annotators(annotator, intention_corpus):
    """The shared annotator, and one whose intention model has a narrower
    n-gram range than its adequacy model."""
    unigram_intention = fit_grams(labeled_grams(intention_corpus, (1, 1), INTENTION), TF,
                                  TrainConfig(alpha=1e-3, epochs=20, seed=3))
    return [annotator, dataclasses.replace(annotator, intention_model=unigram_intention)]


# words: intention and adequacy wording, rule terms, stop words (some whose
# stem is no stop word, as "only" -> "onli"), and country
# names of one to four tokens; half the segments add letters whose lowercase
# is not ASCII or is ASCII only after lowercasing (KELVIN SIGN -> "k", "İ" ->
# "i" + U+0307), and any character as a separator.  A SOFT HYPHEN inside a
# word is dropped, joining the word, for the rules and classifiers alike.
_ASCII_WORDS = [
    "we", "transfer", "transferred", "your", "personal", "data", "information",
    "countries", "outside", "processed", "servers", "located", "adequate", "adequacy",
    "decision", "commission", "european", "union", "standard", "contractual", "clauses",
    "binding", "corporate", "rules", "consent", "copy", "obtained", "contacting",
    "representative", "privacy", "shield", "safeguards", "Standard", "CLAUSES", "You",
    "the", "of", "and", "to", "in", "a", "is", "not", "or", "only", "does", "during", "very",
    "China", "Singapore,", "U.S.", "United States", "New Zealand", "peoples republic of china",
    "Israel", "Japan", "Germany", "Russia", "California-based", "(Brazil)",
]
_OTHER_WORDS = ["café", "naïve", "\u212a", "\u0130", "ß", "Ωmega", "'s", "trans\u00adfer",
                "coun\u00adtries", "per\u00adsonal", "stan\u00addard", "clau\u00adses"]
_ASCII_SEPARATORS = [" ", " ", " ", " ", ". ", "! ", "? ", "; ", ", ", "\n", "-", ""]


def _segments(words, separators):
    return st.lists(st.tuples(st.sampled_from(words), separators), max_size=30).map(
        lambda pairs: "".join(w + sep for w, sep in pairs))


_SEGMENTS = st.one_of(
    _segments(_ASCII_WORDS, st.sampled_from(_ASCII_SEPARATORS)),
    _segments(_ASCII_WORDS + _OTHER_WORDS,
              st.one_of(st.sampled_from(_ASCII_SEPARATORS + ["\u00a0"]), st.characters())))


@given(_SEGMENTS)
def test_annotate_segment_equals_reference_composition(annotators, text):
    for ann in annotators:
        assert ann.annotate_segment(text) == _reference_annotation(ann, text)


@given(_SEGMENTS)
def test_gazetteer_index_equals_former_scan(country_dictionary, text):
    tokens = text.split()
    assert detect_target_countries(tokens, country_dictionary) == \
        _reference_countries(tokens, country_dictionary)


@dataclasses.dataclass
class _GramRecorder(TextClassifier):
    """Predicts 1 and records the n-grams it is given."""

    seen: list = dataclasses.field(default_factory=list)

    def predict_grams(self, grams):
        self.seen.append(grams)
        return 1


@given(_SEGMENTS)
def test_classifiers_get_the_grams_of_tokenize(annotator, text):
    """Both classifiers get the n-grams of `tokenize`: stop words are dropped
    by word, not by stem, and each model gets its own n-gram range."""
    models = {}
    for ngram in [(1, 2), (1, 1), (2, 3)]:
        bundle = annotator.intention_model
        models[ngram] = _GramRecorder(ngram=ngram, vocabulary=bundle.vocabulary,
                                      scheme=bundle.scheme, model=bundle.model)
    for intention, adequacy in [((1, 2), (1, 2)), ((1, 1), (1, 2)), ((1, 2), (2, 3))]:
        models[intention].seen.clear()
        models[adequacy].seen.clear()
        dataclasses.replace(annotator, intention_model=models[intention],
                            adequacy_model=models[adequacy]).annotate_segment(text)
        expected = [extract_ngrams(tokenize(text), *ngram) for ngram in (intention, adequacy)]
        seen = models[intention].seen + (models[adequacy].seen if adequacy != intention else [])
        assert seen == expected


_PLACE_TOKENS = ["alpha", "beta", "gamma", "delta"]


@given(st.dictionaries(st.lists(st.sampled_from(_PLACE_TOKENS), min_size=1, max_size=4)
                       .map(" ".join), st.sampled_from(["US", "CN", "JP", "DE"]), max_size=12),
       st.lists(st.sampled_from(_PLACE_TOKENS + ["Alpha,", "(beta)", "x", "-"]), max_size=20))
def test_gazetteer_index_equals_former_scan_on_any_dictionary(surfaces, tokens):
    """Phrases that are prefixes of others, with other codes, overlap at will."""
    dictionary = CountryDictionary()
    for surface, code in surfaces.items():
        dictionary.add(code, surface)
    assert detect_target_countries(tokens, dictionary) == \
        _reference_countries(tokens, dictionary)


def test_reference_composition_on_ascii_and_other_text(annotators):
    """Fixed segments, ASCII or not, intention positive and negative: text
    that is not ASCII takes the one path of folded text, also where a word
    holds an accented letter."""
    texts = [
        "We transfer your personal data to servers in the United States; "
        "standard contractual clauses apply. You can obtain a copy.",
        "We transfer your personal data to servers in the United States; "
        "standard contractual claus\u00e9s apply. You can obtain a c\u00f6py.",
        "We transfer your personal data to \u212aorea and Singapore; "
        "binding corporate rules apply.",
        "We use cookies. Our representative in the European Union answers.",
        "\u0130srael and Japan receive your personal data; you consent to this.",
    ]
    seen = set()
    for text in texts:
        for ann in annotators:
            got = ann.annotate_segment(text)
            assert got == _reference_annotation(ann, text)
            seen.add((text.lower().isascii(), got.intention))
    assert seen >= {(True, True), (True, False), (False, True)}
    for ann in annotators:  # the accents fold away
        assert ann.annotate_segment(texts[1]) == ann.annotate_segment(texts[0])


def test_stop_words_are_in_the_generated_segments():
    assert {"the", "of", "and", "to", "in", "a", "is", "not", "or"} <= stopword_list()
