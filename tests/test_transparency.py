"""Two-layer annotation pipeline tests."""

import dataclasses
import json

from conftest import policy_annotations, policy_text
from hypothesis import given
from hypothesis import strategies as st

from transferaudit.corpus import BLANKLINE, PolicyDocument, segment_policy
from transferaudit.transparency import (
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
    import numpy as np

    from transferaudit.classifier import TextClassifier
    from transferaudit.features import TF, Vocabulary
    from transferaudit.linear import LinearModel, TrainConfig
    from transferaudit.transparency import SegmentAnnotator

    never = TextClassifier(
        ngram=(1, 1),
        vocabulary=Vocabulary({"x": 0}, [1], 1),
        scheme=TF,
        model=LinearModel(weights=np.zeros(1), bias=-1.0, config=TrainConfig()),
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
    smaller = annotator.annotate_policy(texts[:1])
    larger = annotator.annotate_policy(texts)
    for field in ("intention", "adequacy", "scc", "bcr", "explicit_consent",
                  "copy_means", "representative", "privacy_shield"):
        assert getattr(larger, field) >= getattr(smaller, field)
    assert smaller.countries <= larger.countries


def test_full_disclosure_policy_annotation(annotator):
    policy = annotator.annotate_policy(segments_of("com.viber.voip"))
    assert policy.intention
    assert policy.countries >= {"US", "RU", "AU", "BR"}
    assert policy.bcr and policy.copy_means
    assert not policy.scc


def test_omitted_policy_annotation(annotator):
    policy = annotator.annotate_policy(segments_of("com.tellurionmobile.primalcraft"))
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
