"""Shared fixtures: synthetic training corpora, trained classifiers, data files."""

from pathlib import Path

import pytest
from hypothesis import strategies as st

from transferaudit.corpus import ADEQUACY, INTENTION, LabeledSegment, PolicySegment
from transferaudit.countries import load_country_dictionary
from transferaudit.features import TF, TFIDF
from transferaudit.flows import load_catalog, load_flow_log, load_geo_table, load_owner_list
from transferaudit.linear import TrainConfig
from transferaudit.training import fit_grams, labeled_grams
from transferaudit.transparency import (
    FLAGS,
    SegmentAnnotation,
    SegmentAnnotator,
    annotate_policy,
    default_rules,
)

DATA = Path(__file__).parent / "data"

INTENTION_POSITIVES = [
    "we may transfer your personal data to countries outside the european economic area",
    "your personal information may be transferred to and processed in other countries",
    "we store and process personal information on servers located in the united states",
    "personal data is transferred internationally to our partners and group companies",
    "we transfer information abroad subject to appropriate safeguards",
    "your data may be transferred outside the eu to jurisdictions with different laws",
    "the information we collect is processed in countries outside your country of residence",
    "we may share and transfer personal data to recipients in other countries",
    "some countries to which we transfer personal information have different protection levels",
    "by using the services you consent to the transfer of your information to other countries",
    "we rely on binding corporate rules when we transfer data within our group",
    "transfers of personal data outside the european union are protected by standard contractual clauses",
    "analytics information is transferred to and stored on servers in other jurisdictions",
    "our processing may involve an international transfer of your personal data",
    "data collected in the eu may be transferred to a country without adequate protection",
    "information may be transferred to countries that are not covered by an adequacy decision",
    "we operate internationally and transfer personal information across borders",
    "your personal data will be processed in countries where our servers are located",
    "cross border transfers of personal data are carried out under appropriate safeguards",
    "the personal data we hold may be transferred to storage located outside the eea",
    "we transfer usage information to our processors in other countries for analytics",
    "where required we transfer your information to group entities in other countries",
]

INTENTION_NEGATIVES = [
    "we use cookies to personalize content and measure our audience",
    "you can delete your account at any time from the settings menu",
    "we retain your data for as long as your account remains active",
    "push notifications can be disabled in your device settings",
    "we collect your email address when you create an account",
    "advertising identifiers help us show relevant advertisements",
    "we take reasonable security measures to protect your information",
    "children under the age of thirteen may not use the services",
    "you have the right to access and rectify your personal data",
    "we update this privacy policy from time to time",
    "aggregated statistics do not identify you personally",
    "our services are provided free of charge with advertising",
    "payment information is handled by our billing provider",
    "you may opt out of marketing emails at any time",
    "log data includes your device model and operating system version",
    "we respond to data subject requests within one month",
    "cookies remember your preferences between visits",
    "analytics partners measure how you interact with our features",
    "we encrypt data in transit using transport layer security",
    "contact our support team for questions about this policy",
    "usage statistics help us improve the stability of the application",
    "we do not sell your personal information to anyone",
    "account recovery requires a verified email address or phone number",
    "crash reports include technical details about the failure",
    "you can request a copy of the data we hold about you",
    "location permissions are requested only for navigation features",
    "we display personalized recommendations based on your watch history",
    "session cookies expire when you close the browser",
    "our newsletter describes new features and promotions",
    "support requests are kept for quality assurance purposes",
    "the app requires camera access to scan documents",
    "dark mode preferences are stored on your device only",
    "we verify your age when legally required to do so",
    "subscription renewals can be cancelled through the store account",
    "diagnostic logs are deleted automatically after ninety days",
    "our terms of service govern your use of the application",
    "we anonymize ip addresses before storing request logs",
    "profile pictures are visible to other users of the service",
    "two factor authentication adds an extra layer of security",
    "we notify you about policy changes through the application",
]

ADEQUACY_POSITIVES = [
    "israel is recognized by the european commission as providing an adequate level of protection",
    "the european commission has issued an adequacy decision covering japan",
    "canada is deemed by the commission to provide adequate protection for personal data",
    "transfers to switzerland are covered by an adequacy decision of the european commission",
    "new zealand benefits from an adequacy finding by the european commission",
    "we transfer data to countries recognized by the commission as ensuring adequate protection",
    "the commission has determined that uruguay ensures an adequate level of protection",
    "personal data is sent to argentina which holds an eu adequacy decision",
    "andorra has been recognized as providing adequate data protection by the commission",
    "the destination country is covered by an adequacy decision under eu law",
]

ADEQUACY_NEGATIVES = [
    "we may transfer your personal data to countries outside the european economic area",
    "your personal information may be transferred to and processed in other countries",
    "we store and process personal information on servers located in the united states",
    "transfers of personal data are protected by standard contractual clauses",
    "we rely on binding corporate rules when we transfer data within our group",
    "by using the services you consent to the transfer of your information to other countries",
    "personal data is transferred internationally to our partners and group companies",
    "we operate internationally and transfer personal information across borders",
    "your data may be transferred outside the eu to jurisdictions with different laws",
    "cross border transfers of personal data are carried out under appropriate safeguards",
    "analytics information is transferred to and stored on servers in other jurisdictions",
    "we transfer information abroad and protect it with contractual commitments",
    "the personal data we hold may be transferred to storage located outside the eea",
    "we may share and transfer personal data to recipients in other countries",
    "where required we transfer your information to group entities in other countries",
]


def _build_corpus(positives, negatives, element=None):
    samples = []
    for text in positives:
        labels = frozenset({element}) if element else frozenset()
        samples.append(LabeledSegment(PolicySegment("corpus", text), 1, labels))
    for text in negatives:
        samples.append(LabeledSegment(PolicySegment("corpus", text), 0))
    return samples


@pytest.fixture(scope="session")
def intention_corpus():
    return _build_corpus(INTENTION_POSITIVES, INTENTION_NEGATIVES)


@pytest.fixture(scope="session")
def adequacy_corpus():
    # adequacy training set: all segments already disclose a transfer intention
    samples = []
    for text in ADEQUACY_POSITIVES:
        samples.append(LabeledSegment(PolicySegment("corpus", text), 1,
                                      frozenset({"adequacy"})))
    for text in ADEQUACY_NEGATIVES:
        samples.append(LabeledSegment(PolicySegment("corpus", text), 1))
    return samples


@pytest.fixture(scope="session")
def intention_clf(intention_corpus):
    return fit_grams(labeled_grams(intention_corpus, (1, 2), INTENTION), TF,
                     TrainConfig(alpha=1e-3, epochs=50, seed=7))


@pytest.fixture(scope="session")
def adequacy_clf(adequacy_corpus):
    return fit_grams(labeled_grams(adequacy_corpus, (1, 2), ADEQUACY), TFIDF,
                     TrainConfig(alpha=1e-3, epochs=50, seed=11))


@pytest.fixture(scope="session")
def annotator(intention_clf, adequacy_clf):
    return SegmentAnnotator(
        intention_model=intention_clf,
        adequacy_model=adequacy_clf,
        rules=default_rules(),
        dictionary=load_country_dictionary(),
    )


@pytest.fixture(scope="session")
def country_dictionary():
    return load_country_dictionary()


@pytest.fixture(scope="session")
def flow_records():
    return load_flow_log(DATA / "flows.jsonl")


@pytest.fixture(scope="session")
def catalog():
    return load_catalog(DATA / "catalog.tsv")


@pytest.fixture(scope="session")
def owner_list():
    return load_owner_list()


@pytest.fixture(scope="session")
def geo_table():
    return load_geo_table(DATA / "geo.tsv")


def policy_text(app_id: str) -> str:
    return (DATA / "policies" / f"{app_id}.txt").read_text(encoding="utf-8")


# Segment annotations over a small value space, so that generated segments
# repeat values, and the policies that `annotate` builds from them.
segment_annotations = st.builds(
    SegmentAnnotation, countries=st.frozensets(st.sampled_from(["US", "CN", "IL", "DE"]),
                                               max_size=3),
    **dict.fromkeys(FLAGS, st.booleans()))
policy_annotations = st.lists(segment_annotations, max_size=8).map(annotate_policy)
