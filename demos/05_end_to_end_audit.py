"""End-to-end audit: four apps, four verdict classes.

Reproduces the canonical outcomes on synthetic apps: a full disclosure (FD),
an ambiguous disclosure whose consent is nullified by an idle-stage transfer
(AD), an inconsistent country disclosure (ID), and a complete omission (OD).
"""

import random

from transferaudit.compliance import assess_app, load_jurisdiction
from transferaudit.corpus import (
    ADEQUACY,
    BLANKLINE,
    INTENTION,
    LabeledSegment,
    PolicyDocument,
    PolicySegment,
    segment_policy,
)
from transferaudit.countries import load_country_dictionary
from transferaudit.features import TF, TFIDF
from transferaudit.flows import (
    CatalogEntry,
    FlowRecord,
    GeoTable,
    build_transfer_events,
    load_owner_list,
)
from transferaudit.linear import TrainConfig
from transferaudit.reports import TEXT_TABLE, emit_report, summarize
from transferaudit.training import fit_text_classifier
from transferaudit.transparency import SegmentAnnotator, default_rules

AAID = "38400000-8cf0-11bd-b23e-10b96e40000d"

POLICIES = {
    "app.full": (
        "We transfer and store your personal information on servers located in "
        "the United States and Brazil. We rely on our group binding corporate "
        "rules to legitimize these transfers. A copy of these safeguards can "
        "be obtained by contacting support.\n\nWe also use cookies."
    ),
    "app.consent": (
        "Some countries apply specific rules to the transfer of personal "
        "information. By using our services you consent to the processing of "
        "your information.\n\nPush notifications can be disabled at any time."
    ),
    "app.mismatch": (
        "The analytics information we collect is transferred to and processed "
        "in Israel, which is recognized by the European Commission as having "
        "adequate protection.\n\nWe collect your email address on signup."
    ),
    "app.silent": (
        "We use cookies to personalize content in our games.\n\n"
        "Contact our support team with any questions."
    ),
}

FLOWS = [
    FlowRecord("app.full", "active", "api.adjust.com", country="US",
               payload=f"id={AAID}".encode()),
    FlowRecord("app.consent", "idle", "metrics.mail.ru", country="RU",
               payload=f"id={AAID}".encode()),
    FlowRecord("app.mismatch", "active", "ads.vungle.com", country="US",
               payload=f"id={AAID}".encode()),
    FlowRecord("app.silent", "active", "sdk.smaato.net", country="US",
               payload=f"id={AAID}".encode()),
]

# --- train the two linear models on a small synthetic corpus ---------------
rng = random.Random(3)
intent_pos = [
    "we may transfer your personal data to countries outside the european economic area",
    "your information may be transferred to and processed in other countries",
    "we transfer and store personal information on servers in other countries",
    "some countries apply specific rules to the transfer of personal information",
]
intent_neg = [
    "we use cookies to personalize content and measure our audience",
    "you can delete your account at any time from the settings menu",
    "push notifications can be disabled in your device settings",
    "we collect your email address when you create an account",
    "contact our support team with any questions about this policy",
    "we take reasonable security measures to protect your information",
]
adeq_pos = [
    "israel is recognized by the european commission as providing an adequate level of protection",
    "the european commission has issued an adequacy decision covering japan",
    "transfers to canada are covered by an adequacy decision of the commission",
]

intent_corpus = (
    [LabeledSegment(PolicySegment("c", t), 1) for t in intent_pos * 4]
    + [LabeledSegment(PolicySegment("c", t), 0) for t in intent_neg * 4]
)
adeq_corpus = (
    [LabeledSegment(PolicySegment("c", t), 1, frozenset({"adequacy"}))
     for t in adeq_pos * 4]
    + [LabeledSegment(PolicySegment("c", t), 1) for t in intent_pos * 4]
)

annotator = SegmentAnnotator(
    intention_model=fit_text_classifier(
        intent_corpus, (1, 2), TF, TrainConfig(seed=20), INTENTION),
    adequacy_model=fit_text_classifier(
        adeq_corpus, (1, 2), TFIDF, TrainConfig(seed=21), ADEQUACY),
    rules=default_rules(),
    dictionary=load_country_dictionary(),
)

# --- scan flows into events --------------------------------------------------
catalog = (CatalogEntry("AAID", AAID),)
events = build_transfer_events(FLOWS, catalog, load_owner_list(), GeoTable())
events_by_app = {}
for event in events:
    events_by_app.setdefault(event.app_id, []).append(event)

# --- judge each app against its policy --------------------------------------
juris = load_jurisdiction()
print(f"jurisdiction: assessment date {juris.assessment_date}, "
      f"{len(juris.eu_set)} EU codes, {len(juris.adequacy_set)} adequacy codes\n")

assessments = []
annotations = {}
for app_id, policy_text in POLICIES.items():
    doc = PolicyDocument(app_id, policy_text)
    segments = segment_policy(doc, BLANKLINE)
    policy = annotator.annotate_policy([s.text for s in segments])
    annotations[app_id] = policy
    assessment = assess_app(app_id, events_by_app.get(app_id, []), policy, juris)
    assessments.append(assessment)
    for v in assessment.verdicts:
        extra = ""
        if v.country_mismatch:
            actual, disclosed = v.country_mismatch
            extra = f" mismatch {actual} vs {sorted(disclosed)}"
        if v.invalid_safeguard_reason:
            extra += f" ({v.invalid_safeguard_reason})"
        print(f"{app_id:<14} {v.event.recipient_domain:<12} {v.country} "
              f"{v.transfer_type:<22} -> {v.verdict_class}{extra}")
    print(f"{app_id:<14} overall: {assessment.overall}\n")

# --- aggregate report --------------------------------------------------------
summary = summarize(assessments, annotations)
print(emit_report(summary, TEXT_TABLE).decode())
