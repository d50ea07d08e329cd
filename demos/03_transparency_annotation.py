"""Layer-two extraction: countries, proximity rules and full annotation.

Shows the gazetteer scan, the proximity-rule grammar, and how the two-layer
annotator combines them with the linear classifiers on whole policies.
"""

import random

from transferaudit.corpus import ADEQUACY, INTENTION, LabeledSegment, PolicySegment
from transferaudit.countries import (
    detect_target_countries,
    load_country_dictionary,
)
from transferaudit.features import TF, TFIDF
from transferaudit.linear import TrainConfig
from transferaudit.rules import matched_elements, parse_rule
from transferaudit.training import fit_text_classifier
from transferaudit.transparency import SegmentAnnotator, default_rules

dictionary = load_country_dictionary()

print("== country detection ==")
for text in [
    "including the Peoples Republic of China or Singapore.",
    "We rely on the Privacy Shield framework.",
    "We transfer data to countries around the world.",
    "Our servers are in Germany and Japan.",
    "As a California-based company we keep data at home.",
]:
    found = detect_target_countries(text.split(), dictionary)
    print(f"  {text!r:70} -> {sorted(found) or '{}'}")

print("\n== proximity rules ==")
rule = parse_rule("('contract'|'standard') w/4 ('model'|'clause')", "scc")
print(f"rule clauses={[sorted(c) for c in rule.clauses]} windows={list(rule.windows)}")
for sentence in [
    "we implement measures such as standard contractual clauses",
    "our standards are high. The clause is separate.",
    "standard one two three four clauses",
]:
    print(f"  match={bool(matched_elements([rule], sentence))!s:5}  {sentence!r}")

print("\n== two-layer annotation ==")
# minimal training corpora for the two linear models
rng = random.Random(7)
intent_pos = [
    "we may transfer your personal data to countries outside the european economic area",
    "your information may be transferred to and processed in other countries",
    "we store and process personal information on servers located in the united states",
    "we operate internationally and transfer personal information across borders",
]
intent_neg = [
    "we use cookies to personalize content and measure our audience",
    "you can delete your account at any time from the settings menu",
    "we take reasonable security measures to protect your information",
    "push notifications can be disabled in your device settings",
    "advertising identifiers help us show relevant advertisements",
    "you may opt out of marketing emails at any time",
]
intent_corpus = (
    [LabeledSegment(PolicySegment("c", t), 1) for t in intent_pos * 3]
    + [LabeledSegment(PolicySegment("c", t), 0) for t in intent_neg * 3]
)
adeq_pos = [
    "israel is recognized by the european commission as providing an adequate level of protection",
    "the european commission has issued an adequacy decision covering japan",
    "transfers to canada are covered by an adequacy decision of the commission",
]
adeq_neg = intent_pos
adeq_corpus = (
    [LabeledSegment(PolicySegment("c", t), 1, frozenset({"adequacy"}))
     for t in adeq_pos * 3]
    + [LabeledSegment(PolicySegment("c", t), 1) for t in adeq_neg * 3]
)

annotator = SegmentAnnotator(
    intention_model=fit_text_classifier(
        intent_corpus, (1, 2), TF, TrainConfig(seed=1), INTENTION),
    adequacy_model=fit_text_classifier(
        adeq_corpus, (1, 2), TFIDF, TrainConfig(seed=2), ADEQUACY),
    rules=default_rules(),
    dictionary=dictionary,
)

policy_segments = [
    "We transfer and store your personal information on servers located in "
    "Singapore and the United States. We implement measures such as standard "
    "contractual clauses. A copy of those clauses can be obtained by "
    "contacting support.",
    "The analytics information we collect is transferred to and processed in "
    "Israel, which is recognized by the European Commission as having "
    "adequate protection.",
    "We use cookies to personalize content and measure our audience.",
]
policy = annotator.annotate_policy(policy_segments)
for i, seg in enumerate(policy.segments):
    print(f"segment {i}: intention={seg.intention} countries={sorted(seg.countries)} "
          f"adequacy={seg.adequacy} scc={seg.scc} copy={seg.copy_means}")
print(f"policy:    intention={policy.intention} countries={sorted(policy.countries)} "
      f"adequacy={policy.adequacy} scc={policy.scc} copy={policy.copy_means}")
