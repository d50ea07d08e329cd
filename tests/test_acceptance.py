"""Acceptance suite: one test per exit criterion, each printing PASS on success.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Criterion 5 needs the public IT-100 corpus and is skipped unless
IT100_CORPUS_PATH points at it (all other criteria are hermetic).
"""

import math
import os
import random
import time
from pathlib import Path

import numpy as np
import pytest

from conftest import policy_text

from transferaudit.classifier import TextClassifier
from transferaudit.compliance import (
    AD,
    FD,
    ID,
    NOT_APPLICABLE,
    OD,
    assess_app,
    judge_event,
    load_jurisdiction,
)
from transferaudit.corpus import (
    BLANKLINE,
    INTENTION,
    LabeledSegment,
    PolicyDocument,
    PolicySegment,
    segment_policy,
    stratified_kfold,
)
from transferaudit.countries import (
    EU_MEMBERS_2020,
    detect_target_countries,
)
from transferaudit.features import TF, TFIDF, Vocabulary, extract_ngrams
from transferaudit.flows import (
    CatalogEntry,
    RecipientInfo,
    TransferEvent,
    build_transfer_events,
    scan_payload,
)
from transferaudit.linear import (
    LinearModel,
    TrainConfig,
    compute_metrics,
    modified_huber_dloss,
    modified_huber_loss,
)
from transferaudit.reports import MACHINE_LINES, TEXT_TABLE, emit_report, summarize
from transferaudit.rules import matched_elements, parse_rule
from transferaudit.training import (
    IdVocabulary,
    cross_validate_grams,
    labeled_grams,
    number_grams,
    train,
)
from transferaudit.transparency import PolicyAnnotation, annotate_policy

JURIS = load_jurisdiction()


def _ok(name):
    print(f"ACCEPTANCE {name}: PASS")


# -- criterion 1: verdict engine equals an independent truth-table oracle ----

def _oracle_verdict(kind, country_class, actual, policy, idle):
    """Independently coded decision table (Privacy Shield already invalid)."""
    if country_class == "eu":
        return NOT_APPLICABLE
    if kind == "first_party":
        return FD if policy.representative else OD
    if not policy.intention:
        return OD
    if country_class == "adequacy":
        complete = bool(policy.countries) and policy.adequacy
    else:
        safeguard = (policy.scc or policy.bcr
                     or (policy.explicit_consent and not idle))
        complete = bool(policy.countries) and safeguard and policy.copy_means
    if complete and actual in policy.countries:
        return FD
    if policy.countries and actual not in policy.countries:
        return ID
    return AD


def test_criterion_1_truth_table_equivalence():
    started = time.perf_counter()
    actual_for = {"eu": "DE", "adequacy": "JP", "other": "US"}
    country_states = {
        "eu": [frozenset()],
        "adequacy": [frozenset(), frozenset({"JP"}), frozenset({"IL"})],
        "other": [frozenset(), frozenset({"US"}), frozenset({"SG"})],
    }
    safeguards = ["none", "scc", "bcr", "consent_active", "consent_idle", "shield"]
    pairs = 0
    for kind in ("first_party", "third_party"):
        recipient = (RecipientInfo(kind="first_party") if kind == "first_party"
                     else RecipientInfo(kind="third_party", owner="O", hq_country="US"))
        for country_class in ("eu", "adequacy", "other"):
            actual = actual_for[country_class]
            if kind == "first_party" or country_class == "eu":
                combos = [dict(representative=r, intention=i)
                          for r in (False, True) for i in (False, True)]
            elif country_class == "adequacy":
                combos = [dict(intention=i, countries=c, adequacy=a, scc=s)
                          for i in (False, True) for c in country_states["adequacy"]
                          for a in (False, True) for s in (False, True)]
            else:
                combos = [dict(intention=i, countries=c, copy_means=m, safeguard=s)
                          for i in (False, True) for c in country_states["other"]
                          for m in (False, True) for s in safeguards]
            for combo in combos:
                sg = combo.pop("safeguard", "none")
                idle = sg == "consent_idle"
                policy = PolicyAnnotation(
                    intention=combo.get("intention", False),
                    countries=combo.get("countries", frozenset()),
                    adequacy=combo.get("adequacy", False),
                    scc=combo.get("scc", False) or sg == "scc",
                    bcr=sg == "bcr",
                    explicit_consent=sg in ("consent_active", "consent_idle"),
                    copy_means=combo.get("copy_means", False),
                    representative=combo.get("representative", False),
                    privacy_shield=sg == "shield",
                )
                event = TransferEvent(
                    app_id="a", recipient_domain="d.com",
                    data_types=frozenset({"AAID"}),
                    dest_countries=frozenset({actual}),
                    recipient=recipient, any_idle_flow=idle)
                verdicts = judge_event(event, policy, JURIS)
                assert len(verdicts) == 1
                expected = _oracle_verdict(kind, country_class, actual, policy, idle)
                assert verdicts[0].verdict_class == expected, (
                    kind, country_class, combo, sg, verdicts[0])
                pairs += 1
    elapsed = time.perf_counter() - started
    assert pairs <= 200
    assert elapsed < 5.0
    _ok(f"1 truth-table equivalence ({pairs} pairs, {elapsed:.2f}s)")


# -- criterion 2: the four worked verdict scenarios ---------------------------

SCENARIOS = {
    "com.viber.voip": "full disclosure",
    "pm.tap.vpn": "ambiguous via nullified consent",
    "com.forqan.tech.Jobs": "inconsistent country",
    "com.tellurionmobile.primalcraft": "omitted disclosure",
}


@pytest.fixture(scope="module")
def scenario_assessments(annotator, flow_records, catalog, owner_list, geo_table):
    events = build_transfer_events(flow_records, catalog, owner_list, geo_table)
    by_app = {}
    for event in events:
        by_app.setdefault(event.app_id, []).append(event)
    out = {}
    for app_id in SCENARIOS:
        doc = PolicyDocument(app_id, policy_text(app_id))
        segments = segment_policy(doc, BLANKLINE)
        policy = annotate_policy([annotator.annotate_segment(s.text) for s in segments])
        out[app_id] = (assess_app(app_id, by_app[app_id], policy, JURIS), policy)
    return out


def test_criterion_2_full_disclosure_scenario(scenario_assessments):
    assessment, policy = scenario_assessments["com.viber.voip"]
    classes = {v.event.recipient_domain: v.verdict_class for v in assessment.verdicts}
    assert classes["adjust.com"] == FD
    assert classes["viber.com"] == NOT_APPLICABLE
    assert policy.countries >= {"US", "RU", "AU", "BR"}
    assert policy.bcr and policy.copy_means
    assert assessment.overall == "compliant"
    _ok("2a full-disclosure scenario -> FD")


def test_criterion_2_nullified_consent_scenario(scenario_assessments):
    assessment, policy = scenario_assessments["pm.tap.vpn"]
    (verdict,) = assessment.verdicts
    assert verdict.verdict_class == AD
    assert policy.explicit_consent
    assert "consent" in verdict.invalid_safeguard_reason
    assert "idle" in verdict.invalid_safeguard_reason
    _ok("2b idle-stage consent scenario -> AD")


def test_criterion_2_inconsistent_scenario(scenario_assessments):
    assessment, policy = scenario_assessments["com.forqan.tech.Jobs"]
    (verdict,) = assessment.verdicts
    assert verdict.verdict_class == ID
    assert verdict.country_mismatch == ("US", frozenset({"IL"}))
    assert policy.adequacy
    _ok("2c inconsistent-country scenario -> ID")


def test_criterion_2_omitted_scenario(scenario_assessments):
    assessment, policy = scenario_assessments["com.tellurionmobile.primalcraft"]
    assert len(assessment.verdicts) == 2
    assert {v.verdict_class for v in assessment.verdicts} == {OD}
    assert not policy.intention
    _ok("2d omitted-disclosure scenario -> OD")


# -- criterion 3: TF-IDF against a brute-force reimplementation --------------

def test_criterion_3_tfidf_brute_force():
    rng = random.Random(33)
    alphabet = ["alpha", "beta", "gamma", "delta", "epsilon", "zeta", "eta",
                "theta", "iota", "kappa"]
    segments = [[rng.choice(alphabet) for _ in range(rng.randint(1, 12))]
                for _ in range(50)]
    gram_lists = [extract_ngrams(s, 1, 2) for s in segments]
    by_id = IdVocabulary(number_grams(gram_lists, [0] * len(segments), (1, 2)),
                         range(len(segments)), TFIDF)
    vocab = by_id.vocabulary()
    bundle = TextClassifier(ngram=(1, 2), vocabulary=vocab, scheme=TFIDF,
                            model=LinearModel(weights=(0.0,) * len(vocab), bias=0.0,
                                              config=TrainConfig()))
    n_docs = len(segments)

    def brute_grams(tokens):
        grams = list(tokens)
        grams += [f"{a} {b}" for a, b in zip(tokens, tokens[1:])]
        return grams

    doc_grams = [set(brute_grams(s)) for s in segments]
    for i, seg in enumerate(segments):
        expected = {}
        for gram in set(brute_grams(seg)):
            count = brute_grams(seg).count(gram)
            n_i = sum(1 for grams in doc_grams if gram in grams)
            weight = count * math.log(n_docs / n_i)
            if weight != 0.0:
                expected[vocab.feature_to_index[gram]] = weight
        idx, values = by_id.vector(i)
        # both weighings: by n-gram id, and by n-gram string
        for got in (dict(zip(idx.tolist(), values.tolist())),
                    dict(zip(*bundle.weigh(gram_lists[i])))):
            assert set(got) == set(expected)
            for feature, weight in expected.items():
                assert abs(got[feature] - weight) <= 1e-12
    _ok("3 TF-IDF brute-force equivalence (50 segments, 1e-12)")


# -- criterion 4: classifier sanity on separable data + gradient check -------

def test_criterion_4_classifier_sanity():
    rng = random.Random(41)
    filler = ["account", "settings", "cookies", "support", "billing", "update",
              "notification", "password", "profile", "report", "device", "help"]
    markers = ["transfer outside countries", "international transfer abroad"]
    samples = []
    for i in range(500):
        words = [rng.choice(filler) for _ in range(rng.randint(6, 12))]
        if i < 50:
            at = rng.randint(0, len(words))
            words[at:at] = rng.choice(markers).split()
        samples.append(LabeledSegment(PolicySegment("d", " ".join(words)),
                                      1 if i < 50 else 0))
    result = cross_validate_grams(labeled_grams(samples, (1, 2), INTENTION), TF,
                                  TrainConfig(alpha=1e-3, epochs=20, seed=4), k=5, seed=4)
    assert result.means["f_measure"] >= 0.95
    _ok(f"4a separable-corpus CV mean F={result.means['f_measure']:.3f} >= 0.95")

    eps = 1e-6
    checked = 0
    rng = random.Random(44)
    while checked < 50:
        w = [rng.uniform(-2, 2) for _ in range(5)]
        x = [rng.uniform(-2, 2) for _ in range(5)]
        y = rng.choice([-1.0, 1.0])
        z = y * sum(a * b for a, b in zip(w, x))
        if min(abs(z - 1.0), abs(z + 1.0)) < 1e-3:
            continue
        for j in range(5):
            hi = list(w)
            lo = list(w)
            hi[j] += eps
            lo[j] -= eps
            z_hi = y * sum(a * b for a, b in zip(hi, x))
            z_lo = y * sum(a * b for a, b in zip(lo, x))
            numeric = (modified_huber_loss(z_hi) - modified_huber_loss(z_lo)) / (2 * eps)
            analytic = modified_huber_dloss(z) * y * x[j]
            scale = max(abs(numeric), abs(analytic), 1e-8)
            assert abs(numeric - analytic) / scale < 1e-6
        checked += 1
    _ok("4b modified-Huber gradient vs central differences (1e-6)")


# -- criterion 5 (conditional): public IT-100 corpus reproduction ------------

IT100_PATH = os.environ.get("IT100_CORPUS_PATH", "")


@pytest.mark.skipif(not (IT100_PATH and Path(IT100_PATH).exists()),
                    reason="public IT-100 corpus not available "
                           "(set IT100_CORPUS_PATH to run)")
def test_criterion_5_corpus_level_reproduction():
    from transferaudit.corpus import load_corpus

    corpus = load_corpus(IT100_PATH)
    result = cross_validate_grams(labeled_grams(corpus, (1, 2), INTENTION), TF,
                                  TrainConfig(alpha=1e-3, epochs=50, seed=0), k=5, seed=0,
                                  fit_on_all=True)
    mean_f = result.means["f_measure"]
    assert 0.859 <= mean_f <= 0.959
    _ok(f"5 corpus-level F={mean_f:.3f} within 0.909 +/- 0.05")


# -- criterion 6: proximity rule engine ---------------------------------------

NEGATIVE_CONTROLS = [
    "We use cookies to improve our services.",
    "You can delete your account at any time.",
    "Our team reviews reports of abusive behaviour.",
    "Push notifications can be disabled in settings.",
    "We retain logs for ninety days.",
    "Advertising helps keep the service free.",
    "Your password is stored in hashed form.",
    "The model number of your device is collected.",
    "Clause fourteen of the terms covers termination.",
    "We publish transparency statistics every quarter.",
    "Children may not register without parental approval.",
    "Our mascot wears a standard uniform in every video.",
    "The binding of the printed manual is glued.",
    "Corporate events are announced on our blog.",
    "You may request deletion of your profile picture.",
    "The rules of the loyalty program changed last year.",
    "A model city is displayed in our lobby.",
    "Support tickets are answered within two days.",
    "We measure crash rates to improve stability.",
    "Your contact list is never uploaded.",
]


def test_criterion_6_rule_engine():
    scc = parse_rule("('contract'|'standard') w/4 ('model'|'clause')", "scc")
    bcr = parse_rule("('binding') w/3 ('corporate'|'rule')", "bcr")
    scc_sentence = ("We take appropriate steps and we implement measures such "
                    "as standard contractual clauses.")
    bcr_sentence = ("As part of our corporate group we rely on the group "
                    "binding corporate rules to legitimize transfers.")
    assert matched_elements([scc], scc_sentence)
    assert matched_elements([bcr], bcr_sentence)
    for control in NEGATIVE_CONTROLS:
        assert not matched_elements([scc], control), control
        assert not matched_elements([bcr], control), control
    # window distance: gap == N matches, gap == N+1 does not
    probe = parse_rule("('alpha') w/4 ('omega')")
    assert matched_elements([probe], "alpha one two three omega")
    assert not matched_elements([probe], "alpha one two three four omega")
    # same-sentence constraint
    assert not matched_elements([scc], "Our standards are high. The clause is separate.")
    _ok("6 rule engine: matches, 20 negative controls, window boundaries")


# -- criterion 7: country detection -------------------------------------------

def test_criterion_7_country_detection(country_dictionary):
    segment = ("Our business may require us to transfer your personal data to "
               "countries outside of the European Economic Area (EEA), "
               "including the Peoples Republic of China or Singapore.")
    got = detect_target_countries(segment.split(), country_dictionary)
    assert got == {"CN", "SG"}
    got = detect_target_countries("We rely on the Privacy Shield.".split(),
                                  country_dictionary)
    assert got == {"US"}
    got = detect_target_countries(
        "We transfer data to countries around the world.".split(),
        country_dictionary)
    assert got == set()

    eu_names = ["Germany", "France", "Spain", "Italy", "Ireland", "Sweden",
                "Poland", "Netherlands", "Austria", "Portugal", "Denmark",
                "Finland", "Belgium", "Norway", "Iceland", "Liechtenstein",
                "United Kingdom", "Luxembourg", "Greece", "Hungary"]
    rng = random.Random(77)
    for _ in range(200):
        names = [rng.choice(eu_names) for _ in range(rng.randint(1, 5))]
        sentence = f"We process data in {', '.join(names)}."
        got = detect_target_countries(sentence.split(), country_dictionary)
        assert got & EU_MEMBERS_2020 == set()
        assert got == set()
    _ok("7 country detection incl. 200 random EU-only sentences")


# -- criterion 8: payload scanning in all encodings ---------------------------

def test_criterion_8_payload_scanning():
    aaid = "38400000-8cf0-11bd-b23e-10b96e40000d"
    # oracle values computed with standard digest tools before the build
    forms = {
        "plain": aaid,
        "base64": "Mzg0MDAwMDAtOGNmMC0xMWJkLWIyM2UtMTBiOTZlNDAwMDBk",
        "md5": "5756ae9022b2ea1e47d84fead75220c8",
        "sha1": "4dfaa92388699ac6539885aef1719293879985bf",
        "sha256": "d4181bb455a74b3bc8b37c75ac9b2c702eb6b9930bd040b861403b31ca85634d",
    }
    catalog = (CatalogEntry("AAID", aaid),)
    for name, form in forms.items():
        payload = f"prefix {form} suffix".encode()
        assert scan_payload(payload, catalog) == {"AAID"}, name
    corrupted = forms["sha256"][:-1] + ("0" if forms["sha256"][-1] != "0" else "1")
    assert scan_payload(f"prefix {corrupted} suffix".encode(), catalog) == set()
    _ok("8 payload scanning: plain/base64/md5/sha1/sha256 + corruption miss")


# -- criterion 9: metric suite on hand-built confusion matrices ---------------

CONFUSIONS = [
    (2, 1, 1, 6), (5, 0, 0, 5), (0, 5, 5, 0), (1, 1, 1, 1), (10, 0, 5, 85),
    (0, 0, 10, 90), (7, 3, 2, 88), (0, 10, 0, 90), (50, 25, 25, 0), (3, 4, 5, 6),
]


def test_criterion_9_metric_suite():
    def ratio(a, b):
        return a / b if b else 0.0

    for tp, fp, fn, tn in CONFUSIONS:
        predictions = [1] * tp + [1] * fp + [0] * fn + [0] * tn
        labels = [1] * tp + [0] * fp + [1] * fn + [0] * tn
        m = compute_metrics(predictions, labels)
        precision = ratio(tp, tp + fp)
        recall = ratio(tp, tp + fn)
        npv = ratio(tn, tn + fn)
        specificity = ratio(tn, tn + fp)
        assert abs(m.precision - precision) <= 1e-12
        assert abs(m.recall - recall) <= 1e-12
        assert abs(m.f_measure - ratio(2 * precision * recall, precision + recall)) <= 1e-12
        assert abs(m.npv - npv) <= 1e-12
        assert abs(m.specificity - specificity) <= 1e-12
        assert abs(m.f_measure_negative - ratio(2 * npv * specificity, npv + specificity)) <= 1e-12
        assert abs(m.accuracy - (tp + tn) / (tp + fp + fn + tn)) <= 1e-12
        assert m.confusion == (tp, fp, fn, tn)
    _ok("9 metric suite on 10 confusion matrices (1e-12)")


# -- criterion 10: determinism and throughput ---------------------------------

def test_criterion_10_determinism_and_throughput(annotator, tmp_path):
    samples = [((np.array([0]), np.array([1.0])), 1), ((np.array([0]), np.array([-1.0])), 0)]
    cfg = TrainConfig(alpha=1e-3, epochs=25, seed=99)
    for name in ("a", "b"):
        TextClassifier(ngram=(1, 2), vocabulary=Vocabulary({"x": 0}, [1], 1), scheme=TF,
                       model=train(samples, cfg, dim=1)).save(tmp_path, name)
    assert (tmp_path / "a.model.tsv").read_bytes() == (tmp_path / "b.model.tsv").read_bytes()

    event = TransferEvent("a", "x.com", frozenset({"AAID"}), frozenset({"US"}),
                          RecipientInfo(kind="third_party", owner="O",
                                        hq_country="US"), False)
    policy = PolicyAnnotation(intention=True, countries=frozenset({"US"}),
                              scc=True, copy_means=True)
    assessments = [assess_app("a", [event], policy, JURIS)]
    summary = summarize(assessments, {"a": policy})
    for fmt in (TEXT_TABLE, MACHINE_LINES):
        assert emit_report(summary, fmt) == emit_report(summary, fmt)
    _ok("10a byte-identical models and reports under fixed seeds")

    rng = random.Random(10)
    pool = [
        "we may transfer your personal data to countries outside the european economic area",
        "your information may be transferred to and processed in other countries",
        "we use cookies to personalize content and measure our audience",
        "you can delete your account at any time from the settings menu",
        "push notifications can be disabled in your device settings",
        "we retain your data for as long as your account remains active",
        "personal data is transferred internationally under standard contractual clauses",
        "questions may be addressed to our representative in the european union",
        "analytics information is processed in japan and the united states",
        "we take reasonable security measures to protect your information",
    ]
    policies = [[rng.choice(pool) for _ in range(35)] for _ in range(1000)]
    started = time.perf_counter()
    for segments in policies:
        annotate_policy([annotator.annotate_segment(t) for t in segments])
    elapsed = time.perf_counter() - started
    assert elapsed < 100.0
    _ok(f"10b annotated 1,000 x ~35-segment policies in {elapsed:.1f}s < 100s")


# -- criterion 11: stratification property over 100 random corpora ------------

def test_criterion_11_stratification_property():
    rng = random.Random(111)
    for trial in range(100):
        n = rng.randint(10, 1000)
        ratio = rng.uniform(0.01, 0.5)
        positives = max(1, int(n * ratio))
        negatives = max(1, n - positives)
        samples = [LabeledSegment(PolicySegment("d", f"p{i}"), 1)
                   for i in range(positives)]
        samples += [LabeledSegment(PolicySegment("d", f"n{i}"), 0)
                    for i in range(negatives)]
        k = min(5, len(samples))
        if k < 2:
            continue
        ideal = positives // k
        labels = [s.intention_label for s in samples]
        for _, test_idx in stratified_kfold(labels, k, seed=trial):
            fold_pos = sum(1 for i in test_idx if i < positives)
            assert abs(fold_pos - ideal) <= 1, (trial, n, positives)
    _ok("11 stratification within +/-1 of ideal over 100 random corpora")
