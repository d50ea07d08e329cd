"""Transfer typing, verdict rules and app aggregation tests."""

import dataclasses
import datetime

import compliance_reference as reference
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from transferaudit.compliance import (
    AD,
    COMPLIANT,
    FD,
    ID,
    INTRA_EU,
    NO_TRANSFER,
    NOT_APPLICABLE,
    OD,
    POTENTIALLY_NON_COMPLIANT,
    T1_FIRST_PARTY,
    T2_ADEQUACY,
    T3_NO_ADEQUACY,
    AppAssessment,
    JurisdictionConfig,
    Verdict,
    classify_transfer_type,
    judge_event,
    judge_transfer,
    load_jurisdiction,
)
from transferaudit.compliance import _REQUIRED, _verdict_core
from transferaudit.countries import EU_MEMBERS_2020
from transferaudit.errors import ParseError
from transferaudit.flows import RecipientInfo, TransferEvent
from transferaudit.transparency import FLAGS, PolicyAnnotation

JURIS = load_jurisdiction()

THIRD = RecipientInfo(kind="third_party", owner="Owner", hq_country="US")
FIRST = RecipientInfo(kind="first_party")


def event(countries, recipient=THIRD, idle=False, app_id="app", domain="x.com"):
    return TransferEvent(app_id=app_id, recipient_domain=domain,
                         data_types=frozenset({"AAID"}),
                         dest_countries=frozenset(countries),
                         recipient=recipient, any_idle_flow=idle)


def policy(**kwargs):
    return PolicyAnnotation(**kwargs)


def test_default_jurisdiction_contents():
    assert JURIS.eu_set == EU_MEMBERS_2020
    assert len(JURIS.adequacy_set) == 12
    assert JURIS.eu_set & JURIS.adequacy_set == set()
    assert JURIS.assessment_date == datetime.date(2020, 7, 20)


def test_transfer_type_us_is_t3():
    assert classify_transfer_type(event({"US"}), "US", JURIS) == T3_NO_ADEQUACY


def test_transfer_type_japan_is_t2():
    assert classify_transfer_type(event({"JP"}), "JP", JURIS) == T2_ADEQUACY


def test_transfer_type_germany_is_intra_eu():
    assert classify_transfer_type(event({"DE"}), "DE", JURIS) == INTRA_EU
    assert classify_transfer_type(event({"DE"}, recipient=FIRST), "DE", JURIS) == INTRA_EU


def test_transfer_type_first_party_outside_eu():
    assert classify_transfer_type(event({"US"}, recipient=FIRST), "US", JURIS) == T1_FIRST_PARTY
    # first-party wins even in an adequacy country
    assert classify_transfer_type(event({"JP"}, recipient=FIRST), "JP", JURIS) == T1_FIRST_PARTY


def test_intra_eu_not_applicable():
    v = judge_transfer(INTRA_EU, event({"IE"}), "IE", policy(), JURIS)
    assert v.verdict_class == NOT_APPLICABLE


def test_t1_representative_disclosed_fd():
    v = judge_transfer(T1_FIRST_PARTY, event({"US"}, recipient=FIRST), "US",
                       policy(representative=True), JURIS)
    assert v.verdict_class == FD


def test_t1_representative_missing_od():
    v = judge_transfer(T1_FIRST_PARTY, event({"US"}, recipient=FIRST), "US",
                       policy(), JURIS)
    assert v.verdict_class == OD
    assert v.missing_elements == {"representative"}


def test_t3_full_disclosure():
    pol = policy(intention=True, countries=frozenset({"US", "RU"}),
                 bcr=True, copy_means=True)
    v = judge_transfer(T3_NO_ADEQUACY, event({"US"}), "US", pol, JURIS)
    assert v.verdict_class == FD
    assert v.missing_elements == frozenset()
    assert v.country_mismatch is None


def test_t3_idle_consent_is_ambiguous():
    pol = policy(intention=True, explicit_consent=True)
    v = judge_transfer(T3_NO_ADEQUACY, event({"RU"}, idle=True), "RU", pol, JURIS)
    assert v.verdict_class == AD
    assert "safeguard" in v.missing_elements
    assert "idle" in v.invalid_safeguard_reason


def test_t3_active_consent_is_valid():
    pol = policy(intention=True, countries=frozenset({"RU"}),
                 explicit_consent=True, copy_means=True)
    v = judge_transfer(T3_NO_ADEQUACY, event({"RU"}, idle=False), "RU", pol, JURIS)
    assert v.verdict_class == FD


def test_t3_country_mismatch_is_inconsistent():
    pol = policy(intention=True, countries=frozenset({"IL"}), adequacy=True)
    v = judge_transfer(T3_NO_ADEQUACY, event({"US"}), "US", pol, JURIS)
    assert v.verdict_class == ID
    assert v.country_mismatch == ("US", frozenset({"IL"}))


def test_t3_mismatch_outranks_missing_elements():
    # elements complete or not, a contradicted country set is ID
    pol = policy(intention=True, countries=frozenset({"SG"}))
    v = judge_transfer(T3_NO_ADEQUACY, event({"US"}), "US", pol, JURIS)
    assert v.verdict_class == ID


def test_t3_no_intention_is_omitted():
    v = judge_transfer(T3_NO_ADEQUACY, event({"US"}), "US", policy(), JURIS)
    assert v.verdict_class == OD
    assert "intention" in v.missing_elements


def test_t2_full_disclosure():
    pol = policy(intention=True, countries=frozenset({"JP"}), adequacy=True)
    v = judge_transfer(T2_ADEQUACY, event({"JP"}), "JP", pol, JURIS)
    assert v.verdict_class == FD


def test_t2_missing_adequacy_is_ambiguous():
    pol = policy(intention=True, countries=frozenset({"JP"}))
    v = judge_transfer(T2_ADEQUACY, event({"JP"}), "JP", pol, JURIS)
    assert v.verdict_class == AD
    assert v.missing_elements == {"adequacy"}


def test_t2_does_not_require_safeguards():
    pol = policy(intention=True, countries=frozenset({"CA"}), adequacy=True)
    v = judge_transfer(T2_ADEQUACY, event({"CA"}), "CA", pol, JURIS)
    assert v.verdict_class == FD


def test_privacy_shield_invalid_after_cutoff():
    pol = policy(intention=True, countries=frozenset({"US"}),
                 privacy_shield=True, copy_means=True)
    v = judge_transfer(T3_NO_ADEQUACY, event({"US"}), "US", pol, JURIS)
    assert v.verdict_class == AD
    assert "safeguard" in v.missing_elements
    assert "privacy shield" in v.invalid_safeguard_reason


def test_privacy_shield_valid_before_cutoff():
    before = JurisdictionConfig(
        eu_set=JURIS.eu_set, adequacy_set=JURIS.adequacy_set,
        invalidated_frameworks=JURIS.invalidated_frameworks,
        assessment_date=datetime.date(2020, 7, 1))
    pol = policy(intention=True, countries=frozenset({"US"}),
                 privacy_shield=True, copy_means=True)
    v = judge_transfer(T3_NO_ADEQUACY, event({"US"}), "US", pol, before)
    assert v.verdict_class == FD


def test_scc_shadows_invalid_privacy_shield():
    pol = policy(intention=True, countries=frozenset({"US"}),
                 scc=True, privacy_shield=True, copy_means=True)
    v = judge_transfer(T3_NO_ADEQUACY, event({"US"}), "US", pol, JURIS)
    assert v.verdict_class == FD


def test_idle_stage_only_nullifies_consent():
    # an idle-stage flow invalidates consent but not contractual safeguards
    pol = policy(intention=True, countries=frozenset({"US"}),
                 scc=True, copy_means=True)
    v = judge_transfer(T3_NO_ADEQUACY, event({"US"}, idle=True), "US", pol, JURIS)
    assert v.verdict_class == FD


def test_judge_event_multi_country():
    pol = policy(intention=True, countries=frozenset({"US"}),
                 scc=True, copy_means=True)
    verdicts = judge_event(event({"US", "RU", "IE"}), pol, JURIS)
    by_country = {v.country: v for v in verdicts}
    assert by_country["IE"].verdict_class == NOT_APPLICABLE
    assert by_country["US"].verdict_class == FD
    assert by_country["RU"].verdict_class == ID


def test_verdict_monotonic_toward_fd():
    # adding disclosed elements never moves a verdict away from FD
    order = {OD: 0, AD: 1, FD: 2}
    ev = event({"US"})
    configs = []
    for intention in (False, True):
        for has_countries in (False, True):
            for scc in (False, True):
                for copy_means in (False, True):
                    configs.append(dict(
                        intention=intention,
                        countries=frozenset({"US"}) if has_countries else frozenset(),
                        scc=scc, copy_means=copy_means))
    for cfg in configs:
        v1 = judge_transfer(T3_NO_ADEQUACY, ev, "US", policy(**cfg), JURIS)
        for key in ("intention", "scc", "copy_means"):
            if cfg[key]:
                continue
            upgraded = dict(cfg)
            upgraded[key] = True
            v2 = judge_transfer(T3_NO_ADEQUACY, ev, "US", policy(**upgraded), JURIS)
            assert order[v2.verdict_class] >= order[v1.verdict_class]


def test_adequacy_move_only_flips_t2_t3():
    ev = event({"KR"})
    with_kr = JurisdictionConfig(
        eu_set=JURIS.eu_set,
        adequacy_set=JURIS.adequacy_set | {"KR"},
        invalidated_frameworks=JURIS.invalidated_frameworks,
        assessment_date=JURIS.assessment_date)
    assert classify_transfer_type(ev, "KR", JURIS) == T3_NO_ADEQUACY
    assert classify_transfer_type(ev, "KR", with_kr) == T2_ADEQUACY
    first = event({"KR"}, recipient=FIRST)
    assert classify_transfer_type(first, "KR", JURIS) == T1_FIRST_PARTY
    assert classify_transfer_type(first, "KR", with_kr) == T1_FIRST_PARTY


def test_aggregate_compliant():
    verdicts = [
        Verdict(FD, event({"US"}, app_id="a", domain="x.com"), "US", T3_NO_ADEQUACY),
        Verdict(FD, event({"US"}, app_id="a", domain="y.com"), "US", T3_NO_ADEQUACY),
        Verdict(NOT_APPLICABLE, event({"IE"}, app_id="a", domain="z.com"), "IE", INTRA_EU),
    ]
    assert AppAssessment("a", verdicts).overall == COMPLIANT


def test_aggregate_one_bad_verdict_taints_app():
    verdicts = [
        Verdict(FD, event({"US"}, app_id="a", domain="x.com"), "US", T3_NO_ADEQUACY),
        Verdict(AD, event({"RU"}, app_id="a", domain="y.com"), "RU", T3_NO_ADEQUACY),
    ]
    assert AppAssessment("a", verdicts).overall == POTENTIALLY_NON_COMPLIANT


def test_aggregate_no_events():
    assert AppAssessment("a", []).overall == NO_TRANSFER


def test_jurisdiction_rejects_overlap():
    with pytest.raises(ValueError):
        JurisdictionConfig(eu_set=frozenset({"DE"}), adequacy_set=frozenset({"DE"}),
                           invalidated_frameworks=(), assessment_date=datetime.date.today())


def test_jurisdiction_file_errors(tmp_path):
    path = tmp_path / "juris.txt"
    path.write_text("[eu]\nDE\n", encoding="utf-8")
    with pytest.raises(ParseError):
        load_jurisdiction(path)


# A few destinations of each transfer type, and assessment dates on both
# sides of the privacy shield's invalidation (2020-07-16).
_DESTINATIONS = ["US", "RU", "JP", "IL", "DE", "IE"]
_DATES = [datetime.date(2020, 7, d) for d in (1, 15, 16, 17, 20)]
_recipients = st.sampled_from([THIRD, FIRST, RecipientInfo(kind="third_party")])
_flags = st.fixed_dictionaries({name: st.booleans() for name in (
    "intention", "adequacy", "scc", "bcr", "explicit_consent", "copy_means",
    "representative", "privacy_shield")})


@st.composite
def _cases(draw):
    dests = draw(st.frozensets(st.sampled_from(_DESTINATIONS), min_size=1, max_size=3))
    ev = event(dests, recipient=draw(_recipients), idle=draw(st.booleans()))
    country = draw(st.sampled_from(sorted(dests)))
    # the policy's countries hold the destination, miss it, or are empty
    where = draw(st.sampled_from(["in", "out", "empty"]))
    others = draw(st.frozensets(st.sampled_from(_DESTINATIONS), max_size=3)) - {country}
    countries = {"in": others | {country}, "out": others or frozenset({"CN"}),
                 "empty": frozenset()}[where]
    pol = policy(countries=countries, **draw(_flags))
    juris = dataclasses.replace(JURIS, assessment_date=draw(st.sampled_from(_DATES)))
    return ev, country, pol, juris


@settings(max_examples=400, deadline=None)
@given(_cases(), st.sampled_from([INTRA_EU, T1_FIRST_PARTY, T2_ADEQUACY, T3_NO_ADEQUACY]))
def test_judge_transfer_agrees_with_the_reference(case, ttype):
    ev, country, pol, juris = case
    verdict = judge_transfer(ttype, ev, country, pol, juris)
    expected = reference.judge_transfer(ttype, ev, country, pol, juris)
    assert type(verdict) is Verdict
    assert verdict._asdict() == expected._asdict()


@settings(max_examples=200, deadline=None)
@given(_cases())
def test_judge_event_agrees_with_the_reference(case):
    ev, _, pol, juris = case
    assert judge_event(ev, pol, juris) == reference.judge_event(ev, pol, juris)


def test_verdict_memo_keys_on_the_case_not_on_the_verdict():
    _verdict_core.cache_clear()
    pol = policy(intention=True, countries=frozenset({"US"}), scc=True)
    for i in range(300):
        ev = event({"US", "RU", "JP", "DE"}, recipient=(THIRD, FIRST)[i % 2],
                   idle=i % 3 == 0, app_id=f"app{i}", domain=f"d{i}.com")
        judge_event(ev, pol, JURIS)
    # at most 4 transfer types x the destination disclosed or not x the idle flag
    assert 0 < _verdict_core.cache_info().currsize <= 16


def test_required_elements_are_flags_or_derived():
    assert set(_REQUIRED) == {T1_FIRST_PARTY, T2_ADEQUACY, T3_NO_ADEQUACY}
    for names in _REQUIRED.values():
        assert names <= {*FLAGS, "target_countries", "safeguard"}
