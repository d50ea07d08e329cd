"""Report aggregation and emission tests."""

import dataclasses
import json

import pytest
from conftest import policy_annotations
from hypothesis import given
from hypothesis import strategies as st

from transferaudit.compliance import (
    AD,
    FD,
    INTRA_EU,
    NOT_APPLICABLE,
    T1_FIRST_PARTY,
    T3_NO_ADEQUACY,
    AppAssessment,
    Verdict,
)
from transferaudit.errors import AuditError
from transferaudit.flows import FIRST_PARTY_RECIPIENT, THIRD_PARTY, RecipientInfo, TransferEvent
from transferaudit.reports import ELEMENTS, MACHINE_LINES, TEXT_TABLE, emit_report, summarize
from transferaudit.transparency import (
    PolicyAnnotation,
    SegmentAnnotation,
    annotation_json,
    read_annotations,
)


def verdict(cls, app, ttype=T3_NO_ADEQUACY, domain="x.com", country="US",
            owner=None, hq=None):
    recipient = RecipientInfo(THIRD_PARTY, owner, hq) if owner else FIRST_PARTY_RECIPIENT
    event = TransferEvent(app, domain, frozenset({"AAID"}), frozenset({country}),
                          recipient, False)
    return Verdict(cls, event, country, ttype)


@pytest.fixture()
def sample_inputs():
    assessments = [
        AppAssessment("a", [verdict(FD, "a", owner="Adjust", hq="US")]),
        AppAssessment("b", [verdict(AD, "b", owner="Yandex LLC", hq="RU", country="RU"),
                            verdict(FD, "b", ttype=T1_FIRST_PARTY, domain="b.com")]),
        AppAssessment("c", []),
        AppAssessment("d", [verdict(NOT_APPLICABLE, "d", ttype=INTRA_EU, country="IE")]),
    ]
    annotations = {
        "a": PolicyAnnotation(intention=True, countries=frozenset({"US"}),
                              scc=True, copy_means=True,
                              segments=[SegmentAnnotation(intention=True),
                                        SegmentAnnotation(intention=True, scc=True)]),
        "b": PolicyAnnotation(intention=True,
                              segments=[SegmentAnnotation(intention=True)]),
        "c": PolicyAnnotation(segments=[SegmentAnnotation()]),
        "d": PolicyAnnotation(segments=[]),
    }
    return assessments, annotations


def test_element_rows_keep_their_order():
    # the report bytes depend on this order, which the annotation fields give
    assert ELEMENTS == ("representative", "intention", "target_country", "adequacy",
                        "scc", "bcr", "explicit_consent", "copy_means", "privacy_shield")


def test_summary_counts(sample_inputs):
    assessments, annotations = sample_inputs
    summary = summarize(assessments, annotations)
    assert summary.total_apps == 4
    assert summary.apps_with_transfers == 3
    assert summary.apps_eu_only == 1
    assert summary.apps_non_eu == 2
    assert summary.apps_per_type[T3_NO_ADEQUACY] == 2
    assert summary.apps_per_type[T1_FIRST_PARTY] == 1
    assert summary.verdict_counts[T3_NO_ADEQUACY][FD] == 1
    assert summary.verdict_counts[T3_NO_ADEQUACY][AD] == 1
    assert summary.overall_counts["compliant"] == 2
    assert summary.overall_counts["potentially_non_compliant"] == 1
    assert summary.overall_counts["no_personal_data_transfer"] == 1


def test_app_in_two_branches_counts_in_each(sample_inputs):
    assessments, annotations = sample_inputs
    summary = summarize(assessments, annotations)
    # app "b" touches both T1 and T3 branches but is one non-EU app
    per_branch = summary.apps_per_type
    assert per_branch[T1_FIRST_PARTY] + per_branch[T3_NO_ADEQUACY] == 3
    assert summary.apps_non_eu == 2


def test_element_apps_vs_statements(sample_inputs):
    assessments, annotations = sample_inputs
    summary = summarize(assessments, annotations)
    # "a" discloses intention in 2 segments and scc in 1
    assert summary.element_apps["intention"] == 2
    assert summary.element_statements["intention"] == 3
    assert summary.element_apps["scc"] == 1
    assert summary.element_statements["scc"] == 1


def test_third_party_tallies(sample_inputs):
    assessments, annotations = sample_inputs
    summary = summarize(assessments, annotations)
    assert summary.third_party_owners == {"Adjust": 1, "Yandex LLC": 1}
    assert summary.third_party_hq == {"US": 1, "RU": 1}


def test_verdict_conservation(sample_inputs):
    assessments, annotations = sample_inputs
    summary = summarize(assessments, annotations)
    judged = sum(len(a.verdicts) for a in assessments)
    counted = sum(sum(cls.values()) for cls in summary.verdict_counts.values())
    assert judged == counted


def test_reports_are_deterministic(sample_inputs):
    assessments, annotations = sample_inputs
    s1 = summarize(assessments, annotations)
    s2 = summarize(assessments, annotations)
    for fmt in (TEXT_TABLE, MACHINE_LINES):
        assert emit_report(s1, fmt) == emit_report(s2, fmt)


def test_machine_lines_format(sample_inputs):
    assessments, annotations = sample_inputs
    out = emit_report(summarize(assessments, annotations), MACHINE_LINES).decode()
    lines = [ln for ln in out.splitlines() if ln]
    assert all("=" in ln for ln in lines)
    assert "total_apps=4" in lines
    assert f"verdicts.{T3_NO_ADEQUACY}.{FD}=1" in lines


def test_empty_summary_header_only():
    summary = summarize([], {})
    out = emit_report(summary, TEXT_TABLE).decode()
    assert "apps assessed:        0" in out
    out = emit_report(summary, MACHINE_LINES).decode()
    assert "total_apps=0" in out


def test_unknown_format_rejected(sample_inputs):
    assessments, annotations = sample_inputs
    with pytest.raises(AuditError):
        emit_report(summarize(assessments, annotations), "yaml")


@given(st.lists(policy_annotations, max_size=5))
def test_segment_tallies_count_values_not_objects(policies):
    lines = [json.dumps(annotation_json(f"app{i}", p)) for i, p in enumerate(policies)]
    interned = read_annotations(lines)
    fresh = {app: dataclasses.replace(p, segments=[dataclasses.replace(s) for s in p.segments])
             for app, p in interned.items()}
    statements = summarize([], interned).element_statements
    assert statements == summarize([], fresh).element_statements
    segments = [s for p in policies for s in p.segments]
    assert statements["target_country"] == sum(bool(s.countries) for s in segments)
    assert statements["scc"] == sum(s.scc for s in segments)
