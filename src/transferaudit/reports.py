"""Aggregate verdicts and annotations into audit statistics and reports."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from itertools import chain
from operator import attrgetter
from typing import Mapping

from .compliance import (
    AD,
    FD,
    ID,
    INTRA_EU,
    NOT_APPLICABLE,
    OD,
    T1_FIRST_PARTY,
    T2_ADEQUACY,
    T3_NO_ADEQUACY,
    AppAssessment,
)
from .errors import AuditError
from .transparency import ELEMENT_FIELDS, PolicyAnnotation

TEXT_TABLE = "text_table"
MACHINE_LINES = "machine_lines"

TRANSFER_TYPES = (INTRA_EU, T1_FIRST_PARTY, T2_ADEQUACY, T3_NO_ADEQUACY)
VERDICT_CLASSES = (FD, AD, ID, OD, NOT_APPLICABLE)

# The element rows, apps disclosing them and segment statements: the
# annotation fields in order, with `countries` shown as `target_country`
ELEMENTS = tuple("target_country" if e == "countries" else e for e in ELEMENT_FIELDS)


_type_and_class = attrgetter("transfer_type", "verdict_class")
_recipient = attrgetter("event.recipient")
# an annotation's values for ELEMENTS, in order
_element_values = attrgetter(*ELEMENT_FIELDS)


def _tally_elements(counts: Counter) -> dict[str, int]:
    """Per element, the total count of the element value tuples that disclose it."""
    tally = dict.fromkeys(ELEMENTS, 0)
    for values, count in counts.items():
        for name, value in zip(ELEMENTS, values):
            if value:
                tally[name] += count
    return tally


@dataclass
class ReportSummary:
    total_apps: int = 0
    apps_with_transfers: int = 0
    apps_eu_only: int = 0
    apps_non_eu: int = 0
    apps_per_type: dict[str, int] = field(default_factory=dict)
    verdict_counts: dict[str, dict[str, int]] = field(default_factory=dict)
    overall_counts: dict[str, int] = field(default_factory=dict)
    element_apps: dict[str, int] = field(default_factory=dict)
    element_statements: dict[str, int] = field(default_factory=dict)
    third_party_owners: dict[str, int] = field(default_factory=dict)
    third_party_hq: dict[str, int] = field(default_factory=dict)


def summarize(assessments: list[AppAssessment],
              annotations: Mapping[str, PolicyAnnotation]) -> ReportSummary:
    """Branch totals, per-type verdict counts and element disclosure tallies.

    Apps count once per transfer-type branch they touch, so branch sums can
    exceed the non-EU total when one app performs several transfer types.
    """
    summary = ReportSummary(total_apps=len(assessments))
    summary.apps_per_type = {t: 0 for t in TRANSFER_TYPES}
    summary.verdict_counts = {t: {} for t in TRANSFER_TYPES}
    overall = Counter()
    type_class: Counter = Counter()
    apps_per_owner: Counter = Counter()
    owner_hq: dict[str, str] = {}
    for assessment in assessments:
        overall[assessment.overall] += 1
        verdicts = assessment.verdicts
        if not verdicts:
            continue
        summary.apps_with_transfers += 1
        types = {v.transfer_type for v in verdicts}
        for t in types:
            summary.apps_per_type[t] += 1
        if types == {INTRA_EU}:
            summary.apps_eu_only += 1
        else:
            summary.apps_non_eu += 1
        type_class.update(map(_type_and_class, verdicts))
        # a list, in verdict order: an owner's hq is the last one written
        owned = [r for r in map(_recipient, verdicts) if r.owner]
        apps_per_owner.update({r.owner for r in owned})
        owner_hq.update((r.owner, r.hq_country) for r in owned)
    for (t, cls), count in type_class.items():
        summary.verdict_counts[t][cls] = count
    summary.overall_counts = dict(overall)
    summary.third_party_owners = dict(apps_per_owner)
    hq_tally: Counter = Counter(owner_hq.values())
    summary.third_party_hq = dict(hq_tally)
    summary.element_apps = _tally_elements(Counter(map(_element_values, annotations.values())))
    # segments are counted by object, which a study shares between equal
    # values, and then by value, so the tally is exact either way
    segments = list(chain.from_iterable(ann.segments for ann in annotations.values()))
    ids = list(map(id, segments))
    by_id = dict(zip(ids, segments))
    statements: Counter = Counter()
    for seg_id, count in Counter(ids).items():
        statements[_element_values(by_id[seg_id])] += count
    summary.element_statements = _tally_elements(statements)
    return summary


def _pct(part: int, whole: int) -> str:
    return f"{100.0 * part / whole:.1f}%" if whole else "n/a"


def machine_lines(summary: ReportSummary) -> list[str]:
    lines = [
        f"total_apps={summary.total_apps}",
        f"apps_with_transfers={summary.apps_with_transfers}",
        f"apps_eu_only={summary.apps_eu_only}",
        f"apps_non_eu={summary.apps_non_eu}",
    ]
    for t in TRANSFER_TYPES:
        lines.append(f"apps_per_type.{t}={summary.apps_per_type.get(t, 0)}")
    for t in TRANSFER_TYPES:
        for cls in VERDICT_CLASSES:
            count = summary.verdict_counts.get(t, {}).get(cls, 0)
            lines.append(f"verdicts.{t}.{cls}={count}")
    for key in sorted(summary.overall_counts):
        lines.append(f"overall.{key}={summary.overall_counts[key]}")
    for e in ELEMENTS:
        lines.append(f"element_apps.{e}={summary.element_apps.get(e, 0)}")
    for e in ELEMENTS:
        lines.append(f"element_statements.{e}={summary.element_statements.get(e, 0)}")
    for owner in sorted(summary.third_party_owners):
        lines.append(f"third_party_apps.{owner}={summary.third_party_owners[owner]}")
    for hq in sorted(summary.third_party_hq):
        lines.append(f"third_party_hq.{hq}={summary.third_party_hq[hq]}")
    return lines


def text_table(summary: ReportSummary) -> list[str]:
    lines = ["Cross-border transfer audit summary",
             "===================================", ""]
    lines.append(f"apps assessed:        {summary.total_apps}")
    lines.append(f"apps with transfers:  {summary.apps_with_transfers} "
                 f"({_pct(summary.apps_with_transfers, summary.total_apps)})")
    lines.append(f"  EU-only:            {summary.apps_eu_only}")
    lines.append(f"  outside the EU:     {summary.apps_non_eu}")
    lines.append("")
    lines.append("verdicts per transfer type (event-country judgments)")
    header = f"  {'type':<24}" + "".join(f"{c:>6}" for c in VERDICT_CLASSES)
    lines.append(header)
    for t in TRANSFER_TYPES:
        row = f"  {t:<24}"
        for cls in VERDICT_CLASSES:
            row += f"{summary.verdict_counts.get(t, {}).get(cls, 0):>6}"
        lines.append(row + f"   apps={summary.apps_per_type.get(t, 0)}")
    lines.append("")
    lines.append("app outcomes (% of all apps / % of transferring apps)")
    for key in sorted(summary.overall_counts):
        count = summary.overall_counts[key]
        lines.append(f"  {key:<28}{count:>6} "
                     f"({_pct(count, summary.total_apps)} / "
                     f"{_pct(count, summary.apps_with_transfers)})")
    lines.append("")
    lines.append("transparency elements disclosed")
    lines.append(f"  {'element':<20}{'apps':>6}{'statements':>12}")
    for e in ELEMENTS:
        lines.append(f"  {e:<20}{summary.element_apps.get(e, 0):>6}"
                     f"{summary.element_statements.get(e, 0):>12}")
    if summary.third_party_owners:
        lines.append("")
        lines.append("third-party recipients (apps per owner)")
        for owner in sorted(summary.third_party_owners,
                            key=lambda o: (-summary.third_party_owners[o], o)):
            lines.append(f"  {owner:<28}{summary.third_party_owners[owner]:>6}")
    return lines


def emit_report(summary: ReportSummary, fmt: str = TEXT_TABLE) -> bytes:
    """Render a deterministic report; identical summaries give identical bytes."""
    if fmt == MACHINE_LINES:
        lines = machine_lines(summary)
    elif fmt == TEXT_TABLE:
        lines = text_table(summary)
    else:
        raise AuditError(f"unknown report format {fmt!r}")
    return ("\n".join(lines) + "\n").encode("utf-8")
