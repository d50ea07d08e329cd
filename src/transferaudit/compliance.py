"""Transfer typing and per-transfer disclosure verdicts.

Each (event, destination country) pair gets exactly one transfer type and
one verdict, from the elements its type requires (`_REQUIRED`): the EU
representative for a first-party transfer (Art. 27); the intention, the
target countries and either the adequacy decision (Art. 45) or a valid
safeguard and the means to get a copy (Arts. 46-49) for a third-party one.
Evaluation order is normative: intra-EU legs are out of scope;
first-party transfers need only the EU-representative disclosure; for
third-party transfers an undisclosed intention is an omission, a disclosed
country set that misses the actual destination is an inconsistency, and
anything else with gaps is ambiguous.  Mismatch outranks incompleteness.
"""

from __future__ import annotations

import datetime
import functools
from dataclasses import dataclass, field
from typing import NamedTuple

from .countries import check_country_code
from .errors import ParseError
from .flows import FIRST_PARTY, TransferEvent
from .lines import data_lines
from .transparency import FLAGS, PolicyAnnotation, flag_values

INTRA_EU = "intra_eu"
T1_FIRST_PARTY = "t1_first_party_non_eu"
T2_ADEQUACY = "t2_adequacy"
T3_NO_ADEQUACY = "t3_no_adequacy"

FD = "FD"
AD = "AD"
ID = "ID"
OD = "OD"
NOT_APPLICABLE = "NA"

COMPLIANT = "compliant"
POTENTIALLY_NON_COMPLIANT = "potentially_non_compliant"
NO_TRANSFER = "no_personal_data_transfer"


@dataclass(frozen=True)
class FrameworkRule:
    name: str
    invalid_from: datetime.date


@dataclass(frozen=True)
class JurisdictionConfig:
    eu_set: frozenset[str]
    adequacy_set: frozenset[str]
    invalidated_frameworks: tuple[FrameworkRule, ...]
    assessment_date: datetime.date

    def __post_init__(self):
        overlap = self.eu_set & self.adequacy_set
        if overlap:
            raise ValueError(f"countries cannot be both EU and adequacy: {sorted(overlap)}")

    def framework_valid(self, name: str) -> bool:
        for fw in self.invalidated_frameworks:
            if fw.name == name:
                return self.assessment_date < fw.invalid_from
        return True


def load_jurisdiction(path=None) -> JurisdictionConfig:
    """Sectioned line format: [eu], [adequacy], [frameworks], [assessment_date].

    Lines are stripped of surrounding whitespace; every code is an ISO-3166
    alpha-2 code and every date is written `YYYY-MM-DD` (`iso_date`).
    """
    sections: dict[str, list[tuple[int, str]]] = {
        "eu": [], "adequacy": [], "frameworks": [], "assessment_date": []}
    current: list[tuple[int, str]] | None = None
    for lineno, raw in data_lines(path, "jurisdiction_2020_07.txt"):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1]
            if name not in sections:
                raise ParseError(f"unknown section [{name}]", lineno)
            current = sections[name]
            continue
        if current is None:
            raise ParseError("content before any section header", lineno)
        current.append((lineno, line))
    frameworks = []
    for lineno, entry in sections["frameworks"]:
        parts = entry.split("\t")
        if len(parts) != 3:
            raise ParseError(f"bad framework line {entry!r}", lineno)
        name, alias, invalid_from = parts
        if any(fw.name == name for fw in frameworks):
            # `framework_valid` would read only the first, so line order would decide
            raise ParseError(f"repeated framework {name!r}", lineno)
        check_country_code(alias, lineno)  # checked but not kept
        frameworks.append(FrameworkRule(name, iso_date(invalid_from, lineno)))
    dates = sections["assessment_date"]
    if len(dates) != 1:
        raise ParseError("need exactly one assessment_date",
                         dates[1][0] if dates else None)
    return JurisdictionConfig(
        eu_set=frozenset(check_country_code(c, n) for n, c in sections["eu"]),
        adequacy_set=frozenset(check_country_code(c, n) for n, c in sections["adequacy"]),
        invalidated_frameworks=tuple(frameworks),
        assessment_date=iso_date(dates[0][1], dates[0][0]),
    )


def iso_date(text: str, lineno: int | None = None) -> datetime.date:
    """The date that `text` writes as `YYYY-MM-DD`, the form `date.isoformat()`
    gives; `fromisoformat` alone also reads `YYYYMMDD` and week dates from
    Python 3.11 on."""
    try:
        date = datetime.date.fromisoformat(text)
    except ValueError:
        date = None
    if date is None or date.isoformat() != text:
        raise ParseError(f"{text!r} is not a date written YYYY-MM-DD", lineno)
    return date


def classify_transfer_type(event: TransferEvent, country: str,
                           juris: JurisdictionConfig) -> str:
    """One transfer type per (event, destination country)."""
    if country in juris.eu_set:
        return INTRA_EU
    if event.recipient.kind == FIRST_PARTY:
        return T1_FIRST_PARTY
    if country in juris.adequacy_set:
        return T2_ADEQUACY
    return T3_NO_ADEQUACY


class Verdict(NamedTuple):
    verdict_class: str
    event: TransferEvent
    country: str
    transfer_type: str
    missing_elements: frozenset[str] = frozenset()
    country_mismatch: tuple[str, frozenset[str]] | None = None
    invalid_safeguard_reason: str | None = None


# `target_countries` is disclosed when the policy names countries; `safeguard`
# when it names SCC, BCR, consent without an idle-stage flow or a valid shield.
_REQUIRED = {
    T1_FIRST_PARTY: frozenset({"representative"}),
    T2_ADEQUACY: frozenset({"intention", "target_countries", "adequacy"}),
    T3_NO_ADEQUACY: frozenset({"intention", "target_countries", "safeguard", "copy_means"}),
}


def _case(event: TransferEvent, policy: PolicyAnnotation, juris: JurisdictionConfig) -> tuple:
    """What a judgment reads of one (event, policy, jurisdiction), whatever the country."""
    return (*flag_values(policy), bool(policy.countries), event.any_idle_flow,
            juris.framework_valid("privacy_shield"))


@functools.cache
def _verdict_core(ttype: str, disclosed: bool,
                  case: tuple) -> tuple[str, frozenset[str], str | None]:
    """(class, missing elements, invalid-safeguard reason) of one case.

    `disclosed` says whether the policy's country set holds the destination.
    The key takes 4 transfer types times 2**12 bool combinations at most.
    """
    if ttype == INTRA_EU:
        return NOT_APPLICABLE, frozenset(), None
    *flags, has_countries, idle, shield_valid = case
    shown = {name for name, value in zip(FLAGS, flags) if value}
    required = _REQUIRED[ttype]
    if ttype == T1_FIRST_PARTY:
        missing = required - shown
        return (OD if missing else FD), missing, None
    if "intention" not in shown:
        return OD, required, None

    if has_countries:
        shown.add("target_countries")
    consent, shield = "explicit_consent" in shown, "privacy_shield" in shown
    if "scc" in shown or "bcr" in shown or (consent and not idle) or (shield and shield_valid):
        shown.add("safeguard")
    missing = required - shown
    reason = None
    if "safeguard" in missing:  # every safeguard the policy names is void
        reasons = []
        if consent:
            reasons.append("explicit consent nullified by idle-stage transfer")
        if shield:
            reasons.append("privacy shield framework invalidated")
        reason = "; ".join(reasons) or None

    if not missing and disclosed:
        return FD, frozenset(), None
    if has_countries and not disclosed:
        return ID, missing, reason
    return AD, missing, reason


def judge_event(event: TransferEvent, policy: PolicyAnnotation,
                juris: JurisdictionConfig) -> list[Verdict]:
    """Judge every destination country of one event, in sorted order."""
    case = _case(event, policy, juris)
    verdicts = []
    for country in sorted(event.dest_countries):
        ttype = classify_transfer_type(event, country, juris)
        verdict_class, missing, reason = _verdict_core(ttype, country in policy.countries, case)
        verdicts.append(Verdict(verdict_class, event, country, ttype, missing,
                                (country, policy.countries) if verdict_class == ID else None,
                                reason))
    return verdicts


@dataclass
class AppAssessment:
    app_id: str
    verdicts: list[Verdict] = field(default_factory=list)

    @property
    def overall(self) -> str:
        """Fully compliant only if every applicable judgment is a full disclosure."""
        if not self.verdicts:
            return NO_TRANSFER
        if any(v.verdict_class in (AD, ID, OD) for v in self.verdicts):
            return POTENTIALLY_NON_COMPLIANT
        return COMPLIANT


def assess_app(app_id: str, events: list[TransferEvent], policy: PolicyAnnotation,
               juris: JurisdictionConfig) -> AppAssessment:
    verdicts = []
    for event in events:
        verdicts.extend(judge_event(event, policy, juris))
    return AppAssessment(app_id=app_id, verdicts=verdicts)
