"""The verdict rules as they read before judgments were memoized, kept as a
test reference: one verdict is built straight from the policy, the event and
the jurisdiction, with no shared state between judgments."""

from transferaudit.compliance import (
    AD,
    FD,
    ID,
    INTRA_EU,
    NOT_APPLICABLE,
    OD,
    T1_FIRST_PARTY,
    T2_ADEQUACY,
    AppAssessment,
    Verdict,
    classify_transfer_type,
)
from transferaudit.transparency import PolicyAnnotation


def safeguard_validity(policy, event, juris):
    if policy.scc or policy.bcr:
        return True, None
    reasons = []
    if policy.explicit_consent:
        if not event.any_idle_flow:
            return True, None
        reasons.append("explicit consent nullified by idle-stage transfer")
    if policy.privacy_shield:
        if juris.framework_valid("privacy_shield"):
            return True, None
        reasons.append("privacy shield framework invalidated")
    return False, "; ".join(reasons) or None


def judge_transfer(ttype, event, country, policy, juris):
    base = dict(event=event, country=country, transfer_type=ttype)
    if ttype == INTRA_EU:
        return Verdict(NOT_APPLICABLE, **base)
    if ttype == T1_FIRST_PARTY:
        if policy.representative:
            return Verdict(FD, **base)
        return Verdict(OD, missing_elements=frozenset({"representative"}), **base)

    if not policy.intention:
        missing = {"intention", "target_countries"}
        if ttype == T2_ADEQUACY:
            missing.add("adequacy")
        else:
            missing.update(("safeguard", "copy_means"))
        return Verdict(OD, missing_elements=frozenset(missing), **base)

    missing = set()
    reason = None
    if not policy.countries:
        missing.add("target_countries")
    if ttype == T2_ADEQUACY:
        if not policy.adequacy:
            missing.add("adequacy")
    else:
        valid, reason = safeguard_validity(policy, event, juris)
        if not valid:
            missing.add("safeguard")
        if not policy.copy_means:
            missing.add("copy_means")

    if not missing and country in policy.countries:
        return Verdict(FD, **base)
    if policy.countries and country not in policy.countries:
        return Verdict(ID, missing_elements=frozenset(missing),
                       country_mismatch=(country, policy.countries),
                       invalid_safeguard_reason=reason, **base)
    return Verdict(AD, missing_elements=frozenset(missing),
                   invalid_safeguard_reason=reason, **base)


def judge_event(event, policy, juris):
    return [judge_transfer(classify_transfer_type(event, country, juris), event, country,
                           policy, juris)
            for country in sorted(event.dest_countries)]


def verdict_line(v):
    mismatch = ""
    if v.country_mismatch:
        actual, disclosed = v.country_mismatch
        mismatch = f"{actual}!={','.join(sorted(disclosed))}"
    return "\t".join([
        v.event.app_id, v.event.recipient_domain, v.country, v.transfer_type,
        v.verdict_class,
        ",".join(sorted(v.missing_elements)) or "-",
        mismatch or "-",
        v.invalid_safeguard_reason or "-",
    ])


def check_lines(events_by_app, annotations, juris):
    """The lines `check` prints for these events and annotations."""
    lines = []
    for app_id in sorted(events_by_app):
        policy = annotations.get(app_id, PolicyAnnotation())
        verdicts = [v for event in events_by_app[app_id]
                    for v in judge_event(event, policy, juris)]
        lines += map(verdict_line, verdicts)
        lines.append(f"{app_id}\t-\t-\t-\t{AppAssessment(app_id, verdicts).overall}\t-\t-\t-")
    return lines
