"""Output checker: stage outputs against the generator's ground truth.

An operation is a policy, a flow, a verdict line or a train task.  It fails
when its stage exits non-zero or its output breaks a rule the paper fixes:

- annotate: one record per policy with the planted segment count; a segment
  judged intention-positive names exactly its planted non-EU countries, any
  other segment none and no gated element; policy flags OR the segments.
- scan: the (app, SLD) events, their data types, countries and idle flag
  equal those of the flows that carry personal data to a resolvable country
  and a known recipient.
- check: each verdict line equals the reference judgment of its input event
  and policy (`reference_verdicts`); `report` agrees with `check` on the
  outcome tallies.
- train: the command exits 0 and writes five folds, or a model whose weight
  count matches its vocabulary.

Which of the classifier's calls are right is not fixed by the rules, so the
checker conditions on them instead of judging them.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

ELEMENTS = ("adequacy", "scc", "bcr", "explicit_consent", "copy_means",
            "representative", "privacy_shield")
GATED = ("adequacy", "scc", "bcr", "explicit_consent", "copy_means")


@dataclass
class Result:
    attempted: int = 0
    failed: int = 0
    notes: list[str] = field(default_factory=list)

    def fail(self, count: int, note: str) -> None:
        self.failed += count
        if len(self.notes) < 5:
            self.notes.append(note)

    def add(self, other: "Result") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.notes.extend(other.notes[:5 - len(self.notes)])


def _jsonl(path: Path) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def check_train(kfold_rc: int, kfold_out: Path, model_rcs: dict[str, int],
                models: Path) -> Result:
    result = Result(attempted=1 + len(model_rcs))
    folds = [ln for ln in kfold_out.read_text().splitlines() if ln.startswith("fold ")]
    if kfold_rc != 0 or len(folds) != 5:
        result.fail(1, f"train --kfold 5: exit {kfold_rc}, {len(folds)} folds")
    for task, rc in model_rcs.items():
        model, vocab = models / f"{task}.model.tsv", models / f"{task}.vocab.tsv"
        if rc != 0 or not model.exists() or not vocab.exists():
            result.fail(1, f"train {task}: exit {rc}")
            continue
        lines = model.read_text().splitlines()
        weights = sum(not ln.startswith("#") for ln in lines)
        features = sum(not ln.startswith("#") for ln in vocab.read_text().splitlines())
        if weights != features or not lines[-1].startswith("#bias="):
            result.fail(1, f"train {task}: {weights} weights for {features} features")
    return result


def guarded(check, attempted: int, *args) -> Result:
    """Run one check; output too malformed to read fails every operation."""
    try:
        return check(*args)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        result = Result(attempted=attempted)
        result.fail(attempted, f"{check.__name__}: unreadable output ({exc!r})")
        return result


def intention_agreement(output: Path, policies) -> float:
    """Share of segments whose intention call matches the planted label;
    recorded, never failed, since the rules do not fix the classifier."""
    agree = total = 0
    for rec, truth in zip(_jsonl(output), policies):
        for seg, kind in zip(rec["segments"], truth.segment_kinds):
            agree += seg["intention"] == (kind == "positive")
            total += 1
    return agree / total if total else 0.0


def check_annotate(rc: int, output: Path, policies) -> Result:
    result = Result(attempted=len(policies))
    if rc != 0:
        result.fail(len(policies), f"annotate exited {rc}")
        return result
    records = _jsonl(output)
    for i, truth in enumerate(policies):
        if i >= len(records):
            result.fail(len(policies) - i, f"annotate: {len(records)} records")
            break
        rec = records[i]
        segs = rec.get("segments", [])
        problem = None
        if rec.get("app_id") != truth.app_id:
            problem = f"app {rec.get('app_id')!r}, expected {truth.app_id!r}"
        elif len(segs) != len(truth.segment_countries):
            problem = f"{len(segs)} segments, expected {len(truth.segment_countries)}"
        else:
            for j, (seg, planted) in enumerate(zip(segs, truth.segment_countries)):
                expected = sorted(planted) if seg["intention"] else []
                if seg["countries"] != expected:
                    problem = f"segment {j}: countries {seg['countries']}, expected {expected}"
                    break
                if not seg["intention"] and any(seg[e] for e in GATED):
                    problem = f"segment {j}: gated element without intention"
                    break
            if problem is None:
                for flag in ("intention",) + ELEMENTS:
                    if rec[flag] != any(s[flag] for s in segs):
                        problem = f"policy flag {flag} is not the OR of its segments"
                if rec["countries"] != sorted({c for s in segs for c in s["countries"]}):
                    problem = "policy countries are not the union of its segments"
        if problem:
            result.fail(1, f"annotate {truth.app_id}: {problem}")
    return result


def check_scan(rc: int, output: Path, inputs) -> Result:
    truths = inputs.flow_truths
    result = Result(attempted=len(truths))
    if rc != 0:
        result.fail(len(truths), f"scan exited {rc}")
        return result
    expected = inputs.expected_events()
    actual = {}
    for ev in _jsonl(output):
        actual[(ev["app_id"], ev["recipient_domain"])] = (
            frozenset(ev["data_types"]), frozenset(ev["dest_countries"]), ev["any_idle_flow"])
    bad = {k for k in expected.keys() | actual.keys() if expected.get(k) != actual.get(k)}
    if bad:
        by_key = Counter((f.app_id, f.sld) for f in truths)
        count = sum(by_key.get(k, 1) for k in bad)
        key = min(bad)
        result.fail(count, f"scan event {key}: {actual.get(key)}, expected {expected.get(key)}")
    return result


def reference_verdicts(event: dict, policy: dict, juris) -> list[tuple]:
    """(app, domain, country, type, class, missing, mismatch?, reason?) per
    destination country, from the paper's typing and disclosure rules."""
    rows = []
    shield_valid = all(juris.assessment_date < fw.invalid_from
                       for fw in juris.invalidated_frameworks if fw.name == "privacy_shield")
    disclosed = frozenset(policy["countries"])
    for country in sorted(set(event["dest_countries"])):
        if country in juris.eu_set:
            ttype, cls, missing, reason = "intra_eu", "NA", frozenset(), False
        elif event.get("recipient_kind", "third_party") == "first_party":
            ttype, reason = "t1_first_party_non_eu", False
            cls, missing = (("FD", frozenset()) if policy["representative"]
                            else ("OD", frozenset({"representative"})))
        else:
            t2 = country in juris.adequacy_set
            ttype = "t2_adequacy" if t2 else "t3_no_adequacy"
            reason = False
            if not policy["intention"]:
                missing = {"intention", "target_countries"}
                missing |= {"adequacy"} if t2 else {"safeguard", "copy_means"}
                cls = "OD"
            else:
                missing = set() if disclosed else {"target_countries"}
                if t2:
                    missing |= set() if policy["adequacy"] else {"adequacy"}
                else:
                    consent = policy["explicit_consent"] and not event["any_idle_flow"]
                    shield = policy["privacy_shield"] and shield_valid
                    if not (policy["scc"] or policy["bcr"] or consent or shield):
                        missing.add("safeguard")
                        reason = policy["explicit_consent"] or policy["privacy_shield"]
                    if not policy["copy_means"]:
                        missing.add("copy_means")
                if not missing and country in disclosed:
                    cls = "FD"
                elif disclosed and country not in disclosed:
                    cls = "ID"
                else:
                    cls = "AD"
            missing = frozenset(missing)
        rows.append((event["app_id"], event["recipient_domain"], country, ttype, cls,
                     missing, cls == "ID", reason))
    return rows


_EMPTY_POLICY = dict({e: False for e in ELEMENTS}, intention=False, countries=[])


def _parse_verdict(line: str) -> tuple:
    app, domain, country, ttype, cls, missing, mismatch, reason = line.split("\t")
    return (app, domain, country, ttype, cls,
            frozenset() if missing == "-" else frozenset(missing.split(",")),
            mismatch != "-", reason != "-")


def check_verdicts(check_rc: int, verdicts: Path, report_rc: int, report: Path,
                   events: Path, annotations: Path, juris) -> Result:
    """Result over the verdict lines the events call for."""
    by_app: dict[str, list[dict]] = {}
    for ev in _jsonl(events):
        by_app.setdefault(ev["app_id"], []).append(ev)
    policies = {rec["app_id"]: rec for rec in _jsonl(annotations)}
    expected: dict[str, list[tuple]] = {}
    for app in sorted(by_app):
        policy = policies.get(app, _EMPTY_POLICY)
        expected[app] = [row for ev in by_app[app] for row in reference_verdicts(ev, policy, juris)]
    n_expected = sum(len(rows) for rows in expected.values())
    result = Result(attempted=n_expected)
    if check_rc != 0:
        result.fail(n_expected, f"check exited {check_rc}")
        return result
    actual: dict[str, list[tuple]] = {}
    overall: dict[str, str] = {}
    for line in verdicts.read_text(encoding="utf-8").splitlines():
        row = _parse_verdict(line)
        if row[1] == "-":
            overall[row[0]] = row[4]
        else:
            actual.setdefault(row[0], []).append(row)
    failed_apps: dict[str, int] = {}
    for app, rows in expected.items():
        got = actual.get(app, [])
        wrong = sum(a != e for a, e in zip(got, rows)) + abs(len(rows) - len(got))
        outcome = ("potentially_non_compliant"
                   if any(r[4] in ("AD", "ID", "OD") for r in rows) else "compliant")
        if overall.get(app) != outcome:
            wrong = len(rows)
        if wrong:
            failed_apps[app] = min(wrong, len(rows))
    for app in failed_apps:
        result.fail(failed_apps[app], f"check {app}: {actual.get(app)} != {expected[app]}")
    extra = set(actual) - set(expected)
    if extra:
        result.fail(sum(len(actual[a]) for a in extra),
                    f"check wrote verdicts for apps without events: {sorted(extra)[:3]}")

    # report must tally the same outcomes and verdicts that check wrote
    tallies = Counter()
    for rows in actual.values():
        for row in rows:
            tallies[f"verdicts.{row[3]}.{row[4]}"] += 1
    tallies.update(f"overall.{o}" for o in overall.values())
    no_transfer = len(set(policies) - set(by_app))
    if no_transfer:
        tallies["overall.no_personal_data_transfer"] = no_transfer
    tallies["total_apps"] = len(set(policies) | set(by_app))
    reported = {}
    if report_rc == 0:
        for line in report.read_text(encoding="utf-8").splitlines():
            key, _, value = line.partition("=")
            if key.startswith(("verdicts.", "overall.")) or key == "total_apps":
                if int(value):
                    reported[key] = int(value)
    if report_rc != 0 or reported != dict(tallies):
        diff = {k for k in reported.keys() | tallies.keys() if reported.get(k) != tallies.get(k)}
        result.failed = n_expected
        result.notes.append(f"report exit {report_rc}, disagrees with check on {sorted(diff)[:4]}")
    return result
