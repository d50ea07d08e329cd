"""End-to-end CLI tests over the fixture data."""

import contextlib
import dataclasses
import datetime
import functools
import gc
import io
import json
import multiprocessing
import os
import random
import shutil
import subprocess
import sys
import tempfile
from collections import Counter
from importlib import resources
from pathlib import Path

import compliance_reference as reference
import pytest
from conftest import DATA, policy_annotations
from hypothesis import example, given, settings
from hypothesis import strategies as st

from transferaudit import cli, parallel, training
from transferaudit.cli import main
from transferaudit.compliance import NO_TRANSFER, _verdict_core, load_jurisdiction
from transferaudit.corpus import (
    ADEQUACY,
    TASKS,
    LabeledSegment,
    PolicySegment,
    load_corpus,
    save_corpus,
)
from transferaudit.features import TF
from transferaudit.flows import FIRST_PARTY, THIRD_PARTY, read_events
from transferaudit.linear import TrainConfig
from transferaudit.transparency import ELEMENT_FIELDS, FLAGS, annotation_json, read_annotations


@pytest.fixture(scope="module")
def model_dir(tmp_path_factory, intention_corpus, adequacy_corpus):
    """Train intention + adequacy models through the CLI once per module."""
    base = tmp_path_factory.mktemp("cli")
    icorp = base / "intention.tsv"
    acorp = base / "adequacy.tsv"
    save_corpus(intention_corpus, icorp)
    save_corpus(adequacy_corpus, acorp)
    models = base / "models"
    assert main(["train", "--task", "intention", "--corpus", str(icorp),
                 "--ngram", "1-2", "--weighting", "tf", "--seed", "7",
                 "--model-out", str(models)]) == 0
    assert main(["train", "--task", "adequacy", "--corpus", str(acorp),
                 "--ngram", "1-2", "--weighting", "tfidf", "--seed", "11",
                 "--model-out", str(models)]) == 0
    return models


def test_segment_command(tmp_path, capsys):
    policy = tmp_path / "pol.txt"
    policy.write_text("We transfer data. We use cookies.", encoding="utf-8")
    assert main(["segment", str(policy)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out == ["We transfer data", "We use cookies"]


def test_segment_missing_file_is_input_error(capsys):
    assert main(["segment", "/nonexistent/policy.txt"]) == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("command", [
    ["segment", "{dir}"],
    ["scan", "--flows", "{dir}", "--catalog", str(DATA / "catalog.tsv")],
], ids=["segment", "scan"])
def test_directory_input_is_input_error(tmp_path, capsys, command):
    assert main([arg.format(dir=tmp_path) for arg in command]) == 1
    assert capsys.readouterr().err.startswith("error: ")


def test_train_reports_cv_metrics(tmp_path, capsys, intention_corpus):
    corpus_path = tmp_path / "corpus.tsv"
    save_corpus(intention_corpus, corpus_path)
    assert main(["train", "--corpus", str(corpus_path), "--kfold", "5",
                 "--seed", "7"]) == 0
    out = capsys.readouterr().out
    assert "fold 0:" in out and "mean:" in out


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_non_finite_alpha_fails_before_training(tmp_path, capsys, intention_corpus, value):
    corpus_path = tmp_path / "corpus.tsv"
    save_corpus(intention_corpus, corpus_path)
    models = tmp_path / "models"
    assert main(["train", "--corpus", str(corpus_path), "--kfold", "5",
                 "--model-out", str(models), f"--alpha={value}"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: alpha must be positive and finite" in captured.err
    assert not models.exists()


def test_kfold_and_model_out_tokenize_each_sample_once(tmp_path, capsys, monkeypatch,
                                                       intention_corpus):
    corpus_path = tmp_path / "corpus.tsv"
    save_corpus(intention_corpus, corpus_path)
    args = ["train", "--corpus", str(corpus_path), "--seed", "7"]
    assert main([*args, "--kfold", "5"]) == 0
    kfold_out = capsys.readouterr().out
    assert main([*args, "--model-out", str(tmp_path / "alone")]) == 0
    capsys.readouterr()

    calls = Counter()
    real = training.tokenize

    def counting(text):
        calls["tokenize"] += 1
        return real(text)

    monkeypatch.setattr(training, "tokenize", counting)
    assert main([*args, "--kfold", "5", "--model-out", str(tmp_path / "both")]) == 0
    assert calls["tokenize"] == len(intention_corpus) == 62
    # sharing the n-grams changes nothing in what either step writes
    assert capsys.readouterr().out.startswith(kfold_out)
    for name in ("intention.model.tsv", "intention.vocab.tsv"):
        assert (tmp_path / "both" / name).read_bytes() == (tmp_path / "alone" / name).read_bytes()


def _order_corpus_lines() -> list[str]:
    """Corpus lines that repeat texts: some lines are equal, and some equal
    texts differ in label, element labels or document."""
    rng = random.Random(5)
    texts = ["we transfer your data to servers abroad", "we use cookies",
             "data is stored in the united states", "delete your account at any time",
             "an adequacy decision covers japan", "partners outside the eu process data",
             "you can change the settings", "we share data with partners"]
    lines = []
    for _ in range(40):
        text = rng.choice(texts)
        intention = int(rng.random() < 0.6)
        elements = "adequacy" if intention and rng.random() < 0.5 else "-"
        lines.append(f"{rng.choice('ab')}\t{intention}\t{elements}\t{text}\n")
    return lines


def _train_outcome(corpus_lines: list[str], task: str) -> tuple[str, dict[str, bytes]]:
    """`train --kfold 3 --model-out` stdout and model files, for these lines."""
    with tempfile.TemporaryDirectory() as tmp:
        corpus_path, models = Path(tmp) / "corpus.tsv", Path(tmp) / "models"
        corpus_path.write_text("".join(corpus_lines), encoding="utf-8")
        out = _stdout_of(["train", "--task", task, "--corpus", str(corpus_path),
                          "--kfold", "3", "--epochs", "5", "--seed", "2",
                          "--model-out", str(models)])
        files = {p.name: p.read_bytes() for p in models.iterdir()}
    return out.replace(str(models), "MODELS"), files


_ORDER_CORPUS = _order_corpus_lines()


@functools.cache
def _train_outcome_in_file_order(task: str) -> tuple[str, dict[str, bytes]]:
    return _train_outcome(_ORDER_CORPUS, task)


@settings(max_examples=8, deadline=None)
@given(st.permutations(_ORDER_CORPUS), st.sampled_from(["intention", "adequacy"]))
def test_training_does_not_depend_on_corpus_line_order(lines, task):
    assert _train_outcome(lines, task) == _train_outcome_in_file_order(task)


def test_kfold_leaving_a_fold_empty_is_input_error(tmp_path, capsys):
    corpus_path = tmp_path / "corpus.tsv"
    save_corpus([LabeledSegment(PolicySegment("c", t), i) for i, t in
                 enumerate(["we use cookies", "we transfer data abroad"])], corpus_path)
    assert main(["train", "--corpus", str(corpus_path), "--kfold", "2"]) == 1
    assert capsys.readouterr() == (
        "", "error: fold 1 gets no test sample: k=2 exceeds the 1 samples of the larger class\n")


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                    reason="the fold pool forks")
def test_failing_fold_exits_as_it_does_in_process(tmp_path, capsys, monkeypatch):
    corpus_path = tmp_path / "corpus.tsv"
    texts = ["we transfer data abroad", "we use cookies", "delete your account",
             "settings can change"]
    save_corpus([LabeledSegment(PolicySegment("c", t), int(i == 0))
                 for i, t in enumerate(texts)], corpus_path)
    outcomes = []
    for cpus in (1, 2):
        monkeypatch.setattr(parallel, "usable_cpus", lambda: cpus)
        code = main(["train", "--corpus", str(corpus_path), "--kfold", "2"])
        outcomes.append((code, *capsys.readouterr()))
    assert outcomes[0] == outcomes[1] == (
        1, "", "error: need both classes in training data, got labels [0]\n")


def test_full_pipeline(model_dir, tmp_path, capsys):
    policies = sorted(str(p) for p in (DATA / "policies").glob("*.txt"))
    assert main(["annotate", "--model-dir", str(model_dir), "--mode", "blankline",
                 *policies]) == 0
    annotations_out = capsys.readouterr().out
    annotations_path = tmp_path / "annotations.jsonl"
    annotations_path.write_text(annotations_out, encoding="utf-8")
    parsed = [json.loads(ln) for ln in annotations_out.splitlines()]
    by_app = {p["app_id"]: p for p in parsed}
    assert by_app["com.viber.voip"]["bcr"] is True
    assert by_app["com.forqan.tech.Jobs"]["countries"] == ["IL"]
    assert by_app["com.tellurionmobile.primalcraft"]["intention"] is False

    assert main(["scan", "--flows", str(DATA / "flows.jsonl"),
                 "--catalog", str(DATA / "catalog.tsv"),
                 "--geo", str(DATA / "geo.tsv")]) == 0
    events_out = capsys.readouterr().out
    events_path = tmp_path / "events.jsonl"
    events_path.write_text(events_out, encoding="utf-8")
    events = [json.loads(ln) for ln in events_out.splitlines()]
    assert {e["app_id"] for e in events} == {
        "com.viber.voip", "pm.tap.vpn", "com.forqan.tech.Jobs",
        "com.tellurionmobile.primalcraft"}

    assert main(["check", "--events", str(events_path),
                 "--annotations", str(annotations_path)]) == 0
    check_out = capsys.readouterr().out
    rows = [ln.split("\t") for ln in check_out.splitlines()]
    verdict_by_key = {(r[0], r[1], r[2]): r[4] for r in rows if r[1] != "-"}
    assert verdict_by_key[("com.viber.voip", "adjust.com", "US")] == "FD"
    assert verdict_by_key[("pm.tap.vpn", "yandex.net", "RU")] == "AD"
    assert verdict_by_key[("com.forqan.tech.Jobs", "vungle.com", "US")] == "ID"
    assert verdict_by_key[("com.tellurionmobile.primalcraft", "smaato.net", "US")] == "OD"
    overall = {r[0]: r[4] for r in rows if r[1] == "-"}
    assert overall["com.viber.voip"] == "compliant"
    assert overall["pm.tap.vpn"] == "potentially_non_compliant"

    assert main(["report", "--events", str(events_path),
                 "--annotations", str(annotations_path),
                 "--format", "machine_lines"]) == 0
    report_out = capsys.readouterr().out
    assert "apps_with_transfers=4" in report_out
    assert "verdicts.t3_no_adequacy.FD=1" in report_out

    # byte-identical reports on identical inputs
    assert main(["report", "--events", str(events_path),
                 "--annotations", str(annotations_path),
                 "--format", "machine_lines"]) == 0
    assert capsys.readouterr().out == report_out


SHIELD_EVENT = {
    "app_id": "shield.app", "recipient_domain": "tracker.example",
    "data_types": ["AAID"], "dest_countries": ["US"], "recipient_kind": "third_party",
    "recipient_owner": "Tracker", "recipient_hq": "US", "any_idle_flow": False}
SHIELD_SEGMENT = {
    "intention": True, "countries": ["US"], "adequacy": False, "scc": False,
    "bcr": False, "explicit_consent": False, "copy_means": True,
    "representative": False, "privacy_shield": True}
SHIELD_ANNOTATION = {"app_id": "shield.app", **SHIELD_SEGMENT, "segments": [SHIELD_SEGMENT]}


def _write_study(tmp_path, events, annotations):
    events_path = tmp_path / "events.jsonl"
    events_path.write_text("".join(ln + "\n" for ln in events), encoding="utf-8")
    annotations_path = tmp_path / "annotations.jsonl"
    annotations_path.write_text("".join(ln + "\n" for ln in annotations),
                                encoding="utf-8")
    return events_path, annotations_path


def test_check_date_override(model_dir, tmp_path, capsys):
    events_path, annotations_path = _write_study(
        tmp_path, [json.dumps(SHIELD_EVENT)], [json.dumps(SHIELD_ANNOTATION)])
    assert main(["check", "--events", str(events_path),
                 "--annotations", str(annotations_path),
                 "--date", "2020-07-01"]) == 0
    before = capsys.readouterr().out
    assert "\tFD\t" in before
    assert main(["check", "--events", str(events_path),
                 "--annotations", str(annotations_path),
                 "--date", "2020-07-20"]) == 0
    after = capsys.readouterr().out
    assert "\tAD\t" in after


def _annotation(app_id, **flags):
    """An annotation record whose policy and one segment carry `flags`."""
    segment = {**dict.fromkeys(SHIELD_SEGMENT, False), "countries": [], **flags}
    return json.dumps({"app_id": app_id, **segment, "segments": [segment]})


def _event(app_id, countries, kind=THIRD_PARTY, idle=False, domain="tracker.example"):
    return json.dumps({"app_id": app_id, "recipient_domain": domain,
                       "data_types": ["AAID"], "dest_countries": countries,
                       "recipient_kind": kind,
                       "recipient_owner": "Owner" if kind == THIRD_PARTY else None,
                       "recipient_hq": "US" if kind == THIRD_PARTY else None,
                       "any_idle_flow": idle})


# One app per branch of the verdict rules: every class, a country mismatch,
# and each reason a safeguard can be void for, alone and together.
COVERAGE_EVENTS = [
    _event("full.app", ["US", "JP", "DE"]),  # FD, ID against {US}, NA
    _event("full.app", ["US"], kind=FIRST_PARTY, domain="cdn.example"),  # FD: representative named
    _event("omits.app", ["US", "JP"]),  # OD: no intention
    _event("omits.app", ["CN"], kind=FIRST_PARTY, domain="cdn.example"),  # OD: no representative
    _event("consent.app", ["RU"], idle=True),  # AD: consent void when idle
    _event("consent.app", ["US"], idle=False, domain="cdn.example"),  # AD: no countries named
    _event("shield.app", ["US"]),  # AD after the shield's invalidation
    _event("both.app", ["US"], idle=True),  # AD: both reasons
    _event("unannotated.app", ["IE"]),
]
COVERAGE_ANNOTATIONS = [
    _annotation("full.app", intention=True, countries=["US"], scc=True, copy_means=True,
                adequacy=True, representative=True),
    _annotation("omits.app"),
    _annotation("consent.app", intention=True, explicit_consent=True, copy_means=True),
    _annotation("shield.app", intention=True, countries=["US"], privacy_shield=True,
                copy_means=True),
    _annotation("both.app", intention=True, countries=["US"], explicit_consent=True,
                privacy_shield=True),
]


@pytest.mark.parametrize("date", [None, "2020-07-01", "2020-07-20"])
def test_check_covers_every_verdict_as_the_reference_judges(tmp_path, capsys, date):
    events_path, annotations_path = _write_study(tmp_path, COVERAGE_EVENTS,
                                                 COVERAGE_ANNOTATIONS)
    argv = ["check", "--events", str(events_path), "--annotations", str(annotations_path)]
    assert main(argv + (["--date", date] if date else [])) == 0
    out = capsys.readouterr().out
    juris = load_jurisdiction()
    if date:
        juris = dataclasses.replace(juris, assessment_date=datetime.date.fromisoformat(date))
    expected = reference.check_lines(read_events(COVERAGE_EVENTS),
                                     read_annotations(COVERAGE_ANNOTATIONS), juris)
    assert out == "".join(ln + "\n" for ln in expected)
    rows = [ln.split("\t") for ln in out.splitlines() if ln.split("\t")[1] != "-"]
    assert {r[4] for r in rows} == {"FD", "AD", "ID", "OD", "NA"}
    assert "\tJP!=US\t" in out
    reasons = {r[7] for r in rows}
    assert "explicit consent nullified by idle-stage transfer" in reasons
    if date != "2020-07-01":
        assert "privacy shield framework invalidated" in reasons
        assert ("explicit consent nullified by idle-stage transfer; "
                "privacy shield framework invalidated") in reasons


@pytest.fixture(scope="module")
def data_study(model_dir, tmp_path_factory):
    """`annotate` and `scan` output over tests/data, as files for `check` and `report`."""
    base = tmp_path_factory.mktemp("data_study")
    policies = sorted(str(p) for p in (DATA / "policies").glob("*.txt"))
    annotations = _stdout_of(["annotate", "--model-dir", str(model_dir), *policies])
    events = _stdout_of(["scan", "--flows", str(DATA / "flows.jsonl"),
                         "--catalog", str(DATA / "catalog.tsv"), "--geo", str(DATA / "geo.tsv")])
    return _write_study(base, events.splitlines(), annotations.splitlines())


@pytest.mark.parametrize("enabled", [True, False])
def test_check_and_report_restore_the_collector(data_study, tmp_path, capsys, enabled):
    events_path, annotations_path = data_study
    bad_events, _ = _write_study(tmp_path, [json.dumps(SHIELD_EVENT), "{"], [])
    runs = [(["check", "--events", str(events_path)], 0),
            (["report", "--events", str(events_path)], 0),
            (["check", "--events", str(bad_events)], 1),
            (["report", "--events", str(bad_events)], 1)]
    was_enabled = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        for argv, code in runs:
            assert main([*argv, "--annotations", str(annotations_path)]) == code
            assert gc.isenabled() is enabled
    finally:
        (gc.enable if was_enabled else gc.disable)()
    assert capsys.readouterr().err.count("error: line 2: bad JSON") == 2
    # the memo of verdicts holds at most one entry per judged case
    assert 0 < _verdict_core.cache_info().currsize <= 4 * 2 ** 12


def _without(obj, key):
    return json.dumps({k: v for k, v in obj.items() if k != key})


def _with(obj, **fields):
    return json.dumps({**obj, **fields})


def _with_segment(**fields):
    return _with(SHIELD_ANNOTATION, app_id="other.app",
                 segments=[SHIELD_SEGMENT, {**SHIELD_SEGMENT, **fields}])


# the first event under another app id: a case built on it fails for the
# field it changes, not as a repeated (app_id, recipient_domain) event
OTHER_EVENT = {**SHIELD_EVENT, "app_id": "other.app"}
# the event keys that a reader could pass over with a default value
_EVENT_KEYS = ("data_types", "recipient_kind", "recipient_owner", "recipient_hq",
               "any_idle_flow")
_BAD_SEGMENT = json.dumps({**SHIELD_ANNOTATION, "app_id": "other.app",
                           "segments": [SHIELD_SEGMENT, {"intention": False}]})


@pytest.mark.parametrize("command", ["check", "report"])
@pytest.mark.parametrize("which, bad_line", [
    ("events", _without(SHIELD_EVENT, "recipient_domain")),
    ("events", _without(SHIELD_EVENT, "app_id")),
    ("events", '{"app_id": "other.app",'),
    ("events", '["not", "an", "object"]'),
    ("annotations", _without(SHIELD_ANNOTATION, "scc")),
    ("annotations", _BAD_SEGMENT),
    ("annotations", "{not json}"),
    ("annotations", '"text"'),
    # a wrongly typed or unchecked value is no value to coerce
    ("events", _with(OTHER_EVENT, dest_countries="US")),
    ("events", _with(OTHER_EVENT, data_types="imei")),
    ("events", _with(OTHER_EVENT, dest_countries=["de"])),
    ("events", _with(OTHER_EVENT, recipient_kind="first-party")),
    ("events", _with(OTHER_EVENT, recipient_hq="us")),
    ("events", _with(OTHER_EVENT, any_idle_flow="yes")),
    ("events", _with(OTHER_EVENT, recipient_domain=7)),
    ("events", _with(OTHER_EVENT, recipient_owner=7)),
    ("events", _with(OTHER_EVENT, app_id=None)),
    ("events", _with(OTHER_EVENT, recipient_domain=None)),
    # a recipient takes one of the two forms `scan` writes
    ("events", _with(OTHER_EVENT, recipient_kind=FIRST_PARTY, recipient_hq=None)),
    ("events", _with(OTHER_EVENT, recipient_kind=FIRST_PARTY, recipient_owner=None)),
    ("events", _with(OTHER_EVENT, recipient_owner=None)),
    ("events", _with(OTHER_EVENT, recipient_hq=None)),
    ("annotations", _with(SHIELD_ANNOTATION, countries="US")),
    ("annotations", _with(SHIELD_ANNOTATION, countries=["us"])),
    ("annotations", _with(SHIELD_ANNOTATION, intention="yes")),
    ("annotations", _with(SHIELD_ANNOTATION, segments={})),
    ("annotations", _with(SHIELD_ANNOTATION, app_id=7)),
    ("annotations", _with(SHIELD_ANNOTATION, app_id=None)),
    ("annotations", _with_segment(countries="US")),
    ("annotations", _with_segment(countries=["de"])),
    ("annotations", _with_segment(scc="false")),
    ("events", _with(OTHER_EVENT, data_types=[7, "AAID"])),
    ("events", _with(OTHER_EVENT, data_types=[7])),
    # a policy discloses what its segments disclose, and no more or less
    ("annotations", _with(SHIELD_ANNOTATION, app_id="other.app", scc=True)),
    ("annotations", _with(SHIELD_ANNOTATION, app_id="other.app", copy_means=False)),
    ("annotations", _with(SHIELD_ANNOTATION, app_id="other.app", countries=["CN", "US"])),
    ("annotations", _with(SHIELD_ANNOTATION, app_id="other.app", countries=[])),
    ("annotations", _with(SHIELD_ANNOTATION, app_id="other.app", countries={"US": True})),
    # every key the writer writes is required
    *[("events", _without(OTHER_EVENT, key)) for key in _EVENT_KEYS],
    ("annotations", _without({**SHIELD_ANNOTATION, "app_id": "other.app"}, "segments")),
], ids=["event-no-domain", "event-no-app", "event-bad-json", "event-not-object",
        "annotation-no-scc", "segment-missing-fields", "annotation-bad-json",
        "annotation-not-object", "event-countries-string", "event-types-string",
        "event-lowercase-country", "event-kind-typo", "event-lowercase-hq",
        "event-idle-string", "event-domain-number", "event-owner-number",
        "event-app-null", "event-domain-null", "event-first-party-owner",
        "event-first-party-hq", "event-third-party-owner-null", "event-third-party-hq-null",
        "annotation-countries-string", "annotation-lowercase-country",
        "annotation-intention-string", "annotation-segments-object",
        "annotation-app-number", "annotation-app-null", "segment-countries-string",
        "segment-lowercase-country", "segment-flag-string", "event-type-number-and-string",
        "event-type-number", "annotation-unsupported-flag", "annotation-unstated-flag",
        "annotation-unsupported-country", "annotation-unstated-country",
        "annotation-countries-object",
        *[f"event-no-{key}" for key in _EVENT_KEYS], "annotation-no-segments"])
def test_malformed_record_is_input_error(tmp_path, capsys, command, which, bad_line):
    record = {"events": SHIELD_EVENT, "annotations": SHIELD_ANNOTATION}[which]
    lines = {"events": [json.dumps(SHIELD_EVENT)],
             "annotations": [json.dumps(SHIELD_ANNOTATION)]}
    lines[which] += ["", bad_line]
    events_path, annotations_path = _write_study(tmp_path, **lines)
    assert main([command, "--events", str(events_path),
                 "--annotations", str(annotations_path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: line 3: ")
    # a record that lacks a key of its form names the key
    with contextlib.suppress(ValueError):
        obj = json.loads(bad_line)
        for key in record.keys() - obj.keys() if isinstance(obj, dict) else ():
            assert f"lacks field {key!r}" in captured.err


# one valid record of each input line form, each key of which the fuzz test
# below replaces with an arbitrary JSON value; the flow's null country
# leaves its dest_ip to be geolocated
_FUZZ_FLOW = {"app_id": "com.viber.voip", "app_version": "14.5.0", "cert_org": "Viber Media",
              "dest_fqdn": "app.adjust.com", "dest_ip": "185.151.204.10", "country": None,
              "payload_b64": "YWRfaWQ9Mzg0MDAwMDA=", "detected_types": ["AAID"],
              "stage": "active", "store_name": "Viber Messenger"}
_FUZZ_RECORDS = {"flow": _FUZZ_FLOW, "event": SHIELD_EVENT, "annotation": SHIELD_ANNOTATION,
                 "segment": SHIELD_SEGMENT}
_json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner,
                                                                max_size=3),
    max_leaves=6)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([(form, key) for form, record in _FUZZ_RECORDS.items()
                        for key in record]), _json_values)
@example(("flow", "detected_types"), [7, "AAID"])
def test_no_input_value_is_an_internal_error(form_and_key, value):
    form, key = form_and_key
    record = {**_FUZZ_RECORDS[form], key: value}
    if form == "segment":
        record = {**SHIELD_ANNOTATION, "segments": [record]}
    lines = {"flow": [json.dumps(_FUZZ_FLOW)], "event": [json.dumps(SHIELD_EVENT)],
             "annotation": [json.dumps(SHIELD_ANNOTATION)]}
    lines["annotation" if form == "segment" else form] = [json.dumps(record)]
    with tempfile.TemporaryDirectory() as tmp:
        flows_path = Path(tmp) / "flows.jsonl"
        flows_path.write_text(lines["flow"][0] + "\n", encoding="utf-8")
        events_path, annotations_path = _write_study(Path(tmp), lines["event"],
                                                     lines["annotation"])
        study = ["--events", str(events_path), "--annotations", str(annotations_path)]
        runs = [["check", *study], ["report", *study]] if form != "flow" else [
            ["scan", "--flows", str(flows_path), "--catalog", str(DATA / "catalog.tsv"),
             "--geo", str(DATA / "geo.tsv")]]
        for argv in runs:
            out, err = io.TextIOWrapper(io.BytesIO(), encoding="utf-8"), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
            assert code in (0, 1), err.getvalue()
            if code == 1:
                assert err.getvalue().startswith("error: line 1: ")


@pytest.mark.parametrize("command", ["check", "report"])
def test_policy_values_no_segment_states_are_input_error(tmp_path, capsys, command):
    # read as stated, the policy would make this transfer fully disclosed
    segment = {**dict.fromkeys(SHIELD_SEGMENT, False), "countries": []}
    record = {"app_id": "a.app", **segment, "intention": True, "countries": ["CN"],
              "scc": True, "copy_means": True, "segments": [segment]}
    events_path, annotations_path = _write_study(
        tmp_path, [_event("a.app", ["CN"])], [json.dumps(record)])
    assert main([command, "--events", str(events_path),
                 "--annotations", str(annotations_path)]) == 1
    assert capsys.readouterr() == ("", "error: line 1: the policy's intention, countries, "
                                       "scc, copy_means are not the OR of its segments\n")


@settings(max_examples=30, deadline=None)
@given(st.lists(policy_annotations, min_size=1, max_size=4), st.data())
def test_a_policy_value_its_segments_do_not_give_is_input_error(policies, data):
    records = [annotation_json(f"app{i}", p) for i, p in enumerate(policies)]
    line = data.draw(st.integers(0, len(records) - 1))
    record = records[line]
    name = data.draw(st.sampled_from(FLAGS + ("countries",)))
    if name == "countries":
        record["countries"] = sorted(record["countries"] + [data.draw(st.sampled_from(
            sorted({"US", "CN", "IL", "DE", "JP"} - set(record["countries"]))))])
    else:
        record[name] = not record[name]
    with tempfile.TemporaryDirectory() as tmp:
        events_path, annotations_path = _write_study(
            Path(tmp), [], [json.dumps(r) for r in records])
        for command in ("check", "report"):
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                assert main([command, "--events", str(events_path),
                             "--annotations", str(annotations_path)]) == 1
            assert err.getvalue() == (f"error: line {line + 1}: the policy's {name} "
                                      "are not the OR of its segments\n")


@pytest.mark.parametrize("command", ["check", "report"])
@pytest.mark.parametrize("number_first", [False, True])
def test_number_flag_is_input_error_in_either_segment_order(tmp_path, capsys, command,
                                                            number_first):
    # JSON 0 equals false as a dict key: a segment with "scc": 0 must not
    # pass for an equal segment with false read before it
    segments = [SHIELD_SEGMENT, {**SHIELD_SEGMENT, "scc": 0}]
    if number_first:
        segments.reverse()
    events_path, annotations_path = _write_study(
        tmp_path, [json.dumps(SHIELD_EVENT)],
        [json.dumps(SHIELD_ANNOTATION), _with(SHIELD_ANNOTATION, app_id="other.app",
                                              segments=segments)])
    assert main([command, "--events", str(events_path),
                 "--annotations", str(annotations_path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: line 2: an annotation record holds no JSON numbers, got 0\n"


@pytest.mark.parametrize("command", ["check", "report"])
@pytest.mark.parametrize("disclosing_first", [False, True])
def test_repeated_app_id_in_annotations_is_input_error(tmp_path, capsys, command,
                                                       disclosing_first):
    # one record discloses all the event needs and the other nothing, so
    # keeping either one would make the verdict depend on the record order
    records = [_annotation("full.app", intention=True, countries=["US"], scc=True,
                           copy_means=True, adequacy=True, representative=True),
               _annotation("full.app")]
    if not disclosing_first:
        records.reverse()
    events_path, annotations_path = _write_study(tmp_path, [_event("full.app", ["US"])],
                                                 records)
    assert main([command, "--events", str(events_path),
                 "--annotations", str(annotations_path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: line 2: repeated app_id 'full.app'\n"


@pytest.mark.parametrize("command", ["check", "report"])
def test_repeated_event_of_an_app_and_domain_is_input_error(tmp_path, capsys, command):
    # `scan` writes one event per app and recipient domain; the repeat need
    # not follow the line it repeats
    events = [_event("full.app", ["US"]), _event("full.app", ["DE"], domain="cdn.example"),
              _event("full.app", ["JP"])]
    events_path, annotations_path = _write_study(tmp_path, events, [])
    assert main([command, "--events", str(events_path),
                 "--annotations", str(annotations_path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: line 3: repeated event for app_id 'full.app' "
                            "and recipient_domain 'tracker.example'\n")


def test_annotate_refuses_policy_files_of_one_app_id(model_dir, tmp_path, capsys):
    # `annotate` names a policy by its file's stem
    policies = []
    for directory in ("a", "b"):
        (tmp_path / directory).mkdir()
        policies.append(tmp_path / directory / "x.txt")
        policies[-1].write_text("We transfer data to Japan.", encoding="utf-8")
    assert main(["annotate", "--model-dir", str(model_dir), *map(str, policies)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: policy files share an app id: x\n"


fork_only = pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                               reason="annotate forks")
POLICIES = sorted(str(p) for p in (DATA / "policies").glob("*.txt"))


def _annotate_outcome(model_dir, policies, capsys, monkeypatch, cpus, *options):
    """(exit code, stdout, stderr) of `annotate` with `cpus` usable CPUs."""
    monkeypatch.setattr(parallel, "usable_cpus", lambda: cpus)
    code = main(["annotate", "--model-dir", str(model_dir), *options, *map(str, policies)])
    assert multiprocessing.active_children() == []  # no worker outlives the command
    return (code, *capsys.readouterr())


@fork_only
@pytest.mark.parametrize("mode", ["fullstop", "blankline"])
def test_annotate_output_does_not_depend_on_the_cpus(model_dir, tmp_path, capsys,
                                                     monkeypatch, mode):
    real = cli._annotation_line
    record = tmp_path / "pids"

    def recording(*args):
        with open(record, "a", encoding="utf-8") as fh:
            fh.write(f"{os.getpid()}\n")
        return real(*args)

    monkeypatch.setattr(cli, "_annotation_line", recording)
    outcomes = []
    for cpus in (1, 2, 3):
        record.write_text("", encoding="utf-8")
        outcomes.append(_annotate_outcome(model_dir, POLICIES, capsys, monkeypatch, cpus,
                                          "--mode", mode))
        pids = record.read_text(encoding="utf-8").split()
        assert len(pids) == len(POLICIES)
        # with one CPU the command annotates every policy itself, else its workers do
        assert len(set(pids)) <= cpus and (str(os.getpid()) in pids) == (cpus == 1)
    assert outcomes[0][0] == 0 and outcomes[0][2] == ""
    assert len(outcomes[0][1].splitlines()) == len(POLICIES)
    assert outcomes[0] == outcomes[1] == outcomes[2]


def _bad_policies(tmp_path):
    """A missing, an empty and a non-UTF-8 policy file, and each one's error."""
    empty, latin = tmp_path / "empty.txt", tmp_path / "latin.txt"
    empty.write_text(" \n", encoding="utf-8")
    latin.write_bytes(b"We transfer \xff data to Japan.")
    missing = tmp_path / "missing.txt"
    return {
        missing: f"[Errno 2] No such file or directory: '{missing}'",
        empty: "document 'empty' is empty",
        latin: f"{latin}: 'utf-8' codec can't decode byte 0xff in position 12: "
               "invalid start byte",
    }


@fork_only
def test_a_bad_policy_fails_annotate_as_it_does_in_process(model_dir, tmp_path, capsys,
                                                           monkeypatch):
    lines = _annotate_outcome(model_dir, POLICIES, capsys, monkeypatch, 1)[1].splitlines(True)
    for bad, message in _bad_policies(tmp_path).items():
        policies = [*POLICIES[:2], bad, *POLICIES[2:]]
        outcomes = [_annotate_outcome(model_dir, policies, capsys, monkeypatch, cpus)
                    for cpus in (1, 2)]
        assert outcomes[0] == outcomes[1] == (1, "".join(lines[:2]), f"error: {message}\n")


@fork_only
def test_annotate_reports_the_first_bad_policy(model_dir, tmp_path, capsys, monkeypatch):
    bad = _bad_policies(tmp_path)
    missing, _, latin = bad
    lines = _annotate_outcome(model_dir, POLICIES, capsys, monkeypatch, 1)[1].splitlines(True)
    for first, second in ((latin, missing), (missing, latin)):
        policies = [POLICIES[0], first, *POLICIES[1:], second]
        for cpus in (1, 2):
            assert _annotate_outcome(model_dir, policies, capsys, monkeypatch, cpus) == (
                1, lines[0], f"error: {bad[first]}\n")


# scraped-HTML characters for ASCII ones: accented letters, non-breaking
# spaces and curly apostrophes
_NON_ASCII_TWIN = str.maketrans({"e": "\u00e9", "E": "\u00c9", " ": "\u00a0", "'": "\u2019"})


@pytest.mark.parametrize("mode", ["fullstop", "blankline"])
def test_annotate_reads_a_non_ascii_twin_as_its_original(model_dir, tmp_path, capsys,
                                                         monkeypatch, mode):
    """Each policy and its twin, which is the policy with scraped-HTML
    characters, give the same annotation line, app id aside."""
    twins = []
    for policy in map(Path, POLICIES):
        twin = tmp_path / f"twin.{policy.name}"
        text = policy.read_text(encoding="utf-8")
        twin.write_text(text.translate(_NON_ASCII_TWIN), encoding="utf-8")
        assert text.isascii() and not twin.read_text(encoding="utf-8").isascii()
        twins.append(twin)
    lines = []
    for policies in (POLICIES, twins):
        code, out, err = _annotate_outcome(model_dir, policies, capsys, monkeypatch, 1,
                                           "--mode", mode)
        assert (code, err) == (0, "")
        lines.append([_without(json.loads(line), "app_id") for line in out.splitlines()])
    assert len(lines[0]) == len(POLICIES)
    assert lines[0] == lines[1]
    assert any('"countries": ["' in line for line in lines[0])


def test_segment_names_a_non_utf8_policy(tmp_path, capsys):
    latin = tmp_path / "latin.txt"
    latin.write_bytes(b"We transfer \xff data to Japan.")
    assert main(["segment", str(latin)]) == 1
    assert capsys.readouterr() == (
        "", f"error: {latin}: 'utf-8' codec can't decode byte 0xff in position 12: "
            "invalid start byte\n")


@pytest.mark.parametrize("field", ["app_id", "stage", "dest_fqdn"])
def test_scan_null_required_field_is_input_error_naming_the_line(tmp_path, capsys, field):
    lines = (DATA / "flows.jsonl").read_text(encoding="utf-8").splitlines()
    bad = {**json.loads(lines[0]), field: None}
    flows_path = tmp_path / "flows.jsonl"
    flows_path.write_text("\n".join([lines[0], json.dumps(bad), *lines[1:]]) + "\n",
                          encoding="utf-8")
    assert main(["scan", "--flows", str(flows_path), "--catalog", str(DATA / "catalog.tsv"),
                 "--geo", str(DATA / "geo.tsv")]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: line 2: {field} must be a JSON string, got null\n"


@pytest.mark.parametrize("field", ["app_id", "stage", "dest_fqdn"])
def test_scan_empty_required_field_is_input_error_naming_the_line(tmp_path, capsys, field):
    lines = (DATA / "flows.jsonl").read_text(encoding="utf-8").splitlines()
    bad = {**json.loads(lines[0]), field: ""}
    flows_path = tmp_path / "flows.jsonl"
    flows_path.write_text("\n".join([lines[0], json.dumps(bad), *lines[1:]]) + "\n",
                          encoding="utf-8")
    assert main(["scan", "--flows", str(flows_path), "--catalog", str(DATA / "catalog.tsv"),
                 "--geo", str(DATA / "geo.tsv")]) == 1
    assert capsys.readouterr() == ("", f"error: line 2: {field} must not be empty\n")


@pytest.mark.parametrize("command", ["check", "report"])
@pytest.mark.parametrize("which, field", [("events", "app_id"), ("events", "recipient_domain"),
                                          ("annotations", "app_id")])
def test_an_empty_id_is_input_error_naming_the_line(tmp_path, capsys, command, which, field):
    record = {"events": SHIELD_EVENT, "annotations": SHIELD_ANNOTATION}[which]
    lines = {"events": [json.dumps(SHIELD_EVENT)],
             "annotations": [json.dumps(SHIELD_ANNOTATION)]}
    lines[which].append(_with(record, **{field: ""}))
    events_path, annotations_path = _write_study(tmp_path, **lines)
    assert main([command, "--events", str(events_path),
                 "--annotations", str(annotations_path)]) == 1
    assert capsys.readouterr() == ("", f"error: line 2: {field} must not be empty\n")


def test_scan_drops_unparseable_hostname(tmp_path, capsys, caplog):
    args = ["--catalog", str(DATA / "catalog.tsv"), "--geo", str(DATA / "geo.tsv")]
    assert main(["scan", "--flows", str(DATA / "flows.jsonl"), *args]) == 0
    expected = capsys.readouterr().out

    lines = (DATA / "flows.jsonl").read_text(encoding="utf-8").splitlines()
    bad = json.loads(lines[0])
    bad["dest_fqdn"] = "not_a_domain"
    lines.insert(len(lines) // 2, json.dumps(bad))
    flows_path = tmp_path / "flows.jsonl"
    flows_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert main(["scan", "--flows", str(flows_path), *args]) == 0
    assert capsys.readouterr().out == expected
    assert "not_a_domain: unparseable hostname" in caplog.text


def test_bad_rule_line_is_input_error_naming_the_line(model_dir, tmp_path, capsys):
    policy = tmp_path / "pol.txt"
    policy.write_text("We use standard contractual clauses.", encoding="utf-8")
    rules = tmp_path / "rules.tsv"
    # a grammar error, and an element id that names no rule element
    for bad_line in ["bcr\t('a') w/x ('b')", "scc_typo\t('standard')"]:
        rules.write_text(f"scc\t('standard') w/4 ('clause')\n{bad_line}\n", encoding="utf-8")
        assert main(["annotate", "--model-dir", str(model_dir), "--rules", str(rules),
                     str(policy)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "line 2" in captured.err


def test_bad_model_line_is_input_error_naming_the_line(model_dir, tmp_path, capsys):
    models = tmp_path / "models"
    shutil.copytree(model_dir, models)
    model_path = models / "intention.model.tsv"
    lines = model_path.read_text(encoding="utf-8").splitlines()
    lines[1] = "#ngram=0-9"
    model_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    policy = tmp_path / "pol.txt"
    policy.write_text("We transfer data to Japan.", encoding="utf-8")
    assert main(["annotate", "--model-dir", str(models), str(policy)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "line 2" in captured.err


def test_a_bundle_in_the_indexed_format_is_input_error(model_dir, tmp_path, capsys):
    """Files that give each row an index, as bundles saved before a
    feature's index became its row did, do not load: the first such row is
    named and `annotate` exits 1; such a bundle must be trained again."""
    policy = tmp_path / "pol.txt"
    policy.write_text("We transfer data to Japan.", encoding="utf-8")
    for suffix, indexed, lineno in [("vocab", lambda i, row: row.replace("\t", f"\t{i}\t"), 2),
                                    ("model", lambda i, row: f"{i}\t{row}", 9)]:
        models = tmp_path / suffix
        shutil.copytree(model_dir, models)
        path = models / f"intention.{suffix}.tsv"
        lines = path.read_text(encoding="utf-8").splitlines()
        rows = [i for i, line in enumerate(lines) if not line.startswith("#")]
        for index, at in enumerate(rows):
            lines[at] = indexed(index, lines[at])
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        assert main(["annotate", "--model-dir", str(models), str(policy)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"line {lineno}: expected `" in captured.err, suffix


def test_annotate_needs_the_adequacy_bundle(model_dir, tmp_path, capsys):
    """Without `adequacy.*` the annotator would call no segment adequate,
    and every transfer to an adequacy country would lose that disclosure;
    `annotate` refuses to start instead."""
    models = tmp_path / "models"
    models.mkdir()
    for name in ("intention.model.tsv", "intention.vocab.tsv"):
        shutil.copy(model_dir / name, models / name)
    policy = DATA / "policies" / "com.forqan.tech.Jobs.txt"
    assert main(["annotate", "--model-dir", str(models), str(policy)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: [Errno 2]") and "adequacy." in captured.err


_SHIPPED = resources.files("transferaudit.data")
_FRAMEWORK = "privacy_shield\tUS\t2020-07-16"


@pytest.mark.parametrize("option, source, old, new", [
    ("--catalog", DATA / "catalog.tsv", None, "AAID"),
    ("--owners", _SHIPPED / "owner_list.tsv", None, "bad.example\tBad\t\tUS"),
    ("--geo", DATA / "geo.tsv", None, "10.0.0.0/8"),
    ("--geo", DATA / "geo.tsv", None, "10.0.0.0/8\tde"),
    ("--geo", DATA / "geo.tsv", None, "10.0.0.0/33\tDE"),
    ("--owners", _SHIPPED / "owner_list.tsv", None, "bad.example\tBad\t\tus\tanalytics"),
    ("--dict", _SHIPPED / "country_dictionary.tsv", None, "US\tname"),
    ("--rules", _SHIPPED / "rules.tsv", None, "scc ('standard')"),
    ("--jurisdiction", _SHIPPED / "jurisdiction_2020_07.txt", _FRAMEWORK,
     "privacy_shield\tUS"),
    ("--jurisdiction", _SHIPPED / "jurisdiction_2020_07.txt", _FRAMEWORK,
     "privacy_shield\tUS\t2020-13-16"),
    ("--jurisdiction", _SHIPPED / "jurisdiction_2020_07.txt", "\nDE\n", "\nde\n"),
    ("--jurisdiction", _SHIPPED / "jurisdiction_2020_07.txt", _FRAMEWORK,
     "privacy_shield\tusa\t2020-07-16"),
], ids=["catalog", "owners", "geo", "geo-code", "geo-key", "owners-hq-code", "dict", "rules", "framework-line", "framework-date",
        "eu-code", "framework-code"])
def test_malformed_data_line_is_input_error_naming_it(model_dir, tmp_path, capsys,
                                                      option, source, old, new):
    """A bad line (appended, or replacing `old`) is exit 1 naming its line."""
    text = source.read_text(encoding="utf-8")
    bad_text = text.replace(old, new, 1) if old else text + new + "\n"
    lines, bad_lines = text.splitlines(), bad_text.splitlines()
    lineno = next(i for i, line in enumerate(bad_lines, start=1)
                  if i > len(lines) or line != lines[i - 1])
    assert lineno >= 2
    bad_file = tmp_path / "bad.txt"
    bad_file.write_text(bad_text, encoding="utf-8")
    policy = tmp_path / "pol.txt"
    policy.write_text("We transfer data to Japan.", encoding="utf-8")
    events_path, annotations_path = _write_study(
        tmp_path, [json.dumps(SHIELD_EVENT)], [json.dumps(SHIELD_ANNOTATION)])
    argv = {
        "scan": ["scan", "--flows", str(DATA / "flows.jsonl"), "--catalog",
                 str(DATA / "catalog.tsv"), "--geo", str(DATA / "geo.tsv")],
        "annotate": ["annotate", "--model-dir", str(model_dir), str(policy)],
        "check": ["check", "--events", str(events_path),
                  "--annotations", str(annotations_path)],
    }
    command = {"--dict": "annotate", "--rules": "annotate",
               "--jurisdiction": "check"}.get(option, "scan")
    # the option given last overrides an earlier one
    assert main([*argv[command], option, str(bad_file)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"line {lineno}: " in captured.err


@pytest.mark.parametrize("extra", [[], ["--kfold", "5"], ["--model-out", "{tmp}/models"]],
                         ids=["no-output", "kfold", "model-out"])
@pytest.mark.parametrize("ngram", ["1-5", "0-1", "3-2", "1-2-3", "1-", "01-02", " 2"])
def test_bad_ngram_range_is_input_error(tmp_path, capsys, intention_corpus, ngram, extra):
    corpus_path = tmp_path / "corpus.tsv"
    save_corpus(intention_corpus, corpus_path)
    extra = [arg.format(tmp=tmp_path) for arg in extra]
    assert main(["train", "--corpus", str(corpus_path), "--ngram", ngram, *extra]) == 1
    assert capsys.readouterr() == ("", f"error: bad n-gram range {ngram!r}\n")


@pytest.mark.parametrize("ngram, written", [("2", "2-2"), ("1-2", "1-2"), ("3-4", "3-4")])
def test_ngram_option_takes_both_forms(tmp_path, capsys, intention_corpus, ngram, written):
    corpus_path = tmp_path / "corpus.tsv"
    save_corpus(intention_corpus, corpus_path)
    assert main(["train", "--corpus", str(corpus_path), "--ngram", ngram,
                 "--model-out", str(tmp_path)]) == 0
    lines = (tmp_path / "intention.model.tsv").read_text(encoding="utf-8").splitlines()
    assert lines[1] == f"#ngram={written}"


@pytest.fixture(scope="module")
def mixed_corpus_path(tmp_path_factory, intention_corpus, adequacy_corpus):
    """One corpus for both tasks: intention-negative samples among the rest."""
    path = tmp_path_factory.mktemp("mixed") / "corpus.tsv"
    save_corpus([*intention_corpus, *adequacy_corpus], path)
    return path


@pytest.mark.parametrize("task", TASKS)
def test_train_saves_the_bundle_the_library_fits(tmp_path, capsys, mixed_corpus_path, task):
    assert main(["train", "--task", task, "--corpus", str(mixed_corpus_path), "--seed", "3",
                 "--model-out", str(tmp_path / "cli")]) == 0
    training.fit_text_classifier(load_corpus(mixed_corpus_path), (1, 2), TF,
                                 TrainConfig(seed=3), task).save(tmp_path / "library", task)
    for suffix in ("vocab", "model"):
        name = f"{task}.{suffix}.tsv"
        assert (tmp_path / "cli" / name).read_bytes() == (tmp_path / "library" / name).read_bytes()


def test_cross_validate_of_adequacy_gives_the_kfold_figures(capsys, mixed_corpus_path):
    assert main(["train", "--task", "adequacy", "--corpus", str(mixed_corpus_path),
                 "--seed", "3", "--kfold", "5"]) == 0
    result = training.cross_validate(load_corpus(mixed_corpus_path), (1, 2), TF,
                                     TrainConfig(seed=3), 5, 3, task=ADEQUACY)
    # the intention-negative samples take no part: each fold tests a fifth of the rest
    samples = load_corpus(mixed_corpus_path)
    assert sum(fold.confusion.tp + fold.confusion.fp + fold.confusion.fn + fold.confusion.tn
               for fold in result.folds) == sum(s.intention_label for s in samples) < len(samples)
    lines = [f"fold {i}: precision={fold.precision:.4f} recall={fold.recall:.4f} "
             f"f_measure={fold.f_measure:.4f}\n" for i, fold in enumerate(result.folds)]
    means = " ".join(f"{k}={v:.4f}" for k, v in sorted(result.means.items()))
    assert capsys.readouterr().out == "".join(lines) + f"mean: {means}\n"


def test_bad_corpus_is_input_error(tmp_path, capsys):
    bad = tmp_path / "bad.tsv"
    bad.write_text("only\ttwo\n", encoding="utf-8")
    assert main(["train", "--corpus", str(bad)]) == 1
    assert "error:" in capsys.readouterr().err


# the two recipient forms `scan` writes
_recipients = st.one_of(
    st.just({"recipient_kind": FIRST_PARTY, "recipient_owner": None, "recipient_hq": None}),
    st.fixed_dictionaries({"recipient_kind": st.just(THIRD_PARTY),
                           "recipient_owner": st.sampled_from(["Adjust", "Yandex"]),
                           "recipient_hq": st.sampled_from(["DE", "RU"])}))
_events = st.lists(st.builds(lambda event, recipient: {**event, **recipient},
                             st.fixed_dictionaries({
    "app_id": st.sampled_from(["a", "b", "c", "d"]),
    "recipient_domain": st.sampled_from(["adjust.com", "yandex.net", "a.com"]),
    "data_types": st.lists(st.sampled_from(["AAID", "IMEI"]), unique=True, max_size=2),
    "dest_countries": st.lists(st.sampled_from(["DE", "US", "IL", "CN", "JP"]),
                               unique=True, max_size=3),
    "any_idle_flow": st.booleans(),
}), _recipients), max_size=12, unique_by=lambda e: (e["app_id"], e["recipient_domain"]))
_annotations = st.dictionaries(st.sampled_from(["a", "b", "e", "f"]), policy_annotations,
                               max_size=4)


def _stdout_of(argv):
    out = io.TextIOWrapper(io.BytesIO(), encoding="utf-8")
    with contextlib.redirect_stdout(out):
        assert main(argv) == 0
    out.flush()
    return out.buffer.getvalue().decode("utf-8")


@settings(max_examples=30, deadline=None)
@given(_events, _annotations)
def test_check_and_report_agree(events, annotations):
    with tempfile.TemporaryDirectory() as tmp:
        events_path, annotations_path = _write_study(
            Path(tmp), [json.dumps(e) for e in events],
            [json.dumps(annotation_json(app, p)) for app, p in annotations.items()])
        files = ["--events", str(events_path), "--annotations", str(annotations_path)]
        rows = [ln.split("\t") for ln in _stdout_of(["check", *files]).splitlines()]
        report = dict(ln.split("=", 1) for ln in _stdout_of(
            ["report", *files, "--format", "machine_lines"]).splitlines())
    verdicts = Counter((r[3], r[4]) for r in rows if r[1] != "-")
    overall = Counter(r[4] for r in rows if r[1] == "-")
    # report also assesses apps that only have an annotation
    overall[NO_TRANSFER] += len(set(annotations) - {e["app_id"] for e in events})
    for key, value in report.items():
        kind, _, rest = key.partition(".")
        if kind == "verdicts":
            assert int(value) == verdicts[tuple(rest.split("."))], key
        elif kind == "overall":
            assert int(value) == overall[rest], key
    assert sum(int(v) for k, v in report.items() if k.startswith("verdicts.")) == \
        sum(verdicts.values())
    assert int(report["total_apps"]) == sum(overall.values())


@settings(max_examples=30, deadline=None)
@given(_annotations)
def test_report_counts_a_statement_for_every_app_that_discloses(annotations):
    with tempfile.TemporaryDirectory() as tmp:
        events_path, annotations_path = _write_study(
            Path(tmp), [], [json.dumps(annotation_json(app, p)) for app, p in annotations.items()])
        report = dict(ln.split("=", 1) for ln in _stdout_of(
            ["report", "--events", str(events_path), "--annotations", str(annotations_path),
             "--format", "machine_lines"]).splitlines())
    apps = {k.partition(".")[2]: int(v) for k, v in report.items()
            if k.startswith("element_apps.")}
    assert len(apps) == len(ELEMENT_FIELDS)
    for element, count in apps.items():
        assert int(report[f"element_statements.{element}"]) >= count, element


@settings(max_examples=30, deadline=None)
@given(_events, _annotations, st.data())
def test_check_does_not_depend_on_event_line_order(events, annotations, data):
    lines = [json.dumps(e) for e in events]
    shuffled = data.draw(st.permutations(lines))
    annotation_lines = [json.dumps(annotation_json(app, p)) for app, p in annotations.items()]
    outputs = []
    for event_lines in (lines, shuffled):
        with tempfile.TemporaryDirectory() as tmp:
            events_path, annotations_path = _write_study(Path(tmp), event_lines,
                                                         annotation_lines)
            outputs.append(_stdout_of(["check", "--events", str(events_path),
                                       "--annotations", str(annotations_path)]))
    assert outputs[0] == outputs[1]


# Runs in a fresh interpreter, because pytest has imported numpy already.
_IMPORT_PROBE = """
import json, sys
import transferaudit
package = sorted(m for m in sys.modules if m.startswith("transferaudit."))
from transferaudit.cli import main
stages, annotate = json.loads(sys.argv[1])
codes = [main(argv) for argv in stages]
without_model = "numpy" in sys.modules
pool = "multiprocessing" in sys.modules
sockets = sorted({"socket", "selectors"} & set(sys.modules))
codes.append(main(annotate))
import transferaudit.classifier, transferaudit.linear
with_model = "numpy" in sys.modules
import transferaudit.training
with_training = "numpy" in sys.modules
# import the model module afresh, alone: it must not need the features module
for name in [m for m in sys.modules if m.startswith("transferaudit.")]:
    del sys.modules[name]
import transferaudit.linear
with open(sys.argv[2], "w") as fh:
    json.dump([package, codes, without_model, pool, sockets, with_model, with_training,
               "transferaudit.features" in sys.modules], fh)
"""


def test_stages_without_a_model_do_not_import_numpy(model_dir, tmp_path):
    events_path, annotations_path = _write_study(
        tmp_path, [json.dumps(SHIELD_EVENT)], [json.dumps(SHIELD_ANNOTATION)])
    study = ["--events", str(events_path), "--annotations", str(annotations_path)]
    stages = [
        ["segment", str(DATA / "policies" / "com.viber.voip.txt")],
        ["scan", "--flows", str(DATA / "flows.jsonl"), "--catalog", str(DATA / "catalog.tsv"),
         "--geo", str(DATA / "geo.tsv")],
        ["check", *study],
        ["report", *study],
    ]
    annotate = ["annotate", "--model-dir", str(model_dir), *POLICIES]
    result = tmp_path / "probe.json"
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=src)
    probe = subprocess.run([sys.executable, "-c", _IMPORT_PROBE, json.dumps([stages, annotate]),
                            str(result)], env=env, capture_output=True, text=True, timeout=120)
    assert probe.returncode == 0, probe.stderr
    package, codes, without_model, pool, sockets, with_model, with_training, \
        linear_features = json.loads(result.read_text())
    assert package == []  # a bare `import transferaudit` loads no submodule
    assert codes == [0, 0, 0, 0, 0]
    assert not without_model
    assert not pool  # cross-validation and `annotate` import multiprocessing to fork
    assert sockets == []  # `flows` reads addresses through `_socket`
    assert not with_model  # loading and scoring a bundle is pure Python
    assert with_training  # the probe does see numpy once training is imported
    assert not linear_features  # the model file format lives with the classifier
