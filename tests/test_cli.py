"""End-to-end CLI tests over the fixture data."""

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys
import tempfile
from collections import Counter
from importlib import resources
from pathlib import Path

import pytest
from conftest import DATA, policy_annotations
from hypothesis import given, settings
from hypothesis import strategies as st

from transferaudit import classifier
from transferaudit.cli import main
from transferaudit.compliance import NO_TRANSFER
from transferaudit.corpus import save_corpus
from transferaudit.flows import FIRST_PARTY, THIRD_PARTY
from transferaudit.transparency import annotation_json


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
    real = classifier.tokenize

    def counting(text):
        calls["tokenize"] += 1
        return real(text)

    monkeypatch.setattr(classifier, "tokenize", counting)
    assert main([*args, "--kfold", "5", "--model-out", str(tmp_path / "both")]) == 0
    assert calls["tokenize"] == len(intention_corpus.samples) == 62
    # sharing the n-grams changes nothing in what either step writes
    assert capsys.readouterr().out.startswith(kfold_out)
    for name in ("intention.model.tsv", "intention.vocab.tsv"):
        assert (tmp_path / "both" / name).read_bytes() == (tmp_path / "alone" / name).read_bytes()


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
    "dest_countries": ["US"], "recipient_kind": "third_party",
    "recipient_owner": "Tracker", "recipient_hq": "US", "any_idle_flow": False}
SHIELD_SEGMENT = {
    "intention": True, "countries": ["US"], "adequacy": False, "scc": False,
    "bcr": False, "explicit_consent": False, "copy_means": True,
    "representative": False, "privacy_shield": True}
SHIELD_ANNOTATION = {"app_id": "shield.app", **SHIELD_SEGMENT, "segments": []}


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


def _without(obj, key):
    return json.dumps({k: v for k, v in obj.items() if k != key})


def _with(obj, **fields):
    return json.dumps({**obj, **fields})


def _with_segment(**fields):
    return _with(SHIELD_ANNOTATION, app_id="other.app",
                 segments=[SHIELD_SEGMENT, {**SHIELD_SEGMENT, **fields}])


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
    ("events", _with(SHIELD_EVENT, dest_countries="US")),
    ("events", _with(SHIELD_EVENT, data_types="imei")),
    ("events", _with(SHIELD_EVENT, dest_countries=["de"])),
    ("events", _with(SHIELD_EVENT, recipient_kind="first-party")),
    ("events", _with(SHIELD_EVENT, recipient_hq="us")),
    ("events", _with(SHIELD_EVENT, any_idle_flow="yes")),
    ("events", _with(SHIELD_EVENT, recipient_domain=7)),
    ("events", _with(SHIELD_EVENT, recipient_owner=7)),
    ("annotations", _with(SHIELD_ANNOTATION, countries="US")),
    ("annotations", _with(SHIELD_ANNOTATION, countries=["us"])),
    ("annotations", _with(SHIELD_ANNOTATION, intention="yes")),
    ("annotations", _with(SHIELD_ANNOTATION, segments={})),
    ("annotations", _with(SHIELD_ANNOTATION, app_id=7)),
    ("annotations", _with_segment(countries="US")),
    ("annotations", _with_segment(countries=["de"])),
    ("annotations", _with_segment(scc="false")),
], ids=["event-no-domain", "event-no-app", "event-bad-json", "event-not-object",
        "annotation-no-scc", "segment-missing-fields", "annotation-bad-json",
        "annotation-not-object", "event-countries-string", "event-types-string",
        "event-lowercase-country", "event-kind-typo", "event-lowercase-hq",
        "event-idle-string", "event-domain-number", "event-owner-number",
        "annotation-countries-string", "annotation-lowercase-country",
        "annotation-intention-string", "annotation-segments-object",
        "annotation-app-number", "segment-countries-string",
        "segment-lowercase-country", "segment-flag-string"])
def test_malformed_record_is_input_error(tmp_path, capsys, command, which, bad_line):
    lines = {"events": [json.dumps(SHIELD_EVENT)],
             "annotations": [json.dumps(SHIELD_ANNOTATION)]}
    lines[which] += ["", bad_line]
    events_path, annotations_path = _write_study(tmp_path, **lines)
    assert main([command, "--events", str(events_path),
                 "--annotations", str(annotations_path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: line 3: ")


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
    rules = tmp_path / "rules.tsv"
    rules.write_text("scc\t('standard') w/4 ('clause')\nbcr\t('a') w/x ('b')\n",
                     encoding="utf-8")
    policy = tmp_path / "pol.txt"
    policy.write_text("We use standard contractual clauses.", encoding="utf-8")
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


_SHIPPED = resources.files("transferaudit.data")
_FRAMEWORK = "privacy_shield\tUS\t2020-07-16"


@pytest.mark.parametrize("option, source, old, new", [
    ("--catalog", DATA / "catalog.tsv", None, "AAID"),
    ("--owners", _SHIPPED / "owner_list.tsv", None, "bad.example\tBad\t\tUS"),
    ("--geo", DATA / "geo.tsv", None, "10.0.0.0/8"),
    ("--geo", DATA / "geo.tsv", None, "10.0.0.0/8\tde"),
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
], ids=["catalog", "owners", "geo", "geo-code", "owners-hq-code", "dict", "rules", "framework-line", "framework-date",
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
@pytest.mark.parametrize("ngram", ["1-5", "0-1", "3-2"])
def test_bad_ngram_range_is_input_error(tmp_path, capsys, intention_corpus, ngram, extra):
    corpus_path = tmp_path / "corpus.tsv"
    save_corpus(intention_corpus, corpus_path)
    extra = [arg.format(tmp=tmp_path) for arg in extra]
    assert main(["train", "--corpus", str(corpus_path), "--ngram", ngram, *extra]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "bad n-gram range" in captured.err


def test_bad_corpus_is_input_error(tmp_path, capsys):
    bad = tmp_path / "bad.tsv"
    bad.write_text("only\ttwo\n", encoding="utf-8")
    assert main(["train", "--corpus", str(bad)]) == 1
    assert "error:" in capsys.readouterr().err


_events = st.lists(st.fixed_dictionaries({
    "app_id": st.sampled_from(["a", "b", "c", "d"]),
    "recipient_domain": st.sampled_from(["adjust.com", "yandex.net", "a.com"]),
    "dest_countries": st.lists(st.sampled_from(["DE", "US", "IL", "CN", "JP"]),
                               unique=True, max_size=3),
    "recipient_kind": st.sampled_from([FIRST_PARTY, THIRD_PARTY]),
    "any_idle_flow": st.booleans(),
}), max_size=12)
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


# Runs in a fresh interpreter, because pytest has imported numpy already.
_IMPORT_PROBE = """
import json, sys
import transferaudit
package = sorted(m for m in sys.modules if m.startswith("transferaudit."))
from transferaudit.cli import main
codes = [main(argv) for argv in json.loads(sys.argv[1])]
without_model = "numpy" in sys.modules
import transferaudit.classifier
with open(sys.argv[2], "w") as fh:
    json.dump([package, codes, without_model, "numpy" in sys.modules], fh)
"""


def test_stages_without_a_model_do_not_import_numpy(tmp_path):
    events_path, annotations_path = _write_study(
        tmp_path, [json.dumps(SHIELD_EVENT)], [json.dumps(SHIELD_ANNOTATION)])
    study = ["--events", str(events_path), "--annotations", str(annotations_path)]
    commands = [
        ["segment", str(DATA / "policies" / "com.viber.voip.txt")],
        ["scan", "--flows", str(DATA / "flows.jsonl"), "--catalog", str(DATA / "catalog.tsv"),
         "--geo", str(DATA / "geo.tsv")],
        ["check", *study],
        ["report", *study],
    ]
    result = tmp_path / "probe.json"
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=src)
    probe = subprocess.run([sys.executable, "-c", _IMPORT_PROBE, json.dumps(commands),
                            str(result)], env=env, capture_output=True, text=True, timeout=120)
    assert probe.returncode == 0, probe.stderr
    package, codes, without_model, with_classifier = json.loads(result.read_text())
    assert package == []  # a bare `import transferaudit` loads no submodule
    assert codes == [0, 0, 0, 0]
    assert not without_model
    assert with_classifier  # the probe does see numpy once a model is imported
