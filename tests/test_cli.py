"""End-to-end CLI tests over the fixture data."""

import json

import pytest

from conftest import DATA

from transferaudit.cli import main
from transferaudit.corpus import save_corpus


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


def test_check_date_override(model_dir, tmp_path, capsys):
    events_path = tmp_path / "events.jsonl"
    events_path.write_text(json.dumps({
        "app_id": "shield.app", "recipient_domain": "tracker.example",
        "dest_countries": ["US"], "recipient_kind": "third_party",
        "recipient_owner": "Tracker", "recipient_hq": "US",
        "any_idle_flow": False}) + "\n", encoding="utf-8")
    annotations_path = tmp_path / "annotations.jsonl"
    annotations_path.write_text(json.dumps({
        "app_id": "shield.app", "intention": True, "countries": ["US"],
        "adequacy": False, "scc": False, "bcr": False,
        "explicit_consent": False, "copy_means": True,
        "representative": False, "privacy_shield": True,
        "segments": []}) + "\n", encoding="utf-8")
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


def test_bad_corpus_is_input_error(tmp_path, capsys):
    bad = tmp_path / "bad.tsv"
    bad.write_text("only\ttwo\n", encoding="utf-8")
    assert main(["train", "--corpus", str(bad)]) == 1
    assert "error:" in capsys.readouterr().err
