"""The benchmark's own tests, which read parts of the package's API."""

import importlib.util
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

from conftest import DATA

from transferaudit.cli import main
from transferaudit.corpus import save_corpus
from transferaudit.flows import (geolocate, load_catalog, load_flow_log, load_geo_table,
                                 scan_payload)

ROOT = Path(__file__).resolve().parent.parent


def test_benchmark_tests_pass():
    # in a child process: tests/ and perfbench/ each have a conftest.py that
    # imports as `conftest`, so the two suites cannot share one process
    result = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                             "perfbench"], cwd=ROOT, capture_output=True, text=True)
    assert result.returncode == 0, result.stdout + result.stderr


def test_check_train_accepts_what_train_writes(tmp_path, capsys, monkeypatch,
                                               intention_corpus, adequacy_corpus):
    # the benchmark's checker reads the model files that `train` writes;
    # it is loaded from its file, as the benchmark runs it
    spec = importlib.util.spec_from_file_location("perfbench_check",
                                                  ROOT / "perfbench" / "check.py")
    check = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, check)  # its dataclasses look it up
    spec.loader.exec_module(check)
    models, kfold_out, rcs = tmp_path / "models", tmp_path / "kfold.txt", {}
    for task, corpus, weighting in [("intention", intention_corpus, "tf"),
                                    ("adequacy", adequacy_corpus, "tfidf")]:
        save_corpus(corpus, tmp_path / f"{task}.tsv")
        args = ["train", "--task", task, "--corpus", str(tmp_path / f"{task}.tsv"),
                "--ngram", "1-2", "--weighting", weighting]
        if task == "intention":
            kfold_rc = main([*args, "--kfold", "5"])
            kfold_out.write_text(capsys.readouterr().out, encoding="utf-8")
        rcs[task] = main([*args, "--model-out", str(models)])
    result = check.check_train(kfold_rc, kfold_out, rcs, models)
    assert (result.attempted, result.failed, result.notes) == (3, 0, [])


# the layers the tracer names that the program no longer defines under those
# names: their work moved into other functions and methods
_ABSENT = ["features.build_vocabulary", "features.vectorize", "linear.train",
           "transparency.annotate_segment"]


def test_the_tracer_fits_every_stage(tmp_path, intention_corpus, adequacy_corpus):
    # a traced benchmark run wraps the program's layers by name and reads their
    # arguments and return values: a renamed layer would show only as absent
    # there, and a changed return value would fail the stage
    corpora, models = {}, tmp_path / "models"
    for task, corpus, weighting in [("intention", intention_corpus, "tf"),
                                    ("adequacy", adequacy_corpus, "tfidf")]:
        corpora[task] = ["--task", task, "--corpus", str(tmp_path / f"{task}.tsv"),
                         "--ngram", "1-2", "--weighting", weighting]
        save_corpus(corpus, tmp_path / f"{task}.tsv")
        assert main(["train", *corpora[task], "--model-out", str(models)]) == 0
    events, annotations = tmp_path / "events.jsonl", tmp_path / "annotations.jsonl"
    study = ["--events", str(events), "--annotations", str(annotations)]
    stages = [
        (["train", *corpora["intention"], "--kfold", "5"], None),
        (["annotate", "--model-dir", str(models),
          *sorted(map(str, (DATA / "policies").glob("*.txt")))], annotations),
        (["scan", "--flows", str(DATA / "flows.jsonl"), "--catalog", str(DATA / "catalog.tsv"),
          "--geo", str(DATA / "geo.tsv")], events),
        (["check", *study], None),
        (["report", *study, "--format", "machine_lines"], None),
    ]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    counters, calls, stdouts = {}, {}, {}
    for argv, stdout in stages:
        dump = tmp_path / f"{argv[0]}.json"
        result = subprocess.run([sys.executable, str(ROOT / "perfbench" / "child.py"), "trace",
                                 str(dump), *argv], cwd=tmp_path, env=env,
                                capture_output=True, text=True)
        assert result.returncode == 0, (argv[0], result.stderr)
        if stdout is not None:
            stdout.write_text(result.stdout, encoding="utf-8")
        traced = json.loads(dump.read_text(encoding="utf-8"))
        assert sorted(traced["absent"]) == _ABSENT, argv[0]
        counters[argv[0]], stdouts[argv[0]] = traced["counters"], result.stdout
        calls[argv[0]] = Counter(traced["names"][span[0]] for span in traced["spans"])
    flows = load_flow_log(DATA / "flows.jsonl")
    catalog, geo = load_catalog(DATA / "catalog.tsv"), load_geo_table(DATA / "geo.tsv")
    assert counters["scan"]["flows.in"] == len(flows)
    assert counters["scan"]["flows.geo_networks"] == len(geo.networks)
    # the benchmark derives its scan hit, drop and kept figures from one call
    # per flow to each of these layers
    scanned = [f for f in flows if f.detected_types is None]
    personal = [f for f in flows if (f.detected_types if f.detected_types is not None
                                     else scan_payload(f.payload, catalog))]
    located = [f for f in personal
               if geolocate(geo, ip=f.dest_ip, fqdn=f.dest_fqdn, resolved=f.country)]
    assert [calls["scan"][f"flows.{layer}"] for layer in
            ("scan_payload", "geolocate", "classify_recipient")] == \
        [len(scanned), len(personal), len(located)]
    verdicts = [line for line in stdouts["check"].splitlines() if line.split("\t")[1] != "-"]
    assert counters["check"]["compliance.judgments"] == len(verdicts) > 0
