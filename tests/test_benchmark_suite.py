"""The benchmark's own tests, which read parts of the package's API."""

import importlib.util
import subprocess
import sys
from pathlib import Path

from transferaudit.cli import main
from transferaudit.corpus import save_corpus

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
