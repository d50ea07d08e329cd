"""Every demo runs to completion against the library in `src/`, and the
README's examples are what the program reads and writes."""

import argparse
import io
import os
import re
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from transferaudit.classifier import TextClassifier
from transferaudit.cli import build_parser, main
from transferaudit.compliance import load_jurisdiction
from transferaudit.corpus import BLANKLINE, PolicyDocument, load_corpus, save_corpus, segment_policy
from transferaudit.countries import load_country_dictionary
from transferaudit.flows import (
    load_catalog,
    load_flow_log,
    load_geo_table,
    load_owner_list,
    read_events,
)
from transferaudit.rules import load_rules
from transferaudit.transparency import read_annotations

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
README = (ROOT / "README.md").read_text(encoding="utf-8")

# each README block tagged `format:<name>`, by name
FORMATS = dict(re.findall(r"```format:(\w+)\n(.*?)```", README, re.DOTALL))

# the reader of each file format, given the path of a file holding its example
READERS = {
    "policy": lambda p: segment_policy(PolicyDocument("app", p.read_text("utf-8")), BLANKLINE),
    "corpus": load_corpus,
    "rules": load_rules,
    "dictionary": load_country_dictionary,
    "catalog": load_catalog,
    "owners": load_owner_list,
    "geo": load_geo_table,
    "jurisdiction": load_jurisdiction,
    "flows": load_flow_log,
    "annotations": lambda p: read_annotations(p.open(encoding="utf-8")),
    "events": lambda p: read_events(p.open(encoding="utf-8")),
}


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run([sys.executable, str(demo)], cwd=ROOT, env=env,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr


def _write_formats(directory: Path) -> dict[str, Path]:
    paths = {}
    for name, text in FORMATS.items():
        paths[name] = directory / f"{name}.txt"
        paths[name].write_bytes(text.encode("utf-8"))
    return paths


def test_readme_has_one_example_per_format():
    tags = re.findall(r"```format:(\w+)", README)
    assert sorted(tags) == sorted({*READERS, "vocabulary", "model", "verdicts"})


@pytest.mark.parametrize("name", sorted(READERS))
def test_readme_format_example_reads(tmp_path, name):
    assert READERS[name](_write_formats(tmp_path)[name])


def test_readme_bundle_example_loads(tmp_path):
    (tmp_path / "m.vocab.tsv").write_bytes(FORMATS["vocabulary"].encode("utf-8"))
    (tmp_path / "m.model.tsv").write_bytes(FORMATS["model"].encode("utf-8"))
    bundle = TextClassifier.load(tmp_path, "m")
    assert bundle.ngram == (1, 1) and len(bundle.vocabulary) == 5


def _stdout(argv: list[str]) -> str:
    out = io.StringIO()
    with redirect_stdout(out):
        assert main(argv) == 0
    return out.getvalue()


def test_readme_examples_are_what_the_cli_writes(tmp_path):
    paths = _write_formats(tmp_path)
    _stdout(["train", "--corpus", str(paths["corpus"]), "--ngram", "1-1",
             "--model-out", str(tmp_path / "models")])
    for suffix, name in ("vocab", "vocabulary"), ("model", "model"):
        written = (tmp_path / "models" / f"intention.{suffix}.tsv").read_text(encoding="utf-8")
        assert written == FORMATS[name]
    events = _stdout(["scan", "--flows", str(paths["flows"]), "--catalog", str(paths["catalog"]),
                      "--owners", str(paths["owners"]), "--geo", str(paths["geo"])])
    assert events == FORMATS["events"]
    verdicts = _stdout(["check", "--events", str(paths["events"]),
                        "--annotations", str(paths["annotations"]),
                        "--jurisdiction", str(paths["jurisdiction"])])
    assert verdicts == FORMATS["verdicts"]


def test_readme_python_blocks_run(tmp_path, monkeypatch, intention_corpus, adequacy_corpus):
    blocks = re.findall(r"```python\n(.*?)```", README, re.DOTALL)
    assert blocks
    save_corpus([*intention_corpus, *adequacy_corpus], tmp_path / "corpus.tsv")
    policy = ROOT / "tests" / "data" / "policies" / "com.viber.voip.txt"
    (tmp_path / "policy.txt").write_bytes(policy.read_bytes())
    monkeypatch.chdir(tmp_path)
    for block in blocks:
        with redirect_stdout(io.StringIO()):
            exec(compile(block, "README.md", "exec"), {})


def _options(parser: argparse.ArgumentParser) -> set[str]:
    """The `--` options of the parser and of its subcommands."""
    options = set()
    for action in parser._actions:
        options.update(o for o in action.option_strings if o.startswith("--"))
        if isinstance(action, argparse._SubParsersAction):
            for sub in action.choices.values():
                options |= _options(sub)
    return options


def test_readme_names_the_options_of_the_parser():
    named = re.compile(r"(?<![\w-])--[a-z][a-z-]*")
    cli_section = README.split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    options = _options(build_parser())
    assert options - set(named.findall(README)) == set()
    assert set(named.findall(cli_section)) - options == set()
