"""Tests of the benchmark itself: `python3 -m pytest perfbench`."""

from __future__ import annotations

from pathlib import Path

import pytest

import check
import gen
import tracing
from transferaudit import cli
from transferaudit.compliance import load_jurisdiction

TINY = gen.Spec(corpus_segments=80, word_pool=3000, policies=12, flows=120, flow_apps=12,
                payload_share=0.5, resolution=(0.4, 0.5, 0.1), cidrs=200, study_apps=30)


@pytest.fixture
def tiny(monkeypatch):
    monkeypatch.setitem(gen.WORKLOADS, "tiny", TINY)
    return "tiny"


def _files(directory: Path) -> dict[str, bytes]:
    return {str(p.relative_to(directory)): p.read_bytes()
            for p in sorted(directory.rglob("*")) if p.is_file()}


def test_same_seed_same_inputs(tiny, tmp_path):
    first = gen.generate(tiny, 7, tmp_path / "a")
    second = gen.generate(tiny, 7, tmp_path / "b")
    other = gen.generate(tiny, 8, tmp_path / "c")
    assert _files(tmp_path / "a") == _files(tmp_path / "b")
    assert _files(tmp_path / "a") != _files(tmp_path / "c")
    assert first.properties == second.properties
    assert first.expected_events() == second.expected_events()


def _run_cli(argv: list[str], stdout: Path, capfdbinary) -> int:
    capfdbinary.readouterr()
    rc = cli.main(argv)
    stdout.write_bytes(capfdbinary.readouterr().out)
    return rc


@pytest.fixture
def scanned(tiny, tmp_path, capfdbinary):
    inputs = gen.generate(tiny, 3, tmp_path / "in")
    events = tmp_path / "events.jsonl"
    rc = _run_cli(["scan", "--flows", str(inputs.flows), "--catalog", str(inputs.catalog),
                   "--geo", str(inputs.geo)], events, capfdbinary)
    return inputs, events, rc


def test_checker_passes_scan_output_and_flags_missing_event(scanned, tmp_path):
    inputs, events, rc = scanned
    assert check.check_scan(rc, events, inputs).failed == 0
    lines = events.read_text().splitlines()
    missing = tmp_path / "missing.jsonl"
    missing.write_text("\n".join(lines[1:]) + "\n")
    result = check.check_scan(0, missing, inputs)
    assert result.failed >= 1
    assert "scan event" in result.notes[0]
    assert check.check_scan(1, events, inputs).failed == len(inputs.flow_truths)


def test_checker_passes_verdicts_and_flags_planted_wrong_verdict(scanned, tmp_path,
                                                                 capfdbinary):
    inputs, _, _ = scanned
    events, annotations = inputs.study_events, inputs.study_annotations
    verdicts, report = tmp_path / "verdicts.tsv", tmp_path / "report.txt"
    common = ["--events", str(events), "--annotations", str(annotations)]
    check_rc = _run_cli(["check", *common], verdicts, capfdbinary)
    report_rc = _run_cli(["report", *common, "--format", "machine_lines"], report, capfdbinary)
    juris = load_jurisdiction()
    result = check.check_verdicts(check_rc, verdicts, report_rc, report,
                                  events, annotations, juris)
    lines = verdicts.read_text().splitlines()
    written = sum(ln.split("\t")[1] != "-" for ln in lines)  # not the per-app overall lines
    assert result.failed == 0 and result.attempted == written > 0

    i = next(i for i, ln in enumerate(lines) if ln.split("\t")[4] in ("OD", "AD", "ID"))
    fields = lines[i].split("\t")
    fields[4] = "FD"
    lines[i] = "\t".join(fields)
    wrong = tmp_path / "wrong.tsv"
    wrong.write_text("\n".join(lines) + "\n")
    result = check.check_verdicts(check_rc, wrong, report_rc, report,
                                  events, annotations, juris)
    assert result.failed >= 1
    # a line cut short is unreadable output: every operation fails
    wrong.write_text("\n".join(lines[:-1] + ["app\tonly"]) + "\n")
    result = check.guarded(check.check_verdicts, 1, check_rc, wrong, report_rc, report,
                           events, annotations, juris)
    assert result.failed == result.attempted == 1


def test_self_times_on_hand_built_tree():
    # root 0..10 has children 1..4 and 5..6; the first child has 2..3
    spans = [(0, 0.0, 10.0, -1), (1, 1.0, 4.0, 0), (2, 2.0, 3.0, 1), (1, 5.0, 6.0, 0)]
    assert tracing.self_times(spans) == pytest.approx([6.0, 2.0, 1.0, 1.0])
    assert sum(tracing.self_times(spans)) == pytest.approx(10.0)
    # overlapping or out-of-bounds children are counted once, clipped to the parent
    spans = [(0, 0.0, 4.0, -1), (1, 1.0, 3.0, 0), (1, 2.0, 5.0, 0)]
    assert tracing.self_times(spans)[0] == pytest.approx(1.0)


def test_summarize_counts_calls_and_self_time():
    dump = {"names": ["cli.scan", "flows.scan_payload"],
            "spans": [(0, 0.0, 2.0, -1), (1, 0.5, 1.0, 0), (1, 1.0, 1.25, 0)],
            "counters": {"flows.scan_payload.bytes": 300, "flows.scan_payload.hits": 1},
            "absent": [], "stem": [3, 1]}
    metrics, stages, absent = tracing.summarize([dump])
    assert metrics["flows.scan_payload.calls"] == (2.0, "count")
    assert metrics["flows.scan_payload.self_s"] == (pytest.approx(0.75), "s")
    assert metrics["cli.scan.self_s"] == (pytest.approx(1.25), "s")
    assert metrics["flows.scan_payload.hit_ratio"] == (0.5, "ratio")
    assert metrics["stemmer.stem.cache_hit_ratio"] == (0.75, "ratio")
    assert stages == [{"stage": "cli.scan", "span_s": 2.0, "self_sum_s": pytest.approx(2.0)}]
    assert absent == []


def test_missing_layer_is_reported_absent(monkeypatch):
    monkeypatch.setattr(tracing, "LAYERS", (
        ("compliance.aggregate_app", "transferaudit.compliance", "no_such_function", None),
        ("flows.gone_method", "transferaudit.flows", "GeoTable.no_such_method", None),
    ))
    tracer = tracing.Tracer()
    tracing.install(tracer)
    assert tracer.absent == ["compliance.aggregate_app", "flows.gone_method"]


@pytest.mark.parametrize("seed", range(5))
def test_generated_places_are_detected_exactly(tiny, tmp_path, seed):
    """The countries planted in a segment are exactly what the gazetteer finds."""
    from transferaudit.corpus import PolicyDocument, segment_policy
    from transferaudit.countries import detect_target_countries, load_country_dictionary

    inputs = gen.generate(tiny, seed, tmp_path / "in")
    dictionary = load_country_dictionary()
    for truth in inputs.policies:
        doc = PolicyDocument(truth.app_id, truth.path.read_text(encoding="utf-8"))
        segments = segment_policy(doc)
        assert len(segments) == len(truth.segment_countries)
        for seg, planted in zip(segments, truth.segment_countries):
            assert detect_target_countries(seg.text.split(), dictionary) == planted

