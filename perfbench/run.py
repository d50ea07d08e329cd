"""Benchmark of the transferaudit CLI on seeded workloads.

    python3 perfbench/run.py --workload audit-policies --seed 1 --seconds 10 --trace 0

Generates the workload's inputs from the seed, then runs a user's session,
one stage at a time, each in a fresh process through `transferaudit.cli`:
train with 5-fold CV, train the intention and adequacy models, annotate the
policies, scan the capture, check and report.  The session repeats until
--seconds have passed (at least once); every output is checked against the
generator's ground truth.  Metrics are medians over the rounds.

--trace 0 prints the end-to-end metrics, with set-up timed separately in
fresh processes.  --trace 1 runs one untraced and one traced session and
prints per-layer calls, self time and counters, plus the tracing overhead.
The last line of stdout is one JSON object: correct, attempted, failed and
metrics.  See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import check
import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SETUP_REPEATS = 7
STAGE_TIMEOUT_S = 150

# Gated end-to-end metrics.  Each workload's session is dominated by the
# stages it exists for, so session_s moves with them; per-stage figures are
# printed and recorded per layer instead, because a stage that is a small
# part of a session lasts about a second there, too short to gate on.
E2E_UNITS = {"setup_s": "s", "session_s": "s"}
STAGE_UNITS = {
    "audit_s": "s",
    "training_s": "s",
    "annotate.policies_per_s": "1/s",
    "scan.flows_per_s": "1/s",
    "check.judgments_per_s": "1/s",
    "report.apps_per_s": "1/s",
    "train_s": "s",
    "kfold_s": "s",
}


def _session(inputs, out: Path) -> list[tuple[str, list[str], Path]]:
    """(step, CLI arguments, stdout file) of one session, in order."""
    d = inputs.directory.relative_to(out.parent)
    models = "models"
    corpus = ["--corpus", str(d / "corpus.tsv"), "--ngram", "1-2"]
    events, annotations = "out/events.jsonl", "out/annotations.jsonl"
    if inputs.study_events is not None:
        events, annotations = "out/study_events.jsonl", "out/study_annotations.jsonl"
    policies = [str(p.path.relative_to(out.parent)) for p in inputs.policies]
    return [
        ("kfold", ["train", "--task", "intention", *corpus, "--weighting", "tf",
                   "--kfold", "5"], out / "kfold.txt"),
        ("train.intention", ["train", "--task", "intention", *corpus, "--weighting", "tf",
                             "--model-out", models], out / "train_intention.txt"),
        ("train.adequacy", ["train", "--task", "adequacy", *corpus, "--weighting", "tfidf",
                            "--model-out", models], out / "train_adequacy.txt"),
        ("annotate", ["annotate", "--model-dir", models, *policies], out / "annotations.jsonl"),
        ("scan", ["scan", "--flows", str(d / "flows.jsonl"), "--catalog",
                  str(d / "catalog.tsv"), "--geo", str(d / "geo.tsv")], out / "events.jsonl"),
        ("check", ["check", "--events", events, "--annotations", annotations],
         out / "verdicts.tsv"),
        ("report", ["report", "--events", events, "--annotations", annotations,
                    "--format", "machine_lines"], out / "report.txt"),
    ]


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    # outputs do not depend on hash order; a fixed seed removes its timing noise
    env["PYTHONHASHSEED"] = "0"
    return env


def _merge_study(inputs, out: Path) -> None:
    """A merged study: this session's outputs followed by the study set."""
    for mine, study, merged in (
            (out / "events.jsonl", inputs.study_events, out / "study_events.jsonl"),
            (out / "annotations.jsonl", inputs.study_annotations,
             out / "study_annotations.jsonl")):
        with open(merged, "wb") as fh:
            for part in (mine, study):
                if part.exists():
                    fh.write(part.read_bytes())


def run_round(inputs, work: Path, trace_dir: Path | None) -> dict:
    """One session; returns wall seconds and exit code per step."""
    out = work / "out"
    out.mkdir(exist_ok=True)
    walls, rcs = {}, {}
    for step, argv, stdout in _session(inputs, out):
        if step == "check" and inputs.study_events is not None:
            _merge_study(inputs, out)
        if trace_dir is None:
            cmd = [sys.executable, "-m", "transferaudit.cli", *argv]
        else:
            cmd = [sys.executable, str(HERE / "child.py"), "trace",
                   str(trace_dir / f"{step}.json"), *argv]
        with open(stdout, "wb") as fh_out, open(out / f"{step}.stderr", "wb") as fh_err:
            start = time.perf_counter()
            try:
                rc = subprocess.run(cmd, stdout=fh_out, stderr=fh_err, cwd=work,
                                    env=_env(), timeout=STAGE_TIMEOUT_S).returncode
            except subprocess.TimeoutExpired:
                rc = -1
            walls[step] = time.perf_counter() - start
        rcs[step] = rc
    return {"walls": walls, "rcs": rcs}


def check_round(inputs, work: Path, rnd: dict, juris) -> tuple:
    """(check.Result, verdict lines called for, apps reported) of one session."""
    out, rcs = work / "out", rnd["rcs"]
    result = check.guarded(check.check_train, 3, rcs["kfold"], out / "kfold.txt",
                           {"intention": rcs["train.intention"],
                            "adequacy": rcs["train.adequacy"]}, work / "models")
    result.add(check.guarded(check.check_annotate, len(inputs.policies), rcs["annotate"],
                             out / "annotations.jsonl", inputs.policies))
    result.add(check.guarded(check.check_scan, len(inputs.flow_truths), rcs["scan"],
                             out / "events.jsonl", inputs))
    study = inputs.study_events is not None
    events = out / ("study_events.jsonl" if study else "events.jsonl")
    annotations = out / ("study_annotations.jsonl" if study else "annotations.jsonl")
    # unreadable events leave the verdict count unknown: one failed operation
    verdicts = check.guarded(check.check_verdicts, 1, rcs["check"], out / "verdicts.tsv",
                             rcs["report"], out / "report.txt", events, annotations, juris)
    result.add(verdicts)
    apps = 0
    for line in (out / "report.txt").read_text(encoding="utf-8").splitlines():
        if line.startswith("total_apps="):
            apps = int(line.split("=", 1)[1])
    return result, verdicts.attempted, apps


def session_metrics(inputs, rnd: dict, judgments: int, apps: int) -> dict[str, float]:
    w = rnd["walls"]
    return {
        "session_s": sum(w.values()),
        "audit_s": w["annotate"] + w["scan"] + w["check"] + w["report"],
        "annotate.policies_per_s": len(inputs.policies) / w["annotate"],
        "scan.flows_per_s": len(inputs.flow_truths) / w["scan"],
        "check.judgments_per_s": judgments / w["check"],
        "report.apps_per_s": apps / w["report"],
        "train_s": w["train.intention"] + w["train.adequacy"],
        "kfold_s": w["kfold"],
        "training_s": w["kfold"] + w["train.intention"] + w["train.adequacy"],
    }


def setup_seconds(inputs, work: Path) -> tuple[float, int]:
    """Median over fresh processes of import plus every loader's first call,
    and the number of processes that failed (charged their wall time)."""
    samples, failures = [], 0
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), "setup", str(inputs.directory),
             str(work / "models")], capture_output=True, text=True, cwd=work, env=_env(),
            timeout=STAGE_TIMEOUT_S)
        if proc.returncode == 0:
            samples.append(float(proc.stdout.split()[-1]))
        else:
            failures += 1
            samples.append(time.perf_counter() - start)
    return statistics.median(samples), failures


def _print_layers(metrics: dict, absent: list[str], stages: dict[str, dict],
                  untraced: dict, traced: dict) -> None:
    print("per-layer (traced session)")
    for name, (value, unit) in metrics.items():
        layer = name.rsplit(".", 1)[0]
        flag = "  absent" if layer in absent else ""
        print(f"  {name:<48} {value:>14.6g} {unit}{flag}")
    print("stage spans: traced wall, untraced wall, overhead, span, sum of self times")
    for step, info in stages.items():
        t, u = traced[step], untraced[step]
        print(f"  {step:<16} {t:8.3f} s {u:8.3f} s {t - u:+8.3f} s "
              f"{info['span_s']:8.3f} s {info['self_sum_s']:8.3f} s")
    total_t, total_u = sum(traced.values()), sum(untraced.values())
    print(f"tracing overhead: {total_t - total_u:+.3f} s on {total_u:.3f} s untraced "
          f"({(total_t - total_u) / total_u:+.1%})")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "transferaudit" / "cli.py").is_file():
        print(f"error: no transferaudit source tree at {SRC}", file=sys.stderr)
        return 1
    sys.path.insert(0, str(SRC))
    import gen  # imports the program, so only once the source tree is known
    from transferaudit.compliance import load_jurisdiction

    if args.workload not in gen.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(gen.WORKLOADS)}")
    work = WORK / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    inputs = gen.generate(args.workload, args.seed, work / "inputs")
    juris = load_jurisdiction()
    print(f"workload {args.workload}, seed {args.seed}")
    for name, (value, unit) in inputs.properties.items():
        print(f"property {name} = {value:.6g} {unit}")

    attempted = failed = 0
    rounds = []
    started = time.perf_counter()
    while not rounds or (not args.trace and time.perf_counter() - started < args.seconds):
        rnd = run_round(inputs, work, None)
        result, judgments, apps = check_round(inputs, work, rnd, juris)
        attempted, failed = attempted + result.attempted, failed + result.failed
        for note in result.notes:
            print(f"check failed: {note}", file=sys.stderr)
        rounds.append((rnd, session_metrics(inputs, rnd, max(judgments, 1), max(apps, 1))))
    print(f"rounds: {len(rounds)} in {time.perf_counter() - started:.1f} s")
    try:
        agreement = check.intention_agreement(work / "out" / "annotations.jsonl",
                                              inputs.policies)
        print(f"property annotate.intention_agreement = {agreement:.6g} ratio")
    except (ValueError, KeyError, TypeError):
        print("property annotate.intention_agreement = unreadable")
    values = {k: statistics.median(m[k] for _, m in rounds) for k in rounds[0][1]}
    for name, unit in STAGE_UNITS.items():
        print(f"metric {name} = {values[name]:.6g} {unit}")

    if args.trace:
        trace_dir = work / "trace"
        trace_dir.mkdir()
        traced = run_round(inputs, work, trace_dir)
        result, *_ = check_round(inputs, work, traced, juris)
        attempted, failed = attempted + result.attempted, failed + result.failed
        for note in result.notes:
            print(f"check failed (traced): {note}", file=sys.stderr)
        # a stage that died before tracing started leaves no dump
        steps = [step for step in traced["walls"] if (trace_dir / f"{step}.json").exists()]
        dumps = [json.loads((trace_dir / f"{step}.json").read_text(encoding="utf-8"))
                 for step in steps]
        layers, stages, absent = tracing.summarize(dumps)
        untraced = rounds[-1][0]["walls"]
        layers["tracing.overhead_s"] = (sum(traced["walls"].values())
                                        - sum(untraced.values()), "s")
        layers.update({k: (values[k], u) for k, u in STAGE_UNITS.items()})
        _print_layers(layers, absent, dict(zip(steps, stages)), untraced, traced["walls"])
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in layers.items()}
    else:
        values["setup_s"], setup_failures = setup_seconds(inputs, work)
        attempted, failed = attempted + SETUP_REPEATS, failed + setup_failures
        metrics = {k: {"value": values[k], "unit": u} for k, u in E2E_UNITS.items()}
        for name, unit in E2E_UNITS.items():
            print(f"metric {name} = {values[name]:.6g} {unit}")
    print(f"metric failed_ratio = {failed / attempted:.6g} ratio "
          f"({failed} of {attempted} operations failed)")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
