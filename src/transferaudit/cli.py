"""Command-line interface.

Subcommands mirror the pipeline stages: `segment` policies, `train`
classifiers, `annotate` policies, `scan` flow logs, `check` events against
annotations, `report` aggregate results.  Exit codes: 0 success, 1 input
error, 2 internal error.  Only `train` and `annotate` import the classifier
modules, and only they fork worker processes; only `train` imports numpy.
"""

from __future__ import annotations

import argparse
import dataclasses
import datetime
import functools
import gc
import json
import sys
from collections import Counter
from pathlib import Path

from . import compliance, corpus, flows, reports, transparency
from .countries import load_country_dictionary
from .errors import AuditError
from .features import SCHEMES, TF, parse_ngram_range, stopword_list
from .rules import load_rules


def _policy_document(path: str) -> corpus.PolicyDocument:
    """The policy in the UTF-8 file at `path`; its app id is the file's stem."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise AuditError(f"{path}: {exc}") from None
    return corpus.PolicyDocument(app_id=Path(path).stem, raw_text=text)


def _cmd_segment(args) -> int:
    segments = corpus.segment_policy(_policy_document(args.policy), args.mode)
    out = sys.stdout
    for seg in segments:
        out.write(seg.text.replace("\\", "\\\\").replace("\n", "\\n") + "\n")
    return 0


def _cmd_train(args) -> int:
    from . import linear, training

    train_cfg = linear.TrainConfig(alpha=args.alpha, epochs=args.epochs, seed=args.seed)
    samples = corpus.load_corpus(args.corpus)
    ngram = parse_ngram_range(args.ngram)
    if not (args.kfold or args.model_out):
        return 0
    # the CV folds and the final fit share the numbered n-grams of each sample
    grams = training.labeled_grams(samples, ngram, args.task)
    if args.kfold:
        result = training.cross_validate_grams(grams, args.weighting, train_cfg, args.kfold,
                                               args.seed, fit_on_all=args.fit_on_all)
        for i, fold in enumerate(result.folds):
            print(f"fold {i}: precision={fold.precision:.4f} recall={fold.recall:.4f} "
                  f"f_measure={fold.f_measure:.4f}")
        means = " ".join(f"{k}={v:.4f}" for k, v in sorted(result.means.items()))
        print(f"mean: {means}")
    if args.model_out:
        training.fit_grams(grams, args.weighting, train_cfg).save(args.model_out, args.task)
        print(f"saved {args.task} model to {args.model_out}")
    return 0


def _load_annotator(args) -> transparency.SegmentAnnotator:
    from . import classifier

    intention, adequacy = (classifier.TextClassifier.load(args.model_dir, task)
                           for task in corpus.TASKS)
    rules = load_rules(args.rules) if args.rules else transparency.default_rules()
    dictionary = load_country_dictionary(args.dict)
    return transparency.SegmentAnnotator(
        intention_model=intention, adequacy_model=adequacy,
        rules=rules, dictionary=dictionary)


def _annotation_line(annotator: transparency.SegmentAnnotator, mode: str, path: str) -> str:
    """The annotation JSON line of the policy file at `path`."""
    doc = _policy_document(path)
    segments = corpus.segment_policy(doc, mode)
    policy = annotator.annotate_policy([s.text for s in segments])
    return json.dumps(transparency.annotation_json(doc.app_id, policy), sort_keys=True)


def _cmd_annotate(args) -> int:
    from .parallel import ordered_map

    # a policy's app id is its file's stem, and an app id has one annotation
    stems = Counter(Path(path).stem for path in args.policies)
    repeated = sorted(stem for stem, count in stems.items() if count > 1)
    if repeated:
        raise AuditError(f"policy files share an app id: {', '.join(repeated)}")
    annotator = _load_annotator(args)
    stopword_list()  # loaded here once, for the forked workers to inherit
    annotate = functools.partial(_annotation_line, annotator, args.mode)
    for line in ordered_map(annotate, args.policies):
        print(line)
    return 0


def _cmd_scan(args) -> int:
    records = flows.load_flow_log(args.flows)
    catalog = flows.load_catalog(args.catalog)
    owners = flows.load_owner_list(args.owners)
    geo = flows.load_geo_table(args.geo) if args.geo else flows.GeoTable()
    events = flows.build_transfer_events(records, catalog, owners, geo)
    for event in events:
        print(json.dumps(flows.event_json(event), sort_keys=True))
    return 0


def _assess_study(args, all_apps: bool):
    """Load the events, the annotations and the jurisdiction; assess apps in id order.

    The apps are those with events, plus, with `all_apps`, those
    that have only an annotation.  Returns the annotations and assessments.
    """
    with open(args.events, encoding="utf-8") as fh:
        events_by_app = flows.read_events(fh)
    with open(args.annotations, encoding="utf-8") as fh:
        annotations = transparency.read_annotations(fh)
    juris = compliance.load_jurisdiction(args.jurisdiction)
    if args.date:
        juris = dataclasses.replace(
            juris, assessment_date=datetime.date.fromisoformat(args.date))
    app_ids = set(events_by_app)
    if all_apps:
        app_ids |= set(annotations)
    empty = transparency.annotate_policy([])
    assessments = [
        compliance.assess_app(app_id, events_by_app.get(app_id, []),
                              annotations.get(app_id, empty), juris)
        for app_id in sorted(app_ids)
    ]
    return annotations, assessments


def _verdict_line(v: compliance.Verdict) -> str:
    mismatch = "-"
    if v.country_mismatch:
        actual, disclosed = v.country_mismatch
        mismatch = f"{actual}!={','.join(sorted(disclosed))}"
    return (f"{v.event.app_id}\t{v.event.recipient_domain}\t{v.country}\t{v.transfer_type}\t"
            f"{v.verdict_class}\t{','.join(sorted(v.missing_elements)) or '-'}\t"
            f"{mismatch}\t{v.invalid_safeguard_reason or '-'}\n")


def _collector_paused(command):
    """Run `command` with the cyclic garbage collector paused, then restore it.

    `check` and `report` build hundreds of thousands of acyclic records,
    which the collector would traverse again and again for nothing.  The
    collector is restored only once the command has returned, and so has
    freed its records.
    """
    @functools.wraps(command)
    def run(args) -> int:
        enabled = gc.isenabled()
        gc.disable()
        try:
            return command(args)
        finally:
            if enabled:
                gc.enable()
    return run


@_collector_paused
def _cmd_check(args) -> int:
    _, assessments = _assess_study(args, all_apps=False)
    lines = []
    for assessment in assessments:
        lines += map(_verdict_line, assessment.verdicts)
        lines.append(f"{assessment.app_id}\t-\t-\t-\t{assessment.overall}\t-\t-\t-\n")
    sys.stdout.write("".join(lines))
    return 0


@_collector_paused
def _cmd_report(args) -> int:
    annotations, assessments = _assess_study(args, all_apps=True)
    summary = reports.summarize(assessments, annotations)
    sys.stdout.buffer.write(reports.emit_report(summary, args.format))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="transferaudit",
        description="Audit app cross-border personal-data transfers against "
                    "GDPR transparency requirements.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("segment", help="split a policy file into segments")
    p.add_argument("policy")
    p.add_argument("--mode", choices=[corpus.FULLSTOP, corpus.BLANKLINE],
                   default=corpus.FULLSTOP)
    p.set_defaults(fn=_cmd_segment)

    p = sub.add_parser("train", help="train/evaluate a classifier on a corpus")
    p.add_argument("--task", choices=corpus.TASKS, default=corpus.INTENTION)
    p.add_argument("--corpus", required=True)
    p.add_argument("--ngram", default="1-2", help="n-gram range, e.g. 1-2")
    p.add_argument("--weighting", choices=list(SCHEMES), default=TF)
    p.add_argument("--alpha", type=float, default=1e-3)
    p.add_argument("--epochs", type=int, default=50)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--kfold", type=int, default=0)
    p.add_argument("--fit-on-all", action="store_true",
                   help="fit the vocabulary on the whole corpus during CV")
    p.add_argument("--model-out", help="directory to save the trained model")
    p.set_defaults(fn=_cmd_train)

    p = sub.add_parser("annotate", help="annotate policy files (JSON per policy)")
    p.add_argument("policies", nargs="+")
    p.add_argument("--model-dir", required=True)
    p.add_argument("--rules")
    p.add_argument("--dict")
    p.add_argument("--mode", choices=[corpus.FULLSTOP, corpus.BLANKLINE],
                   default=corpus.FULLSTOP)
    p.set_defaults(fn=_cmd_annotate)

    p = sub.add_parser("scan", help="extract transfer events from a flow log")
    p.add_argument("--flows", required=True)
    p.add_argument("--catalog", required=True)
    p.add_argument("--owners")
    p.add_argument("--geo")
    p.set_defaults(fn=_cmd_scan)

    # the inputs of `check` and `report`
    study = argparse.ArgumentParser(add_help=False)
    study.add_argument("--events", required=True)
    study.add_argument("--annotations", required=True)
    study.add_argument("--jurisdiction")

    p = sub.add_parser("check", parents=[study],
                       help="judge events against policy annotations")
    p.add_argument("--date", help="override the assessment date (ISO)")
    p.set_defaults(fn=_cmd_check)

    p = sub.add_parser("report", parents=[study],
                       help="aggregate events + annotations into a report")
    p.add_argument("--format", choices=[reports.TEXT_TABLE, reports.MACHINE_LINES],
                   default=reports.TEXT_TABLE)
    p.set_defaults(fn=_cmd_report, date=None)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (AuditError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # pragma: no cover - internal failures
        print(f"internal error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
