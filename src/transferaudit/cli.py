"""Command-line interface.

Subcommands mirror the pipeline stages: `segment` policies, `train`
classifiers, `annotate` policies, `scan` flow logs, `check` events against
annotations, `report` aggregate results.  Exit codes: 0 success, 1 input
error, 2 internal error.  Only `train` and `annotate` import the classifier
modules, and so numpy.
"""

from __future__ import annotations

import argparse
import dataclasses
import datetime
import json
import sys
from pathlib import Path

from . import compliance, corpus, flows, reports, transparency
from .countries import load_country_dictionary
from .errors import AuditError
from .features import SCHEMES, TF, parse_ngram_range
from .rules import load_rules


def _cmd_segment(args) -> int:
    text = Path(args.policy).read_text(encoding="utf-8")
    doc = corpus.PolicyDocument(app_id=Path(args.policy).stem, raw_text=text)
    segments = corpus.segment_policy(doc, args.mode)
    out = sys.stdout
    for seg in segments:
        out.write(seg.text.replace("\\", "\\\\").replace("\n", "\\n") + "\n")
    return 0


def _cmd_train(args) -> int:
    from . import classifier, linear

    label_fns = {"intention": linear.intention_label, "adequacy": linear.adequacy_label}
    train_cfg = linear.TrainConfig(alpha=args.alpha, epochs=args.epochs, seed=args.seed)
    data = corpus.load_corpus(args.corpus)
    if args.task == "adequacy":
        # layer-two model: fit on transfer-intention segments only
        data = corpus.Corpus(samples=[s for s in data.samples if s.intention_label == 1])
    ngram = parse_ngram_range(args.ngram)
    if not (args.kfold or args.model_out):
        return 0
    # the CV folds and the final fit share one n-gram list per sample
    gram_lists, labels = classifier.labeled_grams(data, ngram, label_fns[args.task])
    if args.kfold:
        result = classifier.cross_validate_grams(gram_lists, labels, args.weighting, train_cfg,
                                                 args.kfold, args.seed,
                                                 fit_on_all=args.fit_on_all)
        for i, fold in enumerate(result.folds):
            print(f"fold {i}: precision={fold.precision:.4f} recall={fold.recall:.4f} "
                  f"f_measure={fold.f_measure:.4f}")
        means = " ".join(f"{k}={v:.4f}" for k, v in sorted(result.means.items()))
        print(f"mean: {means}")
    if args.model_out:
        bundle = classifier.fit_grams(gram_lists, labels, ngram, args.weighting, train_cfg)
        bundle.save(args.model_out, args.task)
        print(f"saved {args.task} model to {args.model_out}")
    return 0


def _load_annotator(args) -> transparency.SegmentAnnotator:
    from . import classifier

    intention = classifier.TextClassifier.load(args.model_dir, "intention")
    adequacy = None
    if Path(args.model_dir, "adequacy.model.tsv").exists():
        adequacy = classifier.TextClassifier.load(args.model_dir, "adequacy")
    rules = load_rules(args.rules) if args.rules else transparency.default_rules()
    dictionary = load_country_dictionary(args.dict)
    return transparency.SegmentAnnotator(
        intention_model=intention, adequacy_model=adequacy,
        rules=rules, dictionary=dictionary)


def _cmd_annotate(args) -> int:
    annotator = _load_annotator(args)
    for path in args.policies:
        text = Path(path).read_text(encoding="utf-8")
        doc = corpus.PolicyDocument(app_id=Path(path).stem, raw_text=text)
        segments = corpus.segment_policy(doc, args.mode)
        policy = annotator.annotate_policy([s.text for s in segments])
        print(json.dumps(transparency.annotation_json(doc.app_id, policy), sort_keys=True))
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
    empty = transparency.PolicyAnnotation()
    assessments = [
        compliance.assess_app(app_id, events_by_app.get(app_id, []),
                              annotations.get(app_id, empty), juris)
        for app_id in sorted(app_ids)
    ]
    return annotations, assessments


def _verdict_line(v: compliance.Verdict) -> str:
    mismatch = ""
    if v.country_mismatch:
        actual, disclosed = v.country_mismatch
        mismatch = f"{actual}!={','.join(sorted(disclosed))}"
    return "\t".join([
        v.app_id, v.recipient_domain, v.country, v.transfer_type, v.verdict_class,
        ",".join(sorted(v.missing_elements)) or "-",
        mismatch or "-",
        v.invalid_safeguard_reason or "-",
    ])


def _cmd_check(args) -> int:
    _, assessments = _assess_study(args, all_apps=False)
    for assessment in assessments:
        for verdict in assessment.verdicts:
            print(_verdict_line(verdict))
        print(f"{assessment.app_id}\t-\t-\t-\t{assessment.overall}\t-\t-\t-")
    return 0


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
    p.add_argument("--task", choices=["intention", "adequacy"], default="intention")
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

    p = sub.add_parser("check", help="judge events against policy annotations")
    p.add_argument("--events", required=True)
    p.add_argument("--annotations", required=True)
    p.add_argument("--jurisdiction")
    p.add_argument("--date", help="override the assessment date (ISO)")
    p.set_defaults(fn=_cmd_check)

    p = sub.add_parser("report", help="aggregate events + annotations into a report")
    p.add_argument("--events", required=True)
    p.add_argument("--annotations", required=True)
    p.add_argument("--jurisdiction")
    p.add_argument("--format", choices=[reports.TEXT_TABLE, reports.MACHINE_LINES],
                   default=reports.TEXT_TABLE)
    p.set_defaults(fn=_cmd_report, date=None)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (AuditError, FileNotFoundError, PermissionError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # pragma: no cover - internal failures
        print(f"internal error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
