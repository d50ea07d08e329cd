"""Spans and counters around calls into the program's layers.

`install()` wraps each public name in `LAYERS` where its callers look it up:
every `transferaudit` module attribute bound to the function, or the class
attribute for a method.  A wrapper records one span (name, start, end,
parent) and, through the layer's hook, counters taken from arguments and
return values.  Spans stay in memory until `Tracer.dump` writes them when
the stage ends.  `summarize` turns the dumps of a session's stage processes
into per-layer calls, self time and counters.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from collections import Counter
from pathlib import Path


def _vectorize(c, args, kwargs, result):
    c["features.vectorize.features"] += len(result.entries)


def _build_vocabulary(c, args, kwargs, result):
    c["features.vocabulary_size.total"] += len(result)


def _train(c, args, kwargs, result):
    samples = args[0] if args else kwargs["samples"]
    cfg = args[1] if len(args) > 1 else kwargs["cfg"]
    c["linear.train.updates"] += len(samples) * cfg.epochs


def _matched_elements(c, args, kwargs, result):
    c["rules.hits"] += bool(result)


def _annotate_segment(c, args, kwargs, result):
    c["transparency.intention_positive"] += bool(result.intention)


def _scan_payload(c, args, kwargs, result):
    c["flows.scan_payload.bytes"] += len(args[0])
    c["flows.scan_payload.hits"] += bool(result)


def _geolocate(c, args, kwargs, result):
    c["flows.dropped.unresolved_country"] += result is None


def _classify_recipient(c, args, kwargs, result):
    unknown = result.kind == "unknown"
    c["flows.dropped.unknown_recipient"] += unknown
    c["flows.kept"] += not unknown


def _build_transfer_events(c, args, kwargs, result):
    c["flows.in"] += len(args[0] if args else kwargs["flows"])


def _load_geo_table(c, args, kwargs, result):
    c["flows.geo_networks"] += len(result.networks)


def _judge_event(c, args, kwargs, result):
    c["compliance.judgments"] += len(result)


# (layer name, module, attribute path, counter hook)
LAYERS = (
    ("corpus.segment_policy", "transferaudit.corpus", "segment_policy", None),
    ("features.tokenize", "transferaudit.features", "tokenize", None),
    ("features.vectorize", "transferaudit.features", "vectorize", _vectorize),
    ("features.build_vocabulary", "transferaudit.features", "build_vocabulary",
     _build_vocabulary),
    ("classifier.predict_text", "transferaudit.classifier", "TextClassifier.predict_text", None),
    ("linear.decision_value", "transferaudit.linear", "decision_value", None),
    ("linear.train", "transferaudit.linear", "train", _train),
    ("rules.matched_elements", "transferaudit.rules", "matched_elements", _matched_elements),
    ("countries.detect_target_countries", "transferaudit.countries",
     "detect_target_countries", None),
    ("transparency.annotate_segment", "transferaudit.transparency", "annotate_segment",
     _annotate_segment),
    ("flows.load_flow_log", "transferaudit.flows", "load_flow_log", None),
    ("flows.scan_payload", "transferaudit.flows", "scan_payload", _scan_payload),
    ("flows.geolocate", "transferaudit.flows", "geolocate", _geolocate),
    ("flows.lookup_ip", "transferaudit.flows", "GeoTable.lookup_ip", None),
    ("flows.classify_recipient", "transferaudit.flows", "classify_recipient",
     _classify_recipient),
    ("flows.build_transfer_events", "transferaudit.flows", "build_transfer_events",
     _build_transfer_events),
    ("compliance.assess_app", "transferaudit.compliance", "assess_app", None),
    ("compliance.judge_event", "transferaudit.compliance", "judge_event", _judge_event),
    ("reports.summarize", "transferaudit.reports", "summarize", None),
    ("reports.emit_report", "transferaudit.reports", "emit_report", None),
    # loaders: the set-up every stage pays before its first record
    ("classifier.TextClassifier.load", "transferaudit.classifier", "TextClassifier.load", None),
    ("transparency.default_rules", "transferaudit.transparency", "default_rules", None),
    ("countries.load_country_dictionary", "transferaudit.countries",
     "load_country_dictionary", None),
    ("flows.load_owner_list", "transferaudit.flows", "load_owner_list", None),
    ("flows.load_catalog", "transferaudit.flows", "load_catalog", None),
    ("flows.load_geo_table", "transferaudit.flows", "load_geo_table", _load_geo_table),
    ("compliance.load_jurisdiction", "transferaudit.compliance", "load_jurisdiction", None),
    ("corpus.load_corpus", "transferaudit.corpus", "load_corpus", None),
)
STAGES = ("train", "annotate", "scan", "check", "report")


class Tracer:
    """Spans as (name index, start, end, parent index) plus counters."""

    def __init__(self):
        self.names: list[str] = []
        self.spans: list = []
        self.stack: list[int] = []
        self.counters: Counter = Counter()
        self.absent: list[str] = []

    def wrap(self, name: str, fn, hook=None):
        name_id = len(self.names)
        self.names.append(name)
        spans, stack, counters = self.spans, self.stack, self.counters
        clock = time.perf_counter

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name_id, start, end, parent)
            if hook is not None:
                hook(counters, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def dump(self, path: Path, stem_info) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": self.names, "spans": self.spans,
                       "counters": dict(self.counters), "absent": self.absent,
                       "stem": [stem_info.hits, stem_info.misses]}, fh)


def install(tracer: Tracer) -> None:
    """Wrap every layer in LAYERS; a layer whose name is gone is recorded absent."""
    modules = [m for name, m in sorted(sys.modules.items())
               if name == "transferaudit" or name.startswith("transferaudit.")]
    for layer, module_name, path, hook in LAYERS:
        owner = importlib.import_module(module_name)
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part, None)
        raw = owner.__dict__.get(attr) if owner is not None else None
        if raw is None:
            tracer.absent.append(layer)
            continue
        if isinstance(raw, classmethod):
            setattr(owner, attr, classmethod(tracer.wrap(layer, raw.__func__, hook)))
        elif outer:
            setattr(owner, attr, tracer.wrap(layer, raw, hook))
        else:
            wrapped = tracer.wrap(layer, raw, hook)
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is raw:
                        setattr(module, name, wrapped)


def self_times(spans: list) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children: dict[int, list[int]] = {}
    for index, (_, _, _, parent) in enumerate(spans):
        if parent >= 0:
            children.setdefault(parent, []).append(index)
    result = []
    for index, (_, start, end, _) in enumerate(spans):
        covered = 0.0
        reach = start
        for child in sorted(children.get(index, ()), key=lambda i: spans[i][1]):
            lo, hi = max(spans[child][1], reach), min(spans[child][2], end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        result.append((end - start) - covered)
    return result


def summarize(dumps: list[dict]) -> tuple[dict, list[dict]]:
    """Per-layer metrics over a session's stage dumps, and per-stage span sums.

    Returns ({metric: (value, unit)}, [{stage, span_s, self_sum_s}] per dump,
    sorted names of absent layers).
    """
    calls: Counter = Counter()
    self_s: Counter = Counter()
    counters: Counter = Counter()
    stem_hits = stem_misses = 0
    absent: set[str] = set()
    stages = []
    for dump in dumps:
        names, spans = dump["names"], dump["spans"]
        selfs = self_times(spans)
        for (name_id, start, end, parent), own in zip(spans, selfs):
            calls[names[name_id]] += 1
            self_s[names[name_id]] += own
        roots = [s for s in spans if s[3] < 0 and names[s[0]].startswith("cli.")]
        stages.append({"stage": names[roots[0][0]] if roots else "?",
                       "span_s": sum(s[2] - s[1] for s in roots),
                       "self_sum_s": sum(selfs)})
        counters.update(dump["counters"])
        stem_hits += dump["stem"][0]
        stem_misses += dump["stem"][1]
        absent.update(dump["absent"])

    def ratio(num, den):
        return num / den if den else 0.0

    metrics: dict[str, tuple[float, str]] = {}
    layer_names = [layer for layer, *_ in LAYERS] + [f"cli.{s}" for s in STAGES]
    for layer in layer_names:
        metrics[f"{layer}.calls"] = (calls[layer], "count")
        metrics[f"{layer}.self_s"] = (self_s[layer], "s")
    flows_in = counters["flows.in"]
    derived = {
        "features.vectorize.features_per_call":
            (ratio(counters["features.vectorize.features"], calls["features.vectorize"]),
             "count"),
        "features.vocabulary_size":
            (ratio(counters["features.vocabulary_size.total"],
                   calls["features.build_vocabulary"]), "count"),
        "stemmer.stem.calls": (stem_hits + stem_misses, "count"),
        "stemmer.stem.cache_hit_ratio": (ratio(stem_hits, stem_hits + stem_misses), "ratio"),
        "linear.train.updates": (counters["linear.train.updates"], "count"),
        "rules.hit_ratio": (ratio(counters["rules.hits"], calls["rules.matched_elements"]),
                            "ratio"),
        "transparency.intention_positive_ratio":
            (ratio(counters["transparency.intention_positive"],
                   calls["transparency.annotate_segment"]), "ratio"),
        "flows.scan_payload.bytes": (counters["flows.scan_payload.bytes"], "B"),
        "flows.scan_payload.hit_ratio":
            (ratio(counters["flows.scan_payload.hits"], calls["flows.scan_payload"]), "ratio"),
        "flows.kept_ratio": (ratio(counters["flows.kept"], flows_in), "ratio"),
        # a flow reaches geolocation only once personal data was found in it
        "flows.dropped.no_personal_data": (flows_in - calls["flows.geolocate"], "count"),
        "flows.dropped.unresolved_country":
            (counters["flows.dropped.unresolved_country"], "count"),
        "flows.dropped.unknown_recipient":
            (counters["flows.dropped.unknown_recipient"], "count"),
        "flows.geo_networks": (counters["flows.geo_networks"], "count"),
        "compliance.judgments": (counters["compliance.judgments"], "count"),
    }
    metrics.update(derived)
    metrics = {k: (float(v), u) for k, (v, u) in metrics.items()}
    return metrics, stages, sorted(absent)
