"""Child-process entry points of the benchmark; each run is a fresh process.

    python3 perfbench/child.py setup <inputs dir> <models dir>
        Import the CLI and call every loader the workload's stages call, on
        the workload's files; print the seconds that took.
    python3 perfbench/child.py trace <dump.json> <transferaudit arguments...>
        Run one CLI stage through `transferaudit.cli.main` with every layer
        wrapped, then write the spans and counters to <dump.json>.

Both expect the source tree on PYTHONPATH.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path


def setup(inputs: Path, models: Path) -> float:
    start = time.perf_counter()
    from transferaudit import cli  # noqa: F401  (the import a stage pays)
    from transferaudit.classifier import TextClassifier
    from transferaudit.compliance import load_jurisdiction
    from transferaudit.corpus import load_corpus
    from transferaudit.countries import load_country_dictionary
    from transferaudit.flows import load_catalog, load_geo_table, load_owner_list
    from transferaudit.transparency import default_rules

    TextClassifier.load(models, "intention")
    TextClassifier.load(models, "adequacy")
    default_rules()
    load_country_dictionary()
    load_owner_list()
    load_catalog(inputs / "catalog.tsv")
    load_geo_table(inputs / "geo.tsv")
    load_jurisdiction()
    load_corpus(inputs / "corpus.tsv")
    return time.perf_counter() - start


def trace(dump: Path, argv: list[str]) -> int:
    from transferaudit import cli
    from transferaudit.stemmer import stem

    import tracing

    tracer = tracing.Tracer()
    tracing.install(tracer)
    main = tracer.wrap(f"cli.{argv[0]}", cli.main)
    try:
        return main(argv)
    finally:
        sys.stdout.flush()
        tracer.dump(dump, stem.cache_info())


if __name__ == "__main__":
    mode, *rest = sys.argv[1:]
    if mode == "setup":
        print(repr(setup(Path(rest[0]), Path(rest[1]))))
    elif mode == "trace":
        sys.exit(trace(Path(rest[0]), rest[1:]))
    else:
        sys.exit(f"unknown mode {mode!r}")
