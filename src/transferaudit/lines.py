"""The line formats of input files.

A `#`-commented data file (gazetteer, owner list, catalog, geo table, rules,
jurisdiction snapshot, stop words, public suffixes, generic tokens) skips
every line that is empty or starts with `#`; lines break at `\\n`, `\\r\\n`
or `\\r`.  Line-delimited JSON holds one object per line, blank lines
skipped.  Readers yield line numbers, so that every error can name its line.
"""

from __future__ import annotations

import json
from collections.abc import Iterable, Iterator
from importlib import resources

from .errors import ParseError


def data_lines(path, default: str | None = None) -> Iterator[tuple[int, str]]:
    """Yield (line number, line) per data line; a `path` of None reads the
    shipped file `default`."""
    fh = open(path, encoding="utf-8") if path is not None else \
        resources.files("transferaudit.data").joinpath(default).open(encoding="utf-8")
    with fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.rstrip("\n")
            if line and not line.startswith("#"):
                yield lineno, line


def tab_records(path, usage: str, default: str | None = None) -> Iterator[tuple[int, list[str]]]:
    """Yield (line number, fields) per data line split on TAB; `usage` names
    the fields, as `a TAB b`, and a line with another field count is a
    ParseError."""
    count = usage.count(" TAB ") + 1
    for lineno, line in data_lines(path, default):
        fields = line.split("\t")
        if len(fields) != count:
            raise ParseError(f"expected `{usage}`", lineno)
        yield lineno, fields


def json_records(lines: Iterable[str]) -> Iterator[tuple[int, dict]]:
    """Yield (line number, object) per non-blank line; anything else is a ParseError."""
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ParseError(f"bad JSON: {exc}", lineno) from exc
        if not isinstance(obj, dict):
            raise ParseError("expected a JSON object", lineno)
        yield lineno, obj
