"""The line formats of input files.

A `#`-commented data file (gazetteer, owner list, catalog, geo table, rules,
jurisdiction snapshot, stop words, public suffixes, generic tokens) skips
every line that is empty or starts with `#`; lines break at `\\n`, `\\r\\n`
or `\\r`.  Line-delimited JSON holds one object per line, blank lines
skipped; a field of the wrong JSON type is an error, not a value to coerce.
Readers yield line numbers, so that every error can name its line.
"""

from __future__ import annotations

import json
from collections.abc import Callable, Iterable, Iterator
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


def json_records(lines: Iterable[str], decode: Callable[[str], object] = json.loads,
                 ) -> Iterator[tuple[int, dict]]:
    """Yield (line number, object) per non-blank line; anything else is a ParseError.

    `decode` reads one line; a ValueError it raises names the line too.
    """
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            obj = decode(line)
        except json.JSONDecodeError as exc:
            raise ParseError(f"bad JSON: {exc}", lineno) from exc
        except ValueError as exc:
            raise ParseError(str(exc), lineno) from exc
        if not isinstance(obj, dict):
            raise ParseError("expected a JSON object", lineno)
        yield lineno, obj


def json_type_error(name: str, expected: str, value, lineno: int) -> ParseError:
    """The error for a JSON field `name` whose value is not a JSON `expected`."""
    return ParseError(f"{name} must be a JSON {expected}, got {json.dumps(value)}", lineno)


def json_string(obj: dict, name: str, lineno: int) -> str:
    """The required field `name` of `obj`, which must be a non-empty JSON string."""
    value = obj[name]
    if not isinstance(value, str):
        raise json_type_error(name, "string", value, lineno)
    if not value:
        raise ParseError(f"{name} must not be empty", lineno)
    return value


def check_json_strings(obj: dict, names: tuple[str, ...], lineno: int) -> None:
    """Each field of `names` that `obj` holds, other than null, must be a JSON string."""
    for name in names:
        value = obj.get(name)
        if value is not None and not isinstance(value, str):
            raise json_type_error(name, "string", value, lineno)
