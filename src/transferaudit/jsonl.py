"""Line-delimited JSON: one object per line, blank lines skipped."""

from __future__ import annotations

import json
from collections.abc import Iterable, Iterator

from .errors import ParseError


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
