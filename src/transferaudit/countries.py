"""Country gazetteer and target-country detection.

Detection scans a segment's phrase tokens with longest-phrase matching,
trying at each token only the phrase lengths that start with it.  Text and
surface forms alike are folded (`features.fold`) and split at whitespace,
`/` and `'`.  Tokens keep internal hyphens ("California-based" does not
match the state), while edge punctuation is stripped, so "Singapore,",
"U.S." and "China's" match.  EU member mentions are ignored: only non-EU
destinations are disclosures.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from .errors import ParseError
from .features import fold
from .lines import tab_records

# EU-27 plus the UK (Brexit transition) plus the EEA trio, as of 2020-07.
EU_MEMBERS_2020 = frozenset(
    """AT BE BG HR CY CZ DK EE FI FR DE GR HU IE IT LV LT LU MT NL PL PT RO
    SK SI ES SE GB NO IS LI""".split()
)

FORM_TYPES = ("name", "abbr", "state", "city", "alias")

# a run of folded text between whitespace, `/` and `'`, less its edge
# punctuation: the greedy middle ends at the run's last letter or digit
_PHRASE_TOKEN = re.compile(r"[0-9a-z](?:[^\s/']*[0-9a-z])?")
_CODE = re.compile(r"[A-Z]{2}")


def check_country_code(code: str, lineno: int) -> str:
    """`code` if it has the ISO-3166 alpha-2 form, else a ParseError on `lineno`."""
    if not (isinstance(code, str) and _CODE.fullmatch(code)):
        raise ParseError(f"bad ISO-3166 alpha-2 code {code!r}", lineno)
    return code


def phrase_tokens(text: str) -> list[str]:
    """The gazetteer's tokens of text or of a surface form; internal dots
    and hyphens stay."""
    return _PHRASE_TOKEN.findall(fold(text))


@dataclass
class CountryDictionary:
    """Surface-form phrases (normalized token tuples) mapped to ISO codes."""

    phrases: dict[tuple[str, ...], str] = field(default_factory=dict)
    # the phrase lengths for each first token, longest first, indexed from
    # `phrases` when built and by `add` after
    lengths_by_first: dict[str, tuple[int, ...]] = field(
        default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        for key in self.phrases:
            self._index(key)

    def _index(self, key: tuple[str, ...]) -> None:
        lengths = self.lengths_by_first.get(key[0], ())
        if len(key) not in lengths:
            self.lengths_by_first[key[0]] = tuple(sorted((*lengths, len(key)), reverse=True))

    def add(self, code: str, surface: str) -> None:
        key = tuple(phrase_tokens(surface))
        if not key:
            raise ValueError(f"surface form {surface!r} normalizes to nothing")
        existing = self.phrases.get(key)
        if existing is not None and existing != code:
            raise ValueError(f"surface form {surface!r} maps to both {existing} and {code}")
        self.phrases[key] = code
        self._index(key)


def load_country_dictionary(path=None) -> CountryDictionary:
    """Load `code TAB form_type TAB surface` lines; default: shipped gazetteer.

    The form type is checked but not kept.
    """
    dictionary = CountryDictionary()
    for lineno, (code, form_type, surface) in tab_records(
            path, "code TAB form_type TAB surface", "country_dictionary.tsv"):
        check_country_code(code, lineno)
        if form_type not in FORM_TYPES:
            raise ParseError(f"bad form type {form_type!r}", lineno)
        try:
            dictionary.add(code, surface)
        except ValueError as exc:
            raise ParseError(str(exc), lineno) from exc
    return dictionary


def detect_target_countries(segment_tokens_raw: list[str],
                            dictionary: CountryDictionary) -> set[str]:
    """Non-EU country codes named in a segment, by longest-phrase scan.

    `segment_tokens_raw` is the whitespace split of the segment's text or
    of its fold (`features.fold`), which give the same phrase tokens.
    """
    tokens = phrase_tokens(" ".join(segment_tokens_raw))
    found: set[str] = set()
    i = 0
    n = len(tokens)
    while i < n:
        step = 1
        # a slice cut short by the end of the text only matches a phrase of
        # the length left, which is then the longest match
        for length in dictionary.lengths_by_first.get(tokens[i], ()):
            code = dictionary.phrases.get(tuple(tokens[i:i + length]))
            if code is not None:
                found.add(code)
                step = length
                break
        i += step
    return found - EU_MEMBERS_2020
