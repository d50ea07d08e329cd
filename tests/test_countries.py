"""Country gazetteer and detection tests."""

import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

from transferaudit.countries import (
    EU_MEMBERS_2020,
    CountryDictionary,
    detect_target_countries,
    load_country_dictionary,
    phrase_tokens,
)
from transferaudit.errors import ParseError
from transferaudit.features import fold
from transferaudit.lines import tab_records

EU_NAMES = ["Germany", "France", "Spain", "Italy", "Ireland", "Sweden",
            "Poland", "Netherlands", "Austria", "Portugal", "Norway",
            "Iceland", "Liechtenstein", "United Kingdom"]


def detect(text, dictionary):
    return detect_target_countries(text.split(), dictionary)


def test_phrase_tokens_strip_edge_punctuation():
    assert phrase_tokens("(EEA),") == ["eea"]
    assert phrase_tokens("Singapore.") == ["singapore"]
    assert phrase_tokens("U.S.") == ["u.s"]
    assert phrase_tokens("California-based") == ["california-based"]


def test_phrase_tokens_split_at_slashes_apostrophes_and_non_ascii_punctuation():
    assert phrase_tokens("China/India") == ["china", "india"]
    assert phrase_tokens("China\u2014and\u00a0India") == ["china", "and", "india"]
    assert phrase_tokens("\u201cChina\u2019s\u201d") == ["china", "s"]
    assert phrase_tokens("People's") == ["people", "s"]
    assert phrase_tokens("Cura\u00e7ao, (M\u00e9xico)") == ["curacao", "mexico"]
    assert phrase_tokens("--/''") == []


_PHRASE_PIECES = ["U.S.", "(EEA),", "California-based", "People's", "a/b", "\u2019s", "\u201c",
                  "\u00e9", "\u00a0", "\u2014", " ", "-", ".", "/", "'", "x", "7"]


@given(st.lists(st.one_of(st.characters(), st.sampled_from(_PHRASE_PIECES)), max_size=20)
       .map("".join))
def test_phrase_tokens_are_the_stripped_runs_of_folded_text(text):
    runs = re.split(r"[\s/']+", fold(text))
    stripped = (re.sub(r"^[^0-9a-z]+|[^0-9a-z]+$", "", run) for run in runs)
    assert phrase_tokens(text) == [token for token in stripped if token]


_COUNTRY_PIECES = ["United States", "Cura\u00e7ao", "M\u00e9xico", "Japan", "China", "\u200b",
                   "e\u0301", "\ufb01", "\u03c2", "\u2028", "\u3000"]


@given(st.lists(st.one_of(st.characters(), st.sampled_from(_PHRASE_PIECES + _COUNTRY_PIECES)),
                max_size=20).map("".join))
def test_detection_reads_folded_text_as_the_raw_text(country_dictionary, text):
    # `annotate_segment` hands the gazetteer the segment's one fold
    assert detect_target_countries(fold(text).split(), country_dictionary) == \
        detect(text, country_dictionary)


@pytest.mark.parametrize("text, codes", [
    # separators that are not whitespace: a slash and non-ASCII punctuation
    ("servers in China/India", {"CN", "IN"}),
    ("China\u2014and India", {"CN", "IN"}),
    ("to the\u00a0United States", {"US"}),
    ("in \u201cJapan\u201d", {"JP"}),
    # an apostrophe, curly or straight, splits off a possessive
    ("China\u2019s servers", {"CN"}),
    ("China's servers", {"CN"}),
    ("the People's Republic of China", {"CN"}),
    ("offices in Cote d'Ivoire", {"CI"}),
    ("offices in C\u00f4te d\u2019Ivoire", {"CI"}),
    # internal hyphens and dots stay, as on ASCII text
    ("a California-based company", set()),
    ("the U.S. and the UAE", {"US", "AE"}),
    # a zero-width space separates words
    ("to the United\u200bStates", {"US"}),
])
def test_separators_and_possessives(country_dictionary, text, codes):
    assert detect(text, country_dictionary) == codes


def _shipped_surfaces():
    return [(code, surface) for _, (code, _, surface) in tab_records(
        None, "code TAB form_type TAB surface", "country_dictionary.tsv")]


def test_every_shipped_surface_is_found_in_every_setting(country_dictionary):
    """Each surface form gives its own code, or nothing for an EU member,
    alone and after a slash, in curly quotes, before a possessive and joined
    to the next word by an em dash."""
    surfaces = _shipped_surfaces()
    assert len(surfaces) == 447
    for code, surface in surfaces:
        expected = {code} - EU_MEMBERS_2020
        for text in [surface, f"hosting/{surface}", f"\u201c{surface}\u201d",
                     f"{surface}\u2019s servers", f"{surface}'s servers",
                     f"{surface}\u2014and more"]:
            assert detect(text, country_dictionary) == expected, text


def test_china_and_singapore(country_dictionary):
    text = ("Our business may require us to transfer your personal data to "
            "countries outside of the European Economic Area (EEA), including "
            "the Peoples Republic of China or Singapore.")
    assert detect(text, country_dictionary) == {"CN", "SG"}


def test_privacy_shield_alias_maps_to_us(country_dictionary):
    assert detect("We participate in the Privacy Shield framework.",
                  country_dictionary) == {"US"}


def test_ambivalent_statement_yields_nothing(country_dictionary):
    assert detect("We may transfer data to countries around the world.",
                  country_dictionary) == set()


def test_eu_members_are_ignored(country_dictionary):
    assert detect("We process data in Germany and France.", country_dictionary) == set()


def test_eu_mention_does_not_mask_non_eu(country_dictionary):
    got = detect("Data is stored in Ireland and Japan.", country_dictionary)
    assert got == {"JP"}


def test_us_state_maps_to_us(country_dictionary):
    assert detect("Our servers are in California and Texas.", country_dictionary) == {"US"}


def test_hyphenated_compound_does_not_match(country_dictionary):
    # whitespace tokenization keeps the compound intact, so it cannot match
    assert detect("As a California-based company we store data locally.",
                  country_dictionary) == set()


def test_abbreviations(country_dictionary):
    assert detect("Data may be stored in the U.S. or the UAE.",
                  country_dictionary) == {"US", "AE"}


def test_longest_match_prefers_specific_phrase(country_dictionary):
    assert detect("offices in the Republic of China", country_dictionary) == {"TW"}
    assert detect("offices in the Peoples Republic of China",
                  country_dictionary) == {"CN"}
    assert detect("offices in New Mexico", country_dictionary) == {"US"}


def test_city_forms(country_dictionary):
    assert detect("Our analytics run in Tokyo and Moscow.",
                  country_dictionary) == {"JP", "RU"}


def test_eu_city_ignored(country_dictionary):
    assert detect("Our office is in Dublin.", country_dictionary) == set()


def test_israel_detected(country_dictionary):
    assert detect("Analytics data is processed in Israel.", country_dictionary) == {"IL"}


def test_every_surface_form_maps_to_one_code(country_dictionary):
    # uniqueness is enforced at load time; spot-check the table invariants
    assert all(len(code) == 2 and code.isupper()
               for code in country_dictionary.phrases.values())


def test_dictionary_covers_adequacy_countries(country_dictionary):
    codes = set(country_dictionary.phrases.values())
    for code in ("AD", "AR", "CA", "FO", "GG", "IL", "IM", "JP", "JE", "NZ", "CH", "UY"):
        assert code in codes


def test_phrases_given_when_built_are_detected():
    dictionary = CountryDictionary(phrases={("china",): "CN", ("new",): "US",
                                            ("new", "zealand"): "NZ"})
    assert detect("Servers in China and New Zealand.", dictionary) == {"CN", "NZ"}
    dictionary.add("JP", "Japan")
    assert detect("Servers in new Japan", dictionary) == {"US", "JP"}


def test_load_rejects_bad_code(tmp_path):
    path = tmp_path / "dict.tsv"
    path.write_text("USA\tname\tUnited States\n", encoding="utf-8")
    with pytest.raises(ParseError):
        load_country_dictionary(path)


def test_load_rejects_conflicting_mapping(tmp_path):
    path = tmp_path / "dict.tsv"
    path.write_text("US\tname\tFreedonia\nCA\talias\tFreedonia\n", encoding="utf-8")
    with pytest.raises(ParseError):
        load_country_dictionary(path)


@given(st.lists(st.sampled_from(EU_NAMES), min_size=1, max_size=6),
       st.sampled_from(["We process data in", "Servers are located in",
                        "Our offices in", "Stored in"]))
def test_no_eu_code_is_ever_returned(names, prefix):
    dictionary = load_country_dictionary()
    text = f"{prefix} {', '.join(names)}."
    got = detect_target_countries(text.split(), dictionary)
    assert got & EU_MEMBERS_2020 == set()
    assert got == set()
