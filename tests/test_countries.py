"""Country gazetteer and detection tests."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from transferaudit.countries import (
    EU_MEMBERS_2020,
    CountryDictionary,
    detect_target_countries,
    load_country_dictionary,
    normalize_token,
)
from transferaudit.errors import ParseError

EU_NAMES = ["Germany", "France", "Spain", "Italy", "Ireland", "Sweden",
            "Poland", "Netherlands", "Austria", "Portugal", "Norway",
            "Iceland", "Liechtenstein", "United Kingdom"]


def detect(text, dictionary):
    return detect_target_countries(text.split(), dictionary)


def test_normalize_token_strips_edge_punctuation():
    assert normalize_token("(EEA),") == "eea"
    assert normalize_token("Singapore.") == "singapore"
    assert normalize_token("U.S.") == "u.s"
    assert normalize_token("California-based") == "california-based"


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
    assert len(country_dictionary.phrases) == len(country_dictionary.form_types)
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
    dictionary.add("JP", "name", "Japan")
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
