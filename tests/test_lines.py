"""The shared line rule of the `#`-commented data files."""

from importlib import resources

import pytest

from transferaudit.compliance import load_jurisdiction
from transferaudit.countries import load_country_dictionary
from transferaudit.errors import ParseError
from transferaudit.flows import load_owner_list
from transferaudit.lines import data_lines, tab_records
from transferaudit.rules import load_rules

SHIPPED = resources.files("transferaudit.data")
SHIPPED_FILES = sorted(f.name for f in SHIPPED.iterdir() if f.name.endswith((".tsv", ".txt")))
# the loaders that read a given path as well as their shipped default
LOADERS = {"country_dictionary.tsv": load_country_dictionary,
           "owner_list.tsv": load_owner_list, "rules.tsv": load_rules,
           "jurisdiction_2020_07.txt": load_jurisdiction}


def test_data_lines_skip_empty_and_comment_lines(tmp_path):
    path = tmp_path / "data.txt"
    path.write_text("# header\n\na\tb\n #not a comment\n\nlast", encoding="utf-8")
    assert list(data_lines(path)) == [(3, "a\tb"), (4, " #not a comment"), (6, "last")]


@pytest.mark.parametrize("char", ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85",
                                  "\u2028", "\u2029"])
def test_data_lines_break_only_at_newlines(tmp_path, char):
    path = tmp_path / "data.txt"
    path.write_text(f"a{char}b\r\nc\rd\n", encoding="utf-8")
    assert list(data_lines(path)) == [(1, f"a{char}b"), (2, "c"), (3, "d")]


def test_tab_records_name_the_bad_line_and_the_form(tmp_path):
    path = tmp_path / "data.tsv"
    path.write_text("# a TAB b\nx\ty\nx\ty\tz\n", encoding="utf-8")
    records = tab_records(path, "a TAB b")
    assert next(records) == (2, ["x", "y"])
    with pytest.raises(ParseError, match="line 3: expected `a TAB b`") as exc:
        next(records)
    assert exc.value.line_number == 3


def test_shipped_files_are_found():
    assert set(LOADERS) <= set(SHIPPED_FILES)
    assert {"stopwords.txt", "public_suffixes.txt", "generic_tokens.txt"} <= set(SHIPPED_FILES)


@pytest.mark.parametrize("newline", ["\r\n", "\r"], ids=["crlf", "cr"])
@pytest.mark.parametrize("name", SHIPPED_FILES)
def test_shipped_file_loads_equal_with_other_line_ends(tmp_path, name, newline):
    text = SHIPPED.joinpath(name).read_text(encoding="utf-8")
    copy = tmp_path / name
    copy.write_bytes(text.replace("\n", newline).encode("utf-8"))
    assert list(data_lines(copy)) == list(data_lines(None, name))
    if name in LOADERS:
        assert LOADERS[name](copy) == LOADERS[name]()
