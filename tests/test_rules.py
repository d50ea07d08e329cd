"""Proximity rule grammar and matching tests."""

import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

from transferaudit.errors import ParseError, RuleParseError
from transferaudit.features import fold
from transferaudit.rules import (
    RULE_ELEMENTS,
    ProximityRule,
    load_rules,
    matched_elements,
    parse_rule,
)
from transferaudit.stemmer import stem
from transferaudit.transparency import default_rules

SCC_RULE = "('contract'|'standard') w/4 ('model'|'clause')"
BCR_RULE = "('binding') w/3 ('corporate'|'rule')"


def test_parse_scc_rule():
    rule = parse_rule(SCC_RULE, rule_id="scc")
    assert len(rule.clauses) == 2
    assert rule.windows == (4,)
    # terms are stored stemmed
    assert rule.clauses[0] == frozenset({"contract", "standard"})
    assert rule.clauses[1] == frozenset({"model", "claus"})


def test_parse_two_term_clause():
    rule = parse_rule("('bind') w/3 ('corpor'|'rule')")
    assert len(rule.clauses) == 2
    assert rule.windows == (3,)


def test_parse_rejects_missing_alternation_bar():
    with pytest.raises(RuleParseError):
        parse_rule("('a' 'b')")


def test_parse_rejects_unterminated_quote():
    with pytest.raises(RuleParseError):
        parse_rule("('contract")


def test_parse_rejects_missing_window():
    with pytest.raises(RuleParseError):
        parse_rule("('a') ('b')")


def test_parse_single_clause_rule():
    rule = parse_rule("('consent')")
    assert rule.windows == ()
    assert matched_elements([rule], "You consent to this.")
    assert not matched_elements([rule], "You agree to this.")


def test_parse_error_carries_position():
    with pytest.raises(RuleParseError) as excinfo:
        parse_rule("('a') w/x ('b')")
    assert excinfo.value.position is not None


def test_scc_rule_matches_within_window():
    rule = parse_rule(SCC_RULE)
    # stems: standard .. contractu .. claus; gap standard->claus is 2
    assert matched_elements([rule], "we implement measures such as standard contractual clauses")


def test_scc_rule_matches_folded_text():
    rule = parse_rule(SCC_RULE)
    # a non-breaking space separates words, a soft hyphen and an accent do not
    assert matched_elements([rule], "Standard\u00a0contractual clau\u00adses")
    assert matched_elements([rule], "standard contractual claus\u00e9s")
    assert not matched_elements([rule], "standard\u2026 the clause")  # "..." ends a sentence


def test_scc_rule_same_sentence_constraint():
    rule = parse_rule(SCC_RULE)
    assert not matched_elements([rule], "our standards are high. The clause is separate.")


@pytest.mark.parametrize("mark", [".", "!", "?", ";"])
def test_each_sentence_mark_ends_a_sentence(mark):
    rule = parse_rule("('alpha') w/3 ('omega')")
    assert matched_elements([rule], "alpha, omega")
    assert not matched_elements([rule], f"alpha{mark} omega")


def test_bcr_rule_matches_group_rules_sentence():
    rule = parse_rule(BCR_RULE, rule_id="bcr")
    assert matched_elements([rule], "relies on the group binding corporate rules for transfers")


def test_window_boundary_exact_gap():
    rule = parse_rule("('alpha') w/3 ('omega')")
    assert matched_elements([rule], "alpha one two omega")          # gap 3
    assert not matched_elements([rule], "alpha one two three omega")  # gap 4


def test_order_insensitive_matching():
    rule = parse_rule("('alpha') w/2 ('omega')")
    assert matched_elements([rule], "omega then alpha")
    assert matched_elements([rule], "alpha then omega")


def test_matching_ignores_case_and_punctuation():
    rule = parse_rule(SCC_RULE)
    assert matched_elements([rule], "STANDARD, (contractual) CLAUSES!")


def test_three_clause_chaining():
    rule = parse_rule("('alpha') w/2 ('beta') w/2 ('gamma')")
    assert matched_elements([rule], "alpha x beta y gamma")
    assert not matched_elements([rule], "alpha x beta one two three gamma")
    # chaining is per consecutive pair: gamma may precede beta
    assert matched_elements([rule], "gamma beta alpha")


def test_stemmed_token_equality_not_prefix():
    # "contractual" stems to "contractu", which is not the term "contract"
    rule = parse_rule("('contract') w/4 ('commitment')")
    assert not matched_elements([rule], "contractual commitments protect your data")
    assert matched_elements([rule], "contracts include commitments")


def test_load_rules_and_matched_elements(tmp_path):
    path = tmp_path / "rules.tsv"
    path.write_text(
        "# comment\n"
        f"scc\t{SCC_RULE}\n"
        f"bcr\t{BCR_RULE}\n"
        "copy_means\t('copy') w/6 ('obtain'|'contact')\n",
        encoding="utf-8")
    rules = load_rules(path)
    assert [r.id for r in rules] == ["scc", "bcr", "copy_means"]
    text = ("We use standard contractual clauses. "
            "A copy can be obtained by contacting support.")
    assert matched_elements(rules, text) == {"scc", "copy_means"}


def test_load_rules_rejects_missing_tab(tmp_path):
    path = tmp_path / "rules.tsv"
    path.write_text("scc ('a'|'b')\n", encoding="utf-8")
    with pytest.raises(ParseError) as excinfo:
        load_rules(path)
    assert excinfo.value.line_number == 1
    assert str(excinfo.value) == "line 1: expected `element_id TAB rule`"
    # a grammar error names its line too, and keeps the grammar's error as its cause
    path.write_text("scc\t('a') w/2 ('b')\nbcr\t('a') w/0 ('b')\n", encoding="utf-8")
    with pytest.raises(ParseError) as excinfo:
        load_rules(path)
    assert excinfo.value.line_number == 2
    assert isinstance(excinfo.value.__cause__, RuleParseError)
    assert str(excinfo.value) == "line 2: position 8: window must be >= 1"


def test_load_rules_rejects_an_unknown_element_id(tmp_path):
    path = tmp_path / "rules.tsv"
    path.write_text("scc\t('standard')\nscc_typo\t('standard')\n", encoding="utf-8")
    with pytest.raises(ParseError) as excinfo:
        load_rules(path)
    assert excinfo.value.line_number == 2
    assert str(excinfo.value) == "line 2: unknown element id 'scc_typo'"


def test_shipped_rules_name_every_rule_element():
    assert {rule.id for rule in default_rules()} == set(RULE_ELEMENTS)


def test_terms_are_folded_as_text_is():
    assert matched_elements([parse_rule("('caf\u00e9')", "x")], "caf\u00e9") == {"x"}
    assert matched_elements([parse_rule("('cafe')", "x")], "caf\u00e9") == {"x"}
    assert parse_rule("('\ufb01le'|'\u212aey')").clauses == (frozenset({"file", "key"}),)
    # a term that folds to two words is refused at the term
    with pytest.raises(RuleParseError) as excinfo:
        parse_rule("('a') w/2 ('stra\u00dfe')")
    assert excinfo.value.position == 12


def test_multiple_rules_same_element_are_alternatives(tmp_path):
    path = tmp_path / "rules.tsv"
    path.write_text(
        "copy_means\t('copy') w/6 ('obtain')\n"
        "copy_means\t('safeguard') w/6 ('found')\n",
        encoding="utf-8")
    rules = load_rules(path)
    assert matched_elements(rules, "the safeguards can be found online") == {"copy_means"}
    assert matched_elements(rules, "a copy may be obtained") == {"copy_means"}
    assert matched_elements(rules, "unrelated sentence") == set()


@pytest.mark.parametrize("text, clauses, windows", [
    ("('a')\u3000w/2\u2003('b')", [{"a"}, {"b"}], (2,)),
    ("\x1c(\x85'a'\xa0|\t'b'\n)", [{"a", "b"}], ()),
    ("('a') w/04 ('b')", [{"a"}, {"b"}], (4,)),
    ("('a') w/\u0664 ('b')", [{"a"}, {"b"}], (4,)),  # ARABIC-INDIC DIGIT FOUR
    ("('a')w/1('b')w/3('c')", [{"a"}, {"b"}, {"c"}], (1, 3)),
    ("('Clauses'|'clause')", [{"claus"}], ()),
    ("('a') w/2 ('b')  \n", [{"a"}, {"b"}], (2,)),
])
def test_parse_accepts(text, clauses, windows):
    rule = parse_rule(text)
    assert rule.clauses == tuple(frozenset(c) for c in clauses)
    assert rule.windows == windows


@pytest.mark.parametrize("text", [
    "", "   ", "('')", "('a b')", "('a1')", "('a", "('a' 'b')", "('a'|'b'", "'a'",
    # SUPERSCRIPT TWO passes str.isdigit(), but int() rejects it
    "('a') w/0 ('b')", "('a') w/x ('b')", "('a') w/\u00b2 ('b')", "('a') w/1\u00b2 ('b')",
    "('a') w/-1 ('b')", "('a') w/2", "('a') W/2 ('b')", "('a') w /2 ('b')", "('a') x",
    # terms that fold to a space or to no single word of a-z
    "('\u00df')", "('a'|'\u4e2d')", "('stra\u00dfe')", "('a\u200bb')",
])
def test_parse_rejects(text):
    with pytest.raises(RuleParseError) as excinfo:
        parse_rule(text)
    assert excinfo.value.position is not None


def _reference_matched_elements(rules, segment_text):
    """The former matcher over folded text: stem each sentence's words once,
    then rescan the stemmed tokens for every clause of every rule."""
    sentences = []
    for raw in re.split(r"[.!?;]", fold(segment_text)):
        tokens = [stem(t) for t in re.findall(r"[a-z]+", raw)]
        if tokens:
            sentences.append(tokens)

    def match_in_sentence(rule, tokens):
        positions = []
        for clause in rule.clauses:
            hits = [i for i, t in enumerate(tokens) if t in clause]
            if not hits:
                return False
            positions.append(hits)
        reachable = positions[0]
        for window, hits in zip(rule.windows, positions[1:]):
            reachable = [q for q in hits if any(abs(q - p) <= window for p in reachable)]
            if not reachable:
                return False
        return True

    return {rule.id for rule in rules
            if any(match_in_sentence(rule, toks) for toks in sentences)}


# words: rule terms in several inflections and cases, stop words, non-ASCII
# letters, and characters whose lowercase is ASCII (KELVIN SIGN -> "k");
# separators: sentence ends, other punctuation and whitespace
_TERMS = ["alpha", "beta", "gamma", "you", "get", "copy", "standard", "contractual",
          "clause", "consent"]
_WORDS = _TERMS + ["STANDARD", "Clauses", "copies", "got", "the", "You", "café", "naïve",
                   "\u212a", "\u0130", "ß", "'s"]
_SEPARATORS = [" ", " ", " ", ". ", "!", "?", ";", ", ", "\n", "\u00a0", "—", "–", "«",
               "»", "-", ""]
_TEXT = st.lists(st.tuples(st.sampled_from(_WORDS),
                           st.one_of(st.sampled_from(_SEPARATORS), st.characters())),
                 max_size=25).map(lambda pairs: "".join(w + sep for w, sep in pairs))
_THREE_CLAUSE = parse_rule("('alpha'|'you') w/2 ('beta'|'get') w/3 ('gamma'|'copy')",
                           rule_id="scc")


@st.composite
def _rules(draw):
    """The shipped rules and a three-clause rule, plus random rules over the
    same terms; element ids repeat, so rules act as alternatives."""
    rules = [*default_rules(), _THREE_CLAUSE]
    for _ in range(draw(st.integers(0, 3))):
        n = draw(st.integers(1, 3))
        clauses = tuple(frozenset(stem(t) for t in draw(
            st.lists(st.sampled_from(_TERMS), min_size=1, max_size=3))) for _ in range(n))
        windows = tuple(draw(st.integers(1, 4)) for _ in range(n - 1))
        rule_id = draw(st.sampled_from(["scc", "copy_means", "extra"]))
        rules.append(ProximityRule(id=rule_id, clauses=clauses, windows=windows))
    return rules


@given(_rules(), _TEXT)
def test_matched_elements_matches_reference(rules, text):
    assert matched_elements(rules, text) == _reference_matched_elements(rules, text)
