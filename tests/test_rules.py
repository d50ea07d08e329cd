"""Proximity rule grammar and matching tests."""

import pytest

from transferaudit.errors import RuleParseError
from transferaudit.rules import load_rules, matched_elements, parse_rule

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


def test_scc_rule_same_sentence_constraint():
    rule = parse_rule(SCC_RULE)
    assert not matched_elements([rule], "our standards are high. The clause is separate.")


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
    with pytest.raises(RuleParseError):
        load_rules(path)


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
