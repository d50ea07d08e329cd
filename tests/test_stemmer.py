"""Stemmer tests against a frozen table of known word/stem pairs.

The expected stems were derived by hand from the published Snowball English
algorithm and cross-checked against an independent implementation before
being frozen here.
"""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from transferaudit.stemmer import stem

KNOWN_PAIRS = [
    ("abilities", "abil"), ("ability", "abil"), ("adequacy", "adequaci"), ("adequate", "adequ"),
    ("adjustable", "adjust"), ("agreed", "agre"), ("allowance", "allow"), ("analogously", "analog"),
    ("angularity", "angular"), ("bias", "bias"), ("binding", "bind"), ("bowdlerize", "bowdler"),
    ("by", "by"), ("callousness", "callous"), ("canning", "canning"), ("cease", "ceas"),
    ("clause", "claus"), ("clauses", "claus"), ("collected", "collect"), ("collection", "collect"),
    ("communication", "communic"), ("conditional", "condit"), ("conformably", "conform"), ("consent", "consent"),
    ("consenting", "consent"), ("contractual", "contractu"), ("controlling", "control"), ("corporate", "corpor"),
    ("countries", "countri"), ("cry", "cri"), ("decisiveness", "decis"), ("defensible", "defens"),
    ("dependent", "depend"), ("differently", "differ"), ("digitizer", "digit"), ("disclosed", "disclos"),
    ("discloses", "disclos"), ("disclosing", "disclos"), ("disclosure", "disclosur"), ("dying", "die"),
    ("early", "earli"), ("effective", "effect"), ("electrical", "electr"), ("electricity", "electr"),
    ("enjoy", "enjoy"), ("enjoying", "enjoy"), ("exceed", "exceed"), ("feudalism", "feudal"),
    ("fluently", "fluentli"), ("formality", "formal"), ("formalize", "formal"), ("formative", "format"),
    ("generate", "generat"), ("generation", "generat"), ("generously", "generous"), ("goodness", "good"),
    ("gyroscopic", "gyroscop"), ("happily", "happili"), ("happiness", "happi"), ("herring", "herring"),
    ("hesitancy", "hesit"), ("hopeful", "hope"), ("hopefulness", "hope"), ("implement", "implement"),
    ("implementation", "implement"), ("inference", "infer"), ("informed", "inform"), ("inning", "inning"),
    ("international", "intern"), ("irritant", "irrit"), ("jurisdictions", "jurisdict"), ("knitting", "knit"),
    ("lying", "lie"), ("measures", "measur"), ("news", "news"), ("obtain", "obtain"),
    ("obtained", "obtain"), ("only", "onli"), ("operator", "oper"), ("outing", "outing"), ("outside", "outsid"),
    ("policies", "polici"), ("policy", "polici"), ("predication", "predic"), ("privacy", "privaci"),
    ("probate", "probat"), ("proceed", "proceed"), ("processed", "process"), ("processing", "process"),
    ("protected", "protect"), ("protection", "protect"), ("radically", "radic"), ("ran", "ran"),
    ("rate", "rate"), ("rational", "ration"), ("recognized", "recogn"), ("relational", "relat"),
    ("replacement", "replac"), ("representative", "repres"), ("responsibilities", "respons"), ("retained", "retain"),
    ("rolling", "roll"), ("rules", "rule"), ("running", "run"), ("safeguard", "safeguard"),
    ("safeguards", "safeguard"), ("say", "say"), ("saying", "say"), ("sensibility", "sensibl"),
    ("sensitivity", "sensit"), ("services", "servic"), ("shared", "share"), ("shares", "share"),
    ("sharing", "share"), ("shield", "shield"), ("singly", "singl"), ("skies", "sky"),
    ("skis", "ski"), ("sky", "sky"), ("standard", "standard"), ("stored", "store"),
    ("stores", "store"), ("succeed", "succeed"), ("transfer", "transfer"), ("transferred", "transfer"),
    ("transferring", "transfer"), ("transfers", "transfer"), ("triplicate", "triplic"), ("tying", "tie"),
    ("ugly", "ugli"), ("union", "union"), ("users", "user"), ("using", "use"),
    ("valency", "valenc"), ("vileness", "vile"),
]


@pytest.mark.parametrize("word,expected", KNOWN_PAIRS)
def test_known_stems(word, expected):
    assert stem(word) == expected


@pytest.mark.parametrize("word", ["a", "i", "is", "be", "by", "eu", "us"])
def test_short_words_pass_through(word):
    assert stem(word) == word


def test_initial_apostrophe_is_stripped():
    assert stem("'twas") == stem("twas")


@given(st.text(alphabet="abcdefghijklmnopqrstuvwxyz", min_size=1, max_size=15))
def test_stem_is_deterministic_and_lowercase(word):
    first = stem(word)
    assert stem(word) == first
    assert first == first.lower()
    assert len(first) <= len(word) + 1  # step 1b can append an e
