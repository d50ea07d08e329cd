"""Stemmer tests against a frozen table of known word/stem pairs, and
against a reference implementation.

The expected stems were derived by hand from the published Snowball English
algorithm and cross-checked against an independent implementation before
being frozen here.  The reference below is the straightforward form of the
algorithm that `stemmer.py` speeds up: it tries each suffix with `endswith`
and walks the word character by character for R1 and R2.
"""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from transferaudit.stemmer import stem

# ---- reference implementation ----
_VOWELS = frozenset("aeiouy")  # capital Y marks consonant-y and is excluded
_DOUBLES = ("bb", "dd", "ff", "gg", "mm", "nn", "pp", "rr", "tt")
_LI_ENDINGS = frozenset("cdeghkmnrt")

_EXCEPTIONS = {
    "skis": "ski",
    "skies": "sky",
    "dying": "die",
    "lying": "lie",
    "tying": "tie",
    "idly": "idl",
    "gently": "gentl",
    "ugly": "ugli",
    "early": "earli",
    "only": "onli",
    "singly": "singl",
    "sky": "sky",
    "news": "news",
    "howe": "howe",
    "atlas": "atlas",
    "cosmos": "cosmos",
    "bias": "bias",
    "andes": "andes",
}

_POST_1A_INVARIANT = frozenset(
    ["inning", "outing", "canning", "herring", "earring",
     "proceed", "exceed", "succeed"]
)

_STEP2_RULES = (
    ("ization", "ize"),
    ("ational", "ate"),
    ("fulness", "ful"),
    ("ousness", "ous"),
    ("iveness", "ive"),
    ("tional", "tion"),
    ("biliti", "ble"),
    ("lessli", "less"),
    ("entli", "ent"),
    ("ation", "ate"),
    ("alism", "al"),
    ("aliti", "al"),
    ("ousli", "ous"),
    ("iviti", "ive"),
    ("fulli", "ful"),
    ("enci", "ence"),
    ("anci", "ance"),
    ("abli", "able"),
    ("izer", "ize"),
    ("ator", "ate"),
    ("alli", "al"),
    ("bli", "ble"),
)

_STEP3_RULES = (
    ("ational", "ate"),
    ("tional", "tion"),
    ("alize", "al"),
    ("icate", "ic"),
    ("iciti", "ic"),
    ("ical", "ic"),
    ("ness", ""),
    ("ful", ""),
)

_STEP4_SUFFIXES = (
    "ement", "ance", "ence", "able", "ible", "ment",
    "ant", "ent", "ism", "ate", "iti", "ous", "ive", "ize",
    "al", "er", "ic",
)


def _is_vowel(ch):
    return ch in _VOWELS


def _mark_ys(word):
    # y at the start or after a vowel acts as a consonant; mark it Y
    chars = list(word)
    if chars[0] == "y":
        chars[0] = "Y"
    for i in range(1, len(chars)):
        if chars[i] == "y" and _is_vowel(chars[i - 1]):
            chars[i] = "Y"
    return "".join(chars)


def _region_after_vc(word, start):
    """Position after the first non-vowel that follows a vowel, from `start`."""
    i = start
    n = len(word)
    while i < n and not _is_vowel(word[i]):
        i += 1
    while i < n and _is_vowel(word[i]):
        i += 1
    return min(i + 1, n) if i < n else n


def _compute_r1(word):
    for prefix, r1 in (("gener", 5), ("commun", 6), ("arsen", 5)):
        if word.startswith(prefix):
            return r1
    return _region_after_vc(word, 0)


def _ends_short_syllable(word):
    n = len(word)
    if n >= 2 and _is_vowel(word[0]) and not _is_vowel(word[1]) and n == 2:
        return True
    if n >= 3:
        a, b, c = word[-3], word[-2], word[-1]
        if not _is_vowel(a) and _is_vowel(b) and not _is_vowel(c) and c not in "wxY":
            return True
    return False


def _is_short(word, r1):
    return r1 >= len(word) and _ends_short_syllable(word)


def _step0(word):
    for suf in ("'s'", "'s", "'"):
        if word.endswith(suf):
            return word[: -len(suf)]
    return word


def _step1a(word):
    if word.endswith("sses"):
        return word[:-4] + "ss"
    if word.endswith("ied") or word.endswith("ies"):
        return word[:-3] + ("i" if len(word) > 4 else "ie")
    if word.endswith("us") or word.endswith("ss"):
        return word
    if word.endswith("s"):
        # delete only if a vowel occurs before the letter preceding the s
        if any(_is_vowel(ch) for ch in word[:-2]):
            return word[:-1]
    return word


def _step1b(word, r1):
    if word.endswith("eedly"):
        return word[:-3] if len(word) - 5 >= r1 else word
    if word.endswith("eed"):
        return word[:-1] if len(word) - 3 >= r1 else word
    for suf in ("ingly", "edly", "ing", "ed"):
        if word.endswith(suf):
            stem = word[: -len(suf)]
            if not any(_is_vowel(ch) for ch in stem):
                return word
            if stem.endswith(("at", "bl", "iz")):
                return stem + "e"
            if stem.endswith(_DOUBLES):
                return stem[:-1]
            if _is_short(stem, r1):
                return stem + "e"
            return stem
    return word


def _step1c(word):
    if len(word) > 2 and word[-1] in "yY" and not _is_vowel(word[-2]):
        return word[:-1] + "i"
    return word


def _step2(word, r1):
    for suf, repl in _STEP2_RULES:
        if word.endswith(suf):
            if len(word) - len(suf) >= r1:
                return word[: -len(suf)] + repl
            return word
    if word.endswith("ogi"):
        if len(word) - 3 >= r1 and word[-4:-3] == "l":
            return word[:-1]
        return word
    if word.endswith("li"):
        if len(word) - 2 >= r1 and word[-3:-2] in _LI_ENDINGS:
            return word[:-2]
        return word
    return word


def _step3(word, r1, r2):
    for suf, repl in _STEP3_RULES:
        if word.endswith(suf):
            if len(word) - len(suf) >= r1:
                return word[: -len(suf)] + repl
            return word
    if word.endswith("ative"):
        if len(word) - 5 >= r1 and len(word) - 5 >= r2:
            return word[:-5]
    return word


def _step4(word, r2):
    # longest matching suffix decides; a failed region check ends the step.
    # "ion" never competes with the listed suffixes (none end in n).
    if word.endswith("ion"):
        if len(word) - 3 >= r2 and word[-4:-3] in ("s", "t"):
            return word[:-3]
        return word
    best = ""
    for suf in _STEP4_SUFFIXES:
        if word.endswith(suf) and len(suf) > len(best):
            best = suf
    if best and len(word) - len(best) >= r2:
        return word[: -len(best)]
    return word


def _step5(word, r1, r2):
    if word.endswith("e"):
        if len(word) - 1 >= r2:
            return word[:-1]
        if len(word) - 1 >= r1 and not _ends_short_syllable(word[:-1]):
            return word[:-1]
        return word
    if word.endswith("l"):
        if len(word) - 1 >= r2 and word[-2:-1] == "l":
            return word[:-1]
    return word


def reference_stem(word):
    if len(word) <= 2:
        return word
    if word.startswith("'"):
        word = word[1:]
    if word in _EXCEPTIONS:
        return _EXCEPTIONS[word]
    word = _mark_ys(word)
    r1 = _compute_r1(word)
    r2 = _region_after_vc(word, r1)
    word = _step0(word)
    word = _step1a(word)
    if word in _POST_1A_INVARIANT:
        return word
    word = _step1b(word, r1)
    word = _step1c(word)
    word = _step2(word, r1)
    word = _step3(word, r1, r2)
    word = _step4(word, r2)
    word = _step5(word, r1, r2)
    return word.replace("Y", "y")


# ---- tests ----

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


@given(st.text(alphabet="abcdefghijklmnopqrstuvwxyz'", max_size=18))
def test_stem_matches_reference(word):
    assert stem(word) == reference_stem(word)


@pytest.mark.parametrize("word", sorted(_EXCEPTIONS))
def test_exceptions_match_reference(word):
    assert stem(word) == reference_stem(word) == _EXCEPTIONS[word]


# a word equal to a suffix of steps 2-4 ends the step unchanged ("entli" must
# not lose its "li"); runs of y are marked one at a time, a marked Y being no vowel
_EDGE_WORDS = ["entli", "ently", "bli", "ation", "ement", "ion", "ative", "ogi", "li", "alli", "ational",
               "ization", "ness", "ful", "ance", "ism", "sion", "tion", "logi", "xbli",
               "ayy", "byy", "yyy", "yay", "ayyying", "sayyy", "'s", "'s'", "''s", "y'",
               "generation", "communication", "arsenal", "gener", "commun"]


@pytest.mark.parametrize("word", _EDGE_WORDS)
def test_edge_words_match_reference(word):
    assert stem(word) == reference_stem(word)


@given(st.lists(st.sampled_from(["a", "e", "i", "y", "l", "s", "t", "at", "ion", "ic", "al",
                                 "ent", "li", "og", "ness", "ful", "ate", "iv", "iz", "ed",
                                 "ing", "ly", "bl", "er", "ous", "'"]),
                min_size=1, max_size=6).map("".join))
def test_suffix_rich_words_match_reference(word):
    assert stem(word) == reference_stem(word)
