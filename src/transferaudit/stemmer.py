"""Snowball English ("Porter2") stemmer.

Pure-Python implementation of the published English Snowball algorithm.
Operates on single lowercase words; callers tokenize first.  Results are
cached because policy text re-uses a small vocabulary heavily.
"""

import re
from functools import lru_cache

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

# Steps 2-4 look up `word[-n:]` for each suffix length n, longest first,
# so the first hit is the longest matching suffix.  A word equal to a
# suffix matches it, and a word shorter than n is `word[-n:]` itself; either
# way no letter is left before the suffix, so the region check fails and
# the step ends.
_STEP2_RULES = {
    "ization": "ize", "ational": "ate", "fulness": "ful", "ousness": "ous",
    "iveness": "ive", "tional": "tion", "biliti": "ble", "lessli": "less",
    "entli": "ent", "ation": "ate", "alism": "al", "aliti": "al", "ousli": "ous",
    "iviti": "ive", "fulli": "ful", "enci": "ence", "anci": "ance", "abli": "able",
    "izer": "ize", "ator": "ate", "alli": "al", "bli": "ble", "ogi": "og", "li": "",
}
# suffixes removed only after one of these letters
_STEP2_AFTER = {"ogi": frozenset("l"), "li": _LI_ENDINGS}

_STEP3_RULES = {
    "ational": "ate", "tional": "tion", "alize": "al", "icate": "ic", "iciti": "ic",
    "ative": "", "ical": "ic", "ness": "", "ful": "",
}

# "ion" is removed only after s or t
_STEP4_SUFFIXES = frozenset([
    "ement", "ance", "ence", "able", "ible", "ment",
    "ant", "ent", "ism", "ate", "iti", "ous", "ive", "ize", "ion",
    "al", "er", "ic",
])


def _lengths_by_last_letter(suffixes):
    """The lengths n worth a lookup of `word[-n:]`, longest first, keyed by
    the word's last letter."""
    lengths = {}
    for suf in suffixes:
        lengths.setdefault(suf[-1], set()).add(len(suf))
    return {ch: sorted(ns, reverse=True) for ch, ns in lengths.items()}


_STEP2_LENGTHS = _lengths_by_last_letter(_STEP2_RULES)
_STEP3_LENGTHS = _lengths_by_last_letter(_STEP3_RULES)
_STEP4_LENGTHS = _lengths_by_last_letter(_STEP4_SUFFIXES)

_VC = re.compile(r"[aeiouy][^aeiouy]")
_R1_PREFIXES = ("gener", "commun", "arsen")


def _is_vowel(ch):
    return ch in _VOWELS


def _mark_ys(word):
    # y at the start or after a vowel acts as a consonant; mark it Y.  A
    # marked Y is no vowel, so in "ayy" only the first y is marked.
    if "y" not in word:
        return word
    chars = list(word)
    if chars[0] == "y":
        chars[0] = "Y"
    for i in range(1, len(chars)):
        if chars[i] == "y" and _is_vowel(chars[i - 1]):
            chars[i] = "Y"
    return "".join(chars)


def _region_after_vc(word, start):
    """Position after the first non-vowel that follows a vowel, from `start`."""
    vc = _VC.search(word, start)
    return vc.end() if vc else len(word)


def _compute_r1(word):
    if word.startswith(_R1_PREFIXES):
        return next(len(p) for p in _R1_PREFIXES if word.startswith(p))
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
    if "'" not in word:
        return word
    for suf in ("'s'", "'s", "'"):
        if word.endswith(suf):
            return word[: -len(suf)]
    return word


def _step1a(word):
    if not word.endswith(("s", "d")):
        return word
    if word.endswith("sses"):
        return word[:-4] + "ss"
    if word.endswith("ied") or word.endswith("ies"):
        return word[:-3] + ("i" if len(word) > 4 else "ie")
    if word.endswith("us") or word.endswith("ss"):
        return word
    if word.endswith("s"):
        # delete only if a vowel occurs before the letter preceding the s
        if not _VOWELS.isdisjoint(word[:-2]):
            return word[:-1]
    return word


def _step1b(word, r1):
    if not word.endswith(("ed", "ly", "ing")):
        return word
    if word.endswith("eedly"):
        return word[:-3] if len(word) - 5 >= r1 else word
    if word.endswith("eed"):
        return word[:-1] if len(word) - 3 >= r1 else word
    for suf in ("ingly", "edly", "ing", "ed"):
        if word.endswith(suf):
            stem = word[: -len(suf)]
            if _VOWELS.isdisjoint(stem):
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
    for n in _STEP2_LENGTHS.get(word[-1:], ()):
        suf = word[-n:]
        repl = _STEP2_RULES.get(suf)
        if repl is not None:
            after = _STEP2_AFTER.get(suf)
            if len(word) - n < r1 or (after is not None and word[-n - 1:-n] not in after):
                return word
            return word[:-n] + repl
    return word


def _step3(word, r1, r2):
    for n in _STEP3_LENGTHS.get(word[-1:], ()):
        suf = word[-n:]
        repl = _STEP3_RULES.get(suf)
        if repl is not None:
            if len(word) - n < (r2 if suf == "ative" else r1):
                return word
            return word[:-n] + repl
    return word


def _step4(word, r2):
    # the longest matching suffix decides; a failed check ends the step
    for n in _STEP4_LENGTHS.get(word[-1:], ()):
        suf = word[-n:]
        if suf in _STEP4_SUFFIXES:
            if len(word) - n < r2 or (suf == "ion" and word[-4:-3] not in ("s", "t")):
                return word
            return word[:-n]
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


@lru_cache(maxsize=65536)
def stem(word):
    """Stem one lowercase word; words of one or two letters pass through."""
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
