"""Token pipeline, n-gram extraction, vocabulary and weighting tests.

A vocabulary is built by `IdVocabulary` over numbered n-grams, and every
weighting case checks both weighings: `IdVocabulary.vector` of a sample it
was built on, and `TextClassifier.weigh` of n-grams against the string-keyed
`Vocabulary` it gives.
"""

import math
import re
import unicodedata

import pytest
from hypothesis import given
from hypothesis import strategies as st

from transferaudit.classifier import TextClassifier
from transferaudit.features import (
    BC,
    TF,
    TFIDF,
    Vocabulary,
    check_ngram_range,
    extract_ngrams,
    fold,
    stopword_list,
    tokenize,
)
from transferaudit.linear import LinearModel, TrainConfig
from transferaudit.rules import sentence_stems
from transferaudit.stemmer import stem
from transferaudit.training import IdVocabulary, number_grams


def test_tokenize_drops_numbers_punctuation_and_stems():
    # "countries" -> "countri" per the frozen Snowball table
    assert tokenize("Transfer, 2 countries!") == ["transfer", "countri"]


def test_tokenize_removes_stop_words():
    assert tokenize("the of and") == []


def test_tokenize_stems_inflected_forms():
    assert tokenize("transferred") == ["transfer"]


def test_tokenize_non_ascii_removed():
    assert tokenize("café data") == ["cafe", "data"]


def test_tokenize_empty_result_is_allowed():
    assert tokenize("2020, 2021!") == []


def _reference_tokenize(text):
    """The token pipeline, step by step."""
    text = text.lower()
    if not text.isascii():
        chars = []
        for c in unicodedata.normalize("NFKD", text):
            if c.isascii():
                chars.append(c)
            elif c == "\u200b":
                chars.append(" ")  # the zero-width space separates words
            elif not (unicodedata.category(c).startswith("M") or unicodedata.category(c) == "Cf"):
                chars.append(" ")  # other combining marks and format characters are dropped
        text = "".join(chars).lower()
    tokens = re.findall(r"[a-z]+", text)
    stops = stopword_list()
    tokens = [t for t in tokens if t not in stops]
    return [stem(t) for t in tokens]


# pieces that stress each step: digits and punctuation inside words, stop
# words (stop words are dropped before stemming: "does" stems to a non-stop
# word, "others" to a stop word), inflected forms, non-ASCII letters, and
# characters whose lowercase is ASCII (KELVIN SIGN -> "k", DOTTED CAPITAL I ->
# "i" + combining dot), characters whose NFKD is uppercase ASCII or several
# letters, a soft hyphen (joins words) and a zero-width space (separates them)
_PIECES = ["\u212a", "\u0130", "\u00df", "caf\u00e9", "na\u00efve", "\u210c", "\ufb01",
           "trans\u00adfer", "data\u200btransfer", "\u200b", "ipv4", "123", "2nd",
           "e-mail", "U.S.", "the", "The", "of", "and", "does", "others", "transferred",
           "countries", "\u00c9TATS", " ", "\n", "\t", "\u00a0", ",", "!", "'s", "_", "data"]


@given(st.lists(st.one_of(st.characters(), st.sampled_from(_PIECES)), max_size=30)
       .map("".join))
def test_tokenize_matches_reference_pipeline(text):
    assert tokenize(text) == _reference_tokenize(text)


@given(st.text())
def test_fold_is_idempotent_lowercase_ascii(text):
    folded = fold(text)
    assert folded.isascii()
    assert fold(folded) == folded
    assert not any(c.isupper() for c in folded)
    if text.lower().isascii():
        assert folded == text.lower()


@given(st.text())
def test_tokenize_is_the_rule_words_less_stop_words_stemmed(text):
    """One tokenization: the classifiers' tokens are the words that the rules
    read, less stop words, stemmed."""
    stops = stopword_list()
    assert tokenize(text) == [stemmed for words, stems in sentence_stems(fold(text))
                              for word, stemmed in zip(words, stems) if word not in stops]


@pytest.mark.parametrize("text, tokens", [
    # a non-breaking space and an em dash separate words
    ("data\u2014transferred to the\u00a0United States", ["data", "transfer", "unit", "state"]),
    # a curly apostrophe separates too, so "we\u2019ll" is no "well"
    ("we\u2019ll share", ["share"]),
    # accents are dropped, not the letters that carry them
    ("na\u00efve", ["naiv"]),
    ("\u00c9TATS-UNIS", ["etat", "uni"]),
    # a soft hyphen joins the parts of its word
    ("trans\u00adfer", ["transfer"]),
    # NFKD gives uppercase ASCII from letterlike symbols and ligatures
    ("\u210cost \ufb01le", ["host", "file"]),
    # a zero-width space separates words
    ("data\u200btransfer", ["data", "transfer"]),
])
def test_tokenize_non_ascii_text(text, tokens):
    assert tokenize(text) == tokens


def test_fold_keeps_ascii_punctuation():
    assert fold("U.S.\u00a0/ Caf\u00e9-based; \u201cChina\u2019s\u201d") == \
        "u.s. / cafe-based;  china s "


def test_rules_read_the_words_of_the_classifiers():
    assert [stems for _, stems in sentence_stems(fold("na\u00efve transfer. Caf\u00e9"))] == \
        [["naiv", "transfer"], ["cafe"]]


def test_stopword_list_size_is_fixed():
    words = stopword_list()
    assert 140 <= len(words) <= 200
    assert "the" in words and "transfer" not in words


def test_pipeline_config_validates_ngram_range():
    with pytest.raises(ValueError):
        check_ngram_range(3, 2)
    with pytest.raises(ValueError):
        check_ngram_range(1, 5)


def test_extract_ngrams_enumeration():
    assert extract_ngrams(["a", "b", "c"], 1, 2) == ["a", "b", "c", "a b", "b c"]


def test_extract_ngrams_too_short():
    assert extract_ngrams(["a"], 2, 2) == []


def test_extract_ngrams_trigram():
    grams = extract_ngrams(["standard", "contractu", "claus"], 1, 3)
    assert len(grams) == 6
    assert "standard contractu claus" in grams


def _bundle(vocab, scheme):
    """A bundle that weighs n-grams against the string-keyed vocabulary."""
    model = LinearModel(weights=(0.0,) * len(vocab), bias=0.0, config=TrainConfig())
    return TextClassifier(ngram=(1, 1), vocabulary=vocab, scheme=scheme, model=model)


def _weighings(gram_lists, scheme=TF):
    """The vocabulary of the samples `gram_lists` and each sample's features
    as {index: value}, which both weighings must give, in the same order."""
    by_id = IdVocabulary(number_grams(gram_lists, [0] * len(gram_lists), (1, 1)),
                         range(len(gram_lists)), scheme)
    vocab = by_id.vocabulary()
    bundle = _bundle(vocab, scheme)
    vectors = []
    for i, grams in enumerate(gram_lists):
        idx, values = by_id.vector(i)
        vector = dict(zip(idx.tolist(), values.tolist()))
        assert list(zip(*bundle.weigh(grams))) == list(vector.items())
        vectors.append(vector)
    return vocab, vectors


def test_build_vocabulary_document_frequency():
    vocab, _ = _weighings([["transfer", "data"], ["transfer"]])
    assert vocab.document_count == 2
    assert vocab.document_frequency[vocab.feature_to_index["transfer"]] == 2
    assert vocab.document_frequency[vocab.feature_to_index["data"]] == 1


def test_duplicate_token_counts_once_per_document():
    vocab, _ = _weighings([["transfer", "transfer"]])
    assert vocab.document_frequency[vocab.feature_to_index["transfer"]] == 1


def test_vocabulary_indices_are_dense():
    vocab, _ = _weighings([["b", "a"], ["c"]])
    assert sorted(vocab.feature_to_index.values()) == [0, 1, 2]


def test_vectorize_tfidf_formula():
    # count 3, N=4, n_i=2 -> 3*ln(2)
    vocab, vectors = _weighings([["x", "x", "x"], ["x"], ["y"], ["z"]], TFIDF)
    assert vectors[0][vocab.feature_to_index["x"]] == pytest.approx(3 * math.log(2), abs=1e-12)


def test_vectorize_tfidf_omits_zero_weights():
    # n_i == N -> ln(1) = 0 -> entry omitted
    _, vectors = _weighings([["x"], ["x"]], TFIDF)
    assert vectors == [{}, {}]


def test_vectorize_bc_is_presence():
    vocab, vectors = _weighings([["x"] * 7, ["y"]], BC)
    assert vectors[0] == {vocab.feature_to_index["x"]: 1.0}


def test_vectorize_tf_counts():
    vocab, vectors = _weighings([["x", "x"], ["y"]], TF)
    assert vectors[0] == {vocab.feature_to_index["x"]: 2.0}


def test_vectorize_out_of_vocabulary_is_empty():
    vocab, _ = _weighings([["x"]])
    assert _bundle(vocab, TF).weigh(["unseen", "tokens"]) == ([], [])
    # by id: a vocabulary built without the sample that holds the n-grams
    data = number_grams([["x"], ["unseen", "tokens"]], [0, 1], (1, 1))
    idx, values = IdVocabulary(data, [0], TF).vector(1)
    assert idx.size == values.size == 0


def test_vocabulary_roundtrip(tmp_path):
    vocab, _ = _weighings([extract_ngrams(["a", "b"], 1, 2), extract_ngrams(["b", "c"], 1, 2)])
    _bundle(vocab, TF).save(tmp_path, "v")
    loaded = TextClassifier.load(tmp_path, "v").vocabulary
    assert loaded.feature_to_index == vocab.feature_to_index
    assert loaded.document_frequency == vocab.document_frequency
    assert loaded.document_count == vocab.document_count


def test_save_refuses_indices_that_are_not_string_ranks(tmp_path):
    # the file gives no index: a feature's index is its row in string order
    _bundle(Vocabulary({"b": 1, "a": 0}, [2, 1], 2), TF).save(tmp_path, "v")
    assert (tmp_path / "v.vocab.tsv").read_bytes() == b"#N=2\na\t2\nb\t1\n"
    for feature_to_index in ({"b": 0, "a": 1}, {"a": 0, "b": 2}):
        with pytest.raises(ValueError, match="string rank"):
            _bundle(Vocabulary(feature_to_index, [1, 1, 1], 2), TF).save(tmp_path, "w")


@pytest.mark.parametrize("feature", ["a\tb", "a\nb", "a\rb", "#a"])
def test_save_refuses_features_that_load_refuses(tmp_path, feature):
    with pytest.raises(ValueError, match="TAB or line break"):
        _bundle(Vocabulary({feature: 0}, [1], 1), TF).save(tmp_path, "w")
    assert list(tmp_path.iterdir()) == []  # refused before any file is written


@given(st.lists(st.lists(st.sampled_from("abcdef"), min_size=0, max_size=8),
                min_size=1, max_size=20))
def test_tfidf_bounded_by_tf_times_log_n(segments):
    vocab, tfs = _weighings(segments, TF)
    _, tfidfs = _weighings(segments, TFIDF)
    bound = math.log(max(vocab.document_count, 1)) or 0.0
    for tf, tfidf in zip(tfs, tfidfs):
        for idx, weight in tfidf.items():
            assert 0.0 <= weight <= tf[idx] * bound + 1e-12


@given(st.lists(st.sampled_from(["transfer", "data", "country", "outside"]),
                min_size=0, max_size=10))
def test_vectorize_is_deterministic(tokens):
    """The same n-grams weigh the same, by string and by id, against a
    vocabulary built without them."""
    vocab, _ = _weighings([["transfer", "data"], ["country"]])
    bundle = _bundle(vocab, TF)
    assert bundle.weigh(tokens) == bundle.weigh(tokens)
    data = number_grams([["transfer", "data"], ["country"], tokens], [0, 0, 0], (1, 1))
    idx, values = IdVocabulary(data, [0, 1], TF).vector(2)
    assert bundle.weigh(tokens) == (idx.tolist(), values.tolist())
