"""TextClassifier bundle round-trip, n-gram id and fold pool tests."""

import dataclasses
import multiprocessing
import os
import re
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
import test_training_reference as reference
from hypothesis import example, given, settings
from hypothesis import strategies as st

from transferaudit import parallel, training
from transferaudit.classifier import TextClassifier
from transferaudit.corpus import INTENTION, LabeledSegment, PolicySegment, stratified_kfold
from transferaudit.errors import DegenerateTraining, ParseError
from transferaudit.features import SCHEMES, TF, Vocabulary
from transferaudit.linear import LinearModel, TrainConfig
from transferaudit.training import (
    IdVocabulary,
    cross_validate_grams,
    fit_grams,
    labeled_grams,
    number_grams,
)

PROBES = [
    "we transfer personal data to other countries",
    "we use cookies to remember preferences",
    "transfers outside the area are protected",
    "delete your account in settings",
]


def _corpus():
    positives = [
        "we transfer personal data to other countries",
        "information is transferred outside the area",
        "we transfer and store data abroad",
    ]
    negatives = [
        "we use cookies to remember preferences",
        "you can delete your account in settings",
        "notifications can be turned off",
        "we protect your account with encryption",
    ]
    samples = [LabeledSegment(PolicySegment("c", t), 1)
               for t in positives * 3]
    samples += [LabeledSegment(PolicySegment("c", t), 0)
                for t in negatives * 3]
    return samples


@pytest.fixture(scope="module")
def bundle():
    return fit_grams(labeled_grams(_corpus(), (1, 2), INTENTION), TF, TrainConfig(seed=3))


def test_save_load_identical_predictions(bundle, tmp_path):
    bundle.save(tmp_path, "intention")
    loaded = TextClassifier.load(tmp_path, "intention")
    for probe in PROBES:
        assert loaded.predict_text(probe) == bundle.predict_text(probe)
    assert loaded.scheme == bundle.scheme
    assert loaded.vocabulary.feature_to_index == bundle.vocabulary.feature_to_index
    assert loaded.ngram == (1, 2)


def test_load_detects_vocab_model_mismatch(bundle, tmp_path):
    bundle.save(tmp_path, "intention")
    vocab_path = tmp_path / "intention.vocab.tsv"
    lines = vocab_path.read_text(encoding="utf-8").splitlines()
    # swap the dfs of two rows: the file still reads, but the stored vocab
    # hash must no longer match
    head, a = lines[0], lines[1]
    fa, da = a.split("\t")
    at, b = next((i, line) for i, line in enumerate(lines[2:], start=2)
                 if line.split("\t")[1] != da)
    fb, db = b.split("\t")
    swapped = [*lines]
    swapped[1], swapped[at] = f"{fa}\t{db}", f"{fb}\t{da}"
    vocab_path.write_text("\n".join(swapped) + "\n", encoding="utf-8")
    with pytest.raises(ParseError, match="vocab hash"):
        TextClassifier.load(tmp_path, "intention")
    # the same content padded with a blank line breaks the layout
    vocab_path.write_text("\n".join([head, "", *lines[1:]]) + "\n", encoding="utf-8")
    with pytest.raises(ParseError, match="expected `feature TAB df`, got ''") as exc:
        TextClassifier.load(tmp_path, "intention")
    assert exc.value.line_number == 2


@pytest.mark.parametrize("scheme", SCHEMES)
def test_bundle_round_trips_byte_for_byte(scheme, tmp_path):
    bundle = fit_grams(labeled_grams(_corpus(), (1, 2), INTENTION), scheme, TrainConfig(seed=3))
    bundle.save(tmp_path / "a", "intention")
    TextClassifier.load(tmp_path / "a", "intention").save(tmp_path / "b", "intention")
    for suffix in ("vocab", "model"):
        written = (tmp_path / "a" / f"intention.{suffix}.tsv").read_bytes()
        assert (tmp_path / "b" / f"intention.{suffix}.tsv").read_bytes() == written
        (tmp_path / "crlf").mkdir(exist_ok=True)
        (tmp_path / "crlf" / f"intention.{suffix}.tsv").write_bytes(
            written.replace(b"\n", b"\r\n"))
    loaded = TextClassifier.load(tmp_path / "crlf", "intention")
    assert (loaded.ngram, loaded.scheme, loaded.vocabulary) == \
        (bundle.ngram, bundle.scheme, bundle.vocabulary)
    assert loaded.model.weights == bundle.model.weights
    assert (loaded.model.bias, loaded.model.config) == (bundle.model.bias, bundle.model.config)


def test_default_pipeline_adds_no_header_lines(bundle, tmp_path):
    bundle.save(tmp_path, "intention")
    lines = (tmp_path / "intention.model.tsv").read_text(encoding="utf-8").splitlines()
    keys = [ln[1:].partition("=")[0] for ln in lines if ln.startswith("#")]
    assert keys == ["scheme", "ngram", "alpha", "eta0", "epochs", "seed", "loss",
                    "vocab_sha256", "bias"]


@pytest.mark.parametrize("line", ["#stemmer=porter", "#stem=maybe",
                                  "#stopword_list_id=klingon", "#stem=false",
                                  "#scheme=foo", "#ngram=x", "#ngram=0-9", "#ngram=3-2",
                                  # the range in any form but the `lo-hi` that `save` writes
                                  "#ngram=2", "#ngram=1-", "#ngram=\u0661-\u0662",
                                  "#ngram= 1-2", "#ngram=1-2 ", "#ngram=01-02", "#ngram=1-2-3",
                                  "#loss=hinge", "#alpha=zz", "#alpha=-1", "#alpha=nan",
                                  "#alpha=inf", "#eta0=0", "#eta0=nan", "#eta0=-inf", "#epochs=1.5",
                                  "#epochs=0", "#bias=zz", "#bias=nan",
                                  "0\tabc", "x\t0.5", "0\tnan", "1\tinf",
                                  "abc", "nan", "inf", "-inf", "0.5\t",
                                  "#scheme=bc", "#=x", "#"])
def test_load_rejects_bad_header_line(bundle, tmp_path, line):
    bundle.save(tmp_path, "intention")
    model_path = tmp_path / "intention.model.tsv"
    lines = model_path.read_text(encoding="utf-8").splitlines()
    model_path.write_text("\n".join([lines[0], line, *lines[1:]]) + "\n", encoding="utf-8")
    with pytest.raises(ParseError) as exc:
        TextClassifier.load(tmp_path, "intention")
    assert exc.value.line_number == 2


# each value loads as one `save` could write, but is not in the form it writes
@pytest.mark.parametrize("key, value", [
    ("seed", "+0"), ("seed", " 0"), ("seed", "-0"), ("seed", "0 "),
    ("epochs", "0_3"), ("epochs", "\u0663"), ("epochs", "03"),
    ("alpha", "+1e-3"), ("alpha", "1e-3"), ("alpha", "0.0010"), ("eta0", "1E-2"),
    ("bias", "+0.5"), ("bias", "5e-1"), ("bias", "0.5 ")])
def test_load_takes_header_values_only_in_the_saved_form(bundle, tmp_path, key, value):
    bundle.save(tmp_path, "intention")
    model_path = tmp_path / "intention.model.tsv"
    lines = model_path.read_text(encoding="utf-8").splitlines()
    at = next(i for i, line in enumerate(lines) if line.startswith(f"#{key}="))
    lines[at] = f"#{key}={value}"
    model_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(ParseError, match=f"got {re.escape(repr(value))}$") as exc:
        TextClassifier.load(tmp_path, "intention")
    assert exc.value.line_number == at + 1


@pytest.mark.parametrize("form", ["+{}", "0{}", " {}", "{} ", "{}_0"])
def test_load_takes_the_document_count_only_in_the_saved_form(bundle, tmp_path, form):
    bundle.save(tmp_path, "intention")
    vocab_path = tmp_path / "intention.vocab.tsv"
    text = vocab_path.read_text(encoding="utf-8")
    first, rest = text.split("\n", 1)
    vocab_path.write_text(f"#N={form.format(first[3:])}\n{rest}", encoding="utf-8")
    with pytest.raises(ParseError, match="^line 1: expected ") as exc:
        TextClassifier.load(tmp_path, "intention")
    assert exc.value.line_number == 1


def test_save_writes_integral_rates_as_floats(bundle, tmp_path):
    cfg = TrainConfig(alpha=1, eta0=2, seed=3)
    bundle = dataclasses.replace(bundle, model=dataclasses.replace(bundle.model, config=cfg))
    bundle.save(tmp_path, "intention")
    lines = (tmp_path / "intention.model.tsv").read_text(encoding="utf-8").splitlines()
    assert lines[2:4] == ["#alpha=1.0", "#eta0=2.0"]
    assert TextClassifier.load(tmp_path, "intention").model.config == cfg


@pytest.mark.parametrize("key", ["scheme", "ngram", "alpha", "eta0", "epochs", "seed", "loss",
                                 "vocab_sha256", "bias"])
def test_load_rejects_a_repeated_or_missing_header_key(bundle, tmp_path, key):
    bundle.save(tmp_path, "intention")
    model_path = tmp_path / "intention.model.tsv"
    lines = model_path.read_text(encoding="utf-8").splitlines()
    at = next(i for i, line in enumerate(lines) if line.startswith(f"#{key}="))
    # the same line again, right after the first: the second names its line,
    # except that a first `#bias=` before the last line is itself misplaced;
    # a line where the weight rows start is not a weight
    model_path.write_text("\n".join([*lines[:at + 1], *lines[at:]]) + "\n", encoding="utf-8")
    message = (f"expected `weight`, got '#{key}=" if key in ("vocab_sha256", "bias")
               else f"repeated header key '{key}'")
    with pytest.raises(ParseError, match=message) as exc:
        TextClassifier.load(tmp_path, "intention")
    assert exc.value.line_number == (at + 1 if key == "bias" else at + 2)
    # without it, the line where it belonged is named
    model_path.write_text("\n".join([*lines[:at], *lines[at + 1:]]) + "\n", encoding="utf-8")
    with pytest.raises(ParseError, match=f"expected `#{key}=`") as exc:
        TextClassifier.load(tmp_path, "intention")
    assert exc.value.line_number == (at if key == "bias" else at + 1)


def test_load_rejects_repeated_weight_index(bundle, tmp_path):
    bundle.save(tmp_path, "intention")
    model_path = tmp_path / "intention.model.tsv"
    lines = model_path.read_text(encoding="utf-8").splitlines()
    # a weight's index is its row: a row that repeats index 0 in the
    # indexed `index TAB weight` form is refused by its line, and a weight
    # row too many or too few by the weight count
    at = len(lines) - 1  # just before the closing #bias line
    for rows, message, lineno in [
            ([*lines[:at], "0\t123.0", *lines[at:]], "expected `weight`", at + 1),
            ([*lines[:at], "123.0", *lines[at:]], "weights for a", None),
            ([*lines[:at - 1], *lines[at:]], "weights for a", None)]:
        model_path.write_text("\n".join(rows) + "\n", encoding="utf-8")
        with pytest.raises(ParseError, match=message) as exc:
            TextClassifier.load(tmp_path, "intention")
        assert exc.value.line_number == lineno


def test_load_rejects_bad_vocabulary_line(bundle, tmp_path):
    bundle.save(tmp_path, "intention")
    vocab_path = tmp_path / "intention.vocab.tsv"
    lines = vocab_path.read_text(encoding="utf-8").splitlines()
    n = int(lines[0].removeprefix("#N="))
    feature, _ = lines[1].split("\t")
    # each bad line is line 2; without N >= 1 and 1 <= df <= N, some
    # TF-IDF weight ln(N / df) would be undefined
    for bad, rest in [("#N=q", lines[1:]), ("#N=0", lines[1:]), ("#N=-2", lines[1:]),
                      (f"{feature}\t0", lines[2:]),
                      (f"{feature}\t-1", lines[2:]),
                      (f"{feature}\t{n + 1}", lines[2:]),
                      (f"{feature}\t1\t1", lines[2:]), (feature, lines[2:]),
                      (f"#N={n}", lines[1:]), ("#=x", lines[1:]), ("#", lines[1:])]:
        vocab_path.write_text("\n".join([lines[0], bad, *rest]) + "\n", encoding="utf-8")
        with pytest.raises(ParseError) as exc:
            TextClassifier.load(tmp_path, "intention")
        assert exc.value.line_number == 2, bad
    # `#N=` is line 1, before the rows, which are checked against it
    vocab_path.write_text("\n".join([*lines[1:], lines[0]]) + "\n", encoding="utf-8")
    with pytest.raises(ParseError, match="expected `#N=`") as exc:
        TextClassifier.load(tmp_path, "intention")
    assert exc.value.line_number == 1


def test_load_rejects_a_repeated_vocabulary_feature_or_index(bundle, tmp_path):
    bundle.save(tmp_path, "intention")
    vocab_path = tmp_path / "intention.vocab.tsv"
    lines = vocab_path.read_text(encoding="utf-8").splitlines()
    first, second = (line.split("\t") for line in lines[1:3])
    # a feature's index is its row, so line 3 may neither repeat line 2's
    # feature nor come before it in string order, nor give an index in the
    # indexed `feature TAB index TAB df` form
    for bad, message in [(f"{first[0]}\t{second[1]}", f"repeated feature '{first[0]}'"),
                         (f"{first[0][:-1]}\t{second[1]}", "does not follow"),
                         (f"{second[0]}\t1\t{second[1]}", "expected `feature TAB df`")]:
        vocab_path.write_text("\n".join([*lines[:2], bad, *lines[3:]]) + "\n",
                              encoding="utf-8")
        with pytest.raises(ParseError, match=message) as exc:
            TextClassifier.load(tmp_path, "intention")
        assert exc.value.line_number == 3, bad


def _edit(lines, at, *new, drop=0):
    """`lines` with `drop` lines from index `at` replaced by `new`."""
    return [*lines[:at], *new, *lines[at + drop:]]


def _swap(lines, a, b):
    lines = list(lines)
    lines[a], lines[b] = lines[b], lines[a]
    return lines


def _text(lines, end="\n"):
    return "\n".join(lines) + end


# (file, its text from its lines, line named, message): each text breaks
# the layout that `save` writes, and the first line in file order that
# breaks it is named; a negative line counts from the end of the text
_LAYOUT_CASES = {
    "count-below-one": ("vocab", lambda ls: _text(["#N=0", *ls[1:]]), 1, "at least 1"),
    "vocab-blank-line": ("vocab", lambda ls: _text(_edit(ls, 2, "")), 3,
                         "expected `feature TAB df`, got ''"),
    "model-blank-line": ("model", lambda ls: _text(_edit(ls, 8, "")), 9,
                         "expected `weight`, got ''"),
    # "#x" sorts before every feature, so only its `#` breaks the layout
    "vocab-header-among-rows": ("vocab", lambda ls: _text(_edit(ls, 1, "#x\t1")), 2,
                                "expected `feature TAB df`, got '#x"),
    "vocab-count-among-rows": ("vocab", lambda ls: _text(_edit(ls, 2, ls[0])), 3, "got '#N="),
    "model-header-among-rows": ("model", lambda ls: _text(_edit(ls, 9, ls[5])), 10,
                                "got '#seed="),
    # float() would read the weight and skip the TAB
    "weight-with-a-tab": ("model", lambda ls: _text(_edit(ls, 8, ls[8] + "\t", drop=1)), 9,
                          "expected `weight`"),
    "headers-swapped": ("model", lambda ls: _text(_swap(ls, 2, 3)), 3, "expected `#alpha=`"),
    "header-after-bias": ("model", lambda ls: _text([*ls, ls[5]]), -2, "got '#bias="),
    "vocab-no-final-newline": ("vocab", lambda ls: _text(ls, ""), -1, "no newline at the end"),
    "model-no-final-newline": ("model", lambda ls: _text(ls, ""), -1, "no newline at the end"),
    "text-after-final-newline": ("model", lambda ls: _text(ls) + "0.5\n1.5", -3, "got '#bias="),
    # the TABs of two rows moved so that the cells, taken in file order,
    # are those of the rows as written
    "zero-then-two-tabs": ("vocab", lambda ls: _text(_edit(
        ls, 1, ls[1].split("\t")[0], ls[1].split("\t")[1] + "\t" + ls[2], drop=2)), 2,
        "expected `feature TAB df`"),
    "two-bad-rows": ("vocab", lambda ls: _text(_edit(_swap(ls, 3, 4), 2,
                                                     ls[2].split("\t")[0] + "\t0", drop=1)),
                     3, "df 0 is not in"),
    "two-bad-weights": ("model", lambda ls: _text(_edit(_edit(ls, 11, "x", drop=1), 9, "nan",
                                                        drop=1)), 10, "not finite"),
}


@pytest.mark.parametrize("case", _LAYOUT_CASES)
def test_load_refuses_any_other_layout(bundle, tmp_path, case):
    suffix, text_of, lineno, message = _LAYOUT_CASES[case]
    bundle.save(tmp_path, "intention")
    path = tmp_path / f"intention.{suffix}.tsv"
    text = text_of(path.read_text(encoding="utf-8").splitlines())
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ParseError, match=message) as exc:
        TextClassifier.load(tmp_path, "intention")
    lines = text.count("\n") + (not text.endswith("\n"))
    assert exc.value.line_number == (lineno if lineno > 0 else lines + 1 + lineno)


def test_a_fit_without_features_round_trips(tmp_path):
    # segments of stop words and digits only have no n-gram
    corpus = [LabeledSegment(PolicySegment("c", text), label)
              for text, label in [("the of and", 1), ("2021 !", 0)]]
    bundle = fit_grams(labeled_grams(corpus, (1, 2), INTENTION), TF, TrainConfig(seed=1))
    assert len(bundle.vocabulary) == 0
    bundle.save(tmp_path, "intention")
    assert (tmp_path / "intention.vocab.tsv").read_text(encoding="utf-8") == "#N=2\n"
    assert TextClassifier.load(tmp_path, "intention") == bundle


# text that UTF-8 encodes; a feature holds no line break or TAB and does
# not start with `#`, since no row does
_TEXT = st.characters(blacklist_categories=("Cs",))
_FEATURE = st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\t\n\r"),
                   max_size=6).filter(lambda f: not f.startswith("#"))
_WEIGHT = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                    st.sampled_from([-0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                                     1e308, -1e308, sys.float_info.max]))


@st.composite
def _bundles(draw):
    features = sorted(draw(st.sets(_FEATURE, max_size=12)))
    n = draw(st.integers(1, 10 ** 6))
    dfs = draw(st.lists(st.integers(1, n), min_size=len(features), max_size=len(features)))
    weights = draw(st.lists(_WEIGHT, min_size=len(features), max_size=len(features)))
    config = TrainConfig(alpha=draw(st.floats(1e-9, 10.0)), epochs=draw(st.integers(1, 99)),
                         eta0=draw(st.floats(1e-9, 10.0)), seed=draw(st.integers(0, 2 ** 32)))
    lo = draw(st.integers(1, 4))
    return TextClassifier(
        ngram=(lo, draw(st.integers(lo, 4))), scheme=draw(st.sampled_from(SCHEMES)),
        vocabulary=Vocabulary(dict(zip(features, range(len(features)))), dfs, n),
        model=LinearModel(weights=tuple(weights), bias=draw(_WEIGHT), config=config))


def _files(directory):
    return [(Path(directory) / f"b.{suffix}.tsv").read_bytes() for suffix in ("vocab", "model")]


@settings(max_examples=150, deadline=None)
@given(_bundles())
def test_save_load_save_is_the_identity(bundle):
    with tempfile.TemporaryDirectory() as a, tempfile.TemporaryDirectory() as b:
        bundle.save(a, "b")
        loaded = TextClassifier.load(a, "b")
        loaded.save(b, "b")
        assert _files(a) == _files(b)
    assert loaded == bundle
    # == treats -0.0 and 0.0 alike; their hex forms do not
    assert list(map(float.hex, loaded.model.weights)) == list(map(float.hex, bundle.model.weights))
    assert loaded.model.bias.hex() == bundle.model.bias.hex()


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(["vocab", "model"]),
       st.sampled_from(["insert", "delete", "duplicate", "replace"]),
       st.integers(0, 10 ** 6), st.text(_TEXT, max_size=20))
def test_any_one_line_edit_loads_or_is_a_parse_error(bundle, suffix, kind, at, text):
    with tempfile.TemporaryDirectory() as directory:
        bundle.save(directory, "b")
        path = Path(directory) / f"b.{suffix}.tsv"
        # the last item is what follows the final newline
        lines = path.read_text(encoding="utf-8").split("\n")
        at %= len(lines)
        lines[at:at + (kind != "insert")] = {"insert": [text], "delete": [], "replace": [text],
                                              "duplicate": [lines[at]] * 2}[kind]
        path.write_bytes("\n".join(lines).encode("utf-8"))
        try:
            TextClassifier.load(directory, "b")
        except ParseError:
            pass


def test_a_fit_saves_the_range_its_grams_were_numbered_over(tmp_path):
    data = labeled_grams(_corpus(), (1, 3), INTENTION)
    fit_grams(data, TF, TrainConfig(seed=3)).save(tmp_path, "intention")
    lines = (tmp_path / "intention.model.tsv").read_text(encoding="utf-8").splitlines()
    assert lines[1] == "#ngram=1-3"
    assert TextClassifier.load(tmp_path, "intention").ngram == (1, 3)


# few distinct n-grams, so that samples share them: df == N and grams out of
# a fold's vocabulary both occur; string order is code-point order.  In the
# example, every sample holds "a" and a fold's test sample may hold "c".
_GRAMS = ["a", "b", "a b", "b a", "c", "Z", "zz", "\u00e9t\u00e9", "a c b"]


@st.composite
def _labeled_gram_lists(draw):
    n = draw(st.integers(3, 12))
    gram_lists = draw(st.lists(st.lists(st.sampled_from(_GRAMS), max_size=10),
                               min_size=n, max_size=n))
    labels = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)
                  .filter(lambda ys: len(set(ys)) == 2))
    # no more folds than the larger class has samples, or a test fold is empty
    k = draw(st.integers(2, max(labels.count(0), labels.count(1))))
    return gram_lists, labels, k, draw(st.integers(0, 99))


def _hexed(x):
    """A sample's features as a list of indices and one of float hex strings."""
    idx, values = (np.asarray(part).tolist() for part in x)
    return idx, [float(v).hex() for v in values]


def _assert_as_vectorize(data, gram_lists, among, scheme):
    """Both weighings against the reference vocabulary and vectors of
    `test_training_reference`, over the n-grams taken as unigrams."""
    vocab = IdVocabulary(data, among, scheme)
    want_vocab = reference._reference_build_vocabulary([gram_lists[i] for i in among], 1, 1)
    assert vocab.vocabulary() == want_vocab
    assert list(vocab.vocabulary().feature_to_index) == list(want_vocab.feature_to_index)
    model = LinearModel(weights=(0.0,) * len(vocab), bias=0.0, config=TrainConfig())
    bundle = TextClassifier(ngram=data.ngram, vocabulary=vocab.vocabulary(), scheme=scheme,
                            model=model)
    for i, grams in enumerate(gram_lists):
        want = _hexed(reference._reference_vectorize(grams, want_vocab, 1, 1, scheme))
        assert _hexed(vocab.vector(i)) == want
        assert _hexed(bundle.weigh(grams)) == want


@settings(max_examples=60, deadline=None)
@given(_labeled_gram_lists())
@example(([["a", "b", "a"], ["a"], ["a", "c", "c"], ["b", "a"]], [1, 0, 1, 0], 2, 0))
def test_fold_vectors_are_those_of_vectorize(case):
    """Every fold's train and test vectors, and those over all the samples
    (`fit_on_all`), equal the reference vectors against the reference
    vocabulary of the fold's train grams, by id and by string: the same
    indices in the same order, the same values."""
    gram_lists, labels, k, seed = case
    data = number_grams(gram_lists, labels, (1, 1))
    assert data.grams == sorted(set().union(*gram_lists))
    for scheme in SCHEMES:
        _assert_as_vectorize(data, gram_lists, range(len(labels)), scheme)
        for train_idx, _ in stratified_kfold(labels, k, seed):
            _assert_as_vectorize(data, gram_lists, train_idx, scheme)


def test_id_vocabulary_needs_a_sample_and_a_scheme():
    data = number_grams([["a"], ["b"]], [0, 1], (1, 1))
    with pytest.raises(ValueError, match="need at least one segment"):
        IdVocabulary(data, [], TF)
    with pytest.raises(ValueError, match="unknown weighting scheme"):
        IdVocabulary(data, [0], "idf")


fork_only = pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                               reason="the fold pool forks")


def _fold_pids(monkeypatch, tmp_path):
    """Record the process each fold's metrics are computed in."""
    real = training.compute_metrics
    record = tmp_path / "pids"

    def recording(predictions, labels):
        with open(record, "a", encoding="utf-8") as fh:
            fh.write(f"{os.getpid()}\n")
        return real(predictions, labels)

    monkeypatch.setattr(training, "compute_metrics", recording)
    return lambda: record.read_text(encoding="utf-8").split()


@fork_only
@pytest.mark.parametrize("scheme", SCHEMES)
@pytest.mark.parametrize("fit_on_all", [False, True])
def test_pooled_folds_equal_in_process_folds(monkeypatch, tmp_path, intention_corpus,
                                             scheme, fit_on_all):
    pids = _fold_pids(monkeypatch, tmp_path)
    args = (labeled_grams(intention_corpus, (1, 2), INTENTION), scheme,
            TrainConfig(epochs=10, seed=4), 5, 4, fit_on_all)
    monkeypatch.setattr(parallel, "usable_cpus", lambda: 1)
    alone = cross_validate_grams(*args)
    assert pids() == [str(os.getpid())] * 5
    monkeypatch.setattr(parallel, "usable_cpus", lambda: 3)
    pooled = cross_validate_grams(*args)
    assert len(set(pids()[5:])) > 1 and str(os.getpid()) not in pids()[5:]
    assert pooled.folds == alone.folds
    assert pooled.means == alone.means


def _one_positive_corpus():
    texts = ["we transfer data abroad", "we use cookies", "delete your account",
             "settings can change", "we protect your account"]
    return [LabeledSegment(PolicySegment("c", t), int(i == 0)) for i, t in enumerate(texts)]


@fork_only
@pytest.mark.parametrize("cpus", [1, 2])
def test_a_failing_fold_raises_its_error_in_the_caller(monkeypatch, cpus):
    # the fold that tests the one positive trains on negatives only
    monkeypatch.setattr(parallel, "usable_cpus", lambda: cpus)
    with pytest.raises(DegenerateTraining,
                       match=r"^need both classes in training data, got labels \[0\]$"):
        cross_validate_grams(labeled_grams(_one_positive_corpus(), (1, 1), INTENTION), TF,
                             TrainConfig(epochs=2), 2, 0)
