"""Segmentation, corpus IO and stratified fold tests."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from transferaudit.corpus import (
    ADEQUACY,
    BLANKLINE,
    FULLSTOP,
    INTENTION,
    TASKS,
    LabeledSegment,
    PolicyDocument,
    PolicySegment,
    _unescape,
    load_corpus,
    save_corpus,
    segment_policy,
    stratified_kfold,
    task_samples,
)
from transferaudit.errors import EmptyDocument, FoldError, LabelError, ParseError


def test_segment_two_sentences():
    doc = PolicyDocument("app", "We transfer data. We use cookies.")
    segments = segment_policy(doc, FULLSTOP)
    assert [s.text for s in segments] == ["We transfer data", "We use cookies"]


def test_segment_empty_document_rejected():
    with pytest.raises(EmptyDocument):
        segment_policy(PolicyDocument("app", "   \n "), FULLSTOP)


def test_segment_three_sentence_paragraph():
    # three sentences ending in a full stop -> three segments
    doc = PolicyDocument("app", (
        "Our business may require us to transfer your personal data to "
        "countries outside of the European Economic Area (EEA), including the "
        "Peoples Republic of China or Singapore. We take appropriate steps and "
        "we implement measures such as standard contractual clauses. A copy of "
        "those clauses can be obtained by contacting our support team."
    ))
    segments = segment_policy(doc, FULLSTOP)
    assert len(segments) == 3


def test_segment_abbreviation_guard():
    doc = PolicyDocument("app", "Data goes to the U.S. and Canada. Cookies are used.")
    segments = segment_policy(doc, FULLSTOP)
    assert [s.text for s in segments] == [
        "Data goes to the U.S. and Canada", "Cookies are used"]


def test_segment_blankline_mode():
    doc = PolicyDocument("app", "First paragraph. Two sentences.\n\nSecond paragraph.")
    segments = segment_policy(doc, BLANKLINE)
    assert len(segments) == 2
    assert segments[0].text.startswith("First")


def test_segmentation_is_total_for_nonempty_documents():
    doc = PolicyDocument("app", "no separators at all")
    assert len(segment_policy(doc, FULLSTOP)) == 1


@given(st.lists(
    st.lists(st.text(alphabet="abcdefgh", min_size=2, max_size=8), min_size=1,
             max_size=6).map(" ".join),
    min_size=1, max_size=8))
def test_fullstop_reconstruction(sentences):
    # single-letter sentence-final tokens are excluded: the abbreviation
    # guard intentionally refuses to split after them
    text = ". ".join(sentences) + "."
    segments = segment_policy(PolicyDocument("app", text), FULLSTOP)
    assert ". ".join(s.text for s in segments) + "." == text


def _corpus(pos, neg):
    samples = []
    for i in range(pos):
        samples.append(LabeledSegment(PolicySegment("d", f"positive {i}"), 1))
    for i in range(neg):
        samples.append(LabeledSegment(PolicySegment("d", f"negative {i}"), 0))
    return samples


def _labels(corpus):
    return [s.intention_label for s in corpus]


def test_corpus_counts():
    assert _labels(_corpus(3, 5)) == [1, 1, 1, 0, 0, 0, 0, 0]


def test_each_task_picks_and_labels_its_samples():
    samples = [LabeledSegment(PolicySegment("d", "a"), 1, frozenset({"adequacy", "scc"})),
               LabeledSegment(PolicySegment("d", "b"), 0, frozenset({"representative"})),
               LabeledSegment(PolicySegment("d", "c"), 1),
               LabeledSegment(PolicySegment("d", "d"), 0)]
    assert TASKS == (INTENTION, ADEQUACY) == ("intention", "adequacy")
    assert task_samples(samples, INTENTION) == list(zip(samples, [1, 0, 1, 0]))
    # layer two learns from the intention-positive samples only
    assert task_samples(samples, ADEQUACY) == [(samples[0], 1), (samples[2], 0)]
    # a single pass over the samples: a generator serves as well as a list
    assert task_samples(iter(samples), ADEQUACY) == task_samples(samples, ADEQUACY)


@pytest.mark.parametrize("task", ["other", "Intention", "", "country"])
def test_task_samples_refuses_an_unknown_task(task):
    with pytest.raises(ValueError, match=f"unknown task {task!r}"):
        task_samples(_corpus(1, 1), task)


def test_labeled_segment_rejects_unknown_label():
    with pytest.raises(ValueError):
        LabeledSegment(PolicySegment("d", "x"), 1, frozenset({"sccx"}))


def test_labeled_segment_rejects_elements_without_intention():
    with pytest.raises(ValueError):
        LabeledSegment(PolicySegment("d", "x"), 0, frozenset({"scc"}))


def test_representative_allowed_without_intention():
    sample = LabeledSegment(PolicySegment("d", "x"), 0, frozenset({"representative"}))
    assert sample.intention_label == 0


def test_corpus_roundtrip(tmp_path):
    samples = [
        LabeledSegment(PolicySegment("app.one", "We transfer data\tto the U.S."), 1,
                       frozenset({"scc", "country:US"})),
        LabeledSegment(PolicySegment("app.one", "Multi\nline segment \\ with slash"), 0),
        LabeledSegment(PolicySegment("app.two", "Nothing to see"), 0,
                       frozenset({"representative"})),
    ]
    path = tmp_path / "corpus.tsv"
    save_corpus(samples, path)
    assert load_corpus(path) == samples


def test_load_corpus_counts(tmp_path):
    path = tmp_path / "corpus.tsv"
    path.write_text("a\t1\t-\tWe transfer data\nb\t0\t-\tWe use cookies\n", encoding="utf-8")
    assert _labels(load_corpus(path)) == [1, 0]


def test_load_corpus_unknown_label(tmp_path):
    path = tmp_path / "corpus.tsv"
    path.write_text("a\t1\tsccx\tSome text\n", encoding="utf-8")
    with pytest.raises(LabelError) as excinfo:
        load_corpus(path)
    assert excinfo.value.line_number == 1


def test_load_corpus_allows_the_ungated_elements_without_intention(tmp_path):
    path = tmp_path / "corpus.tsv"
    path.write_text("a\t0\tprivacy_shield\tWe rely on the Privacy Shield\n"
                    "b\t0\tprivacy_shield;representative\tOur EU representative\n",
                    encoding="utf-8")
    assert [s.element_labels for s in load_corpus(path)] == [
        {"privacy_shield"}, {"privacy_shield", "representative"}]


@pytest.mark.parametrize("intention, labels", [
    ("0", "scc"), ("0", "privacy_shield;scc"), ("0", "country:US"), ("1", "intention"),
    ("1", "countries")])
def test_load_corpus_rejects_a_label_its_intention_does_not_allow(tmp_path, intention, labels):
    # intention has a column of its own, and countries are labeled one by one
    path = tmp_path / "corpus.tsv"
    path.write_text(f"a\t1\t-\tWe transfer data\nb\t{intention}\t{labels}\tSome text\n",
                    encoding="utf-8")
    with pytest.raises(LabelError) as excinfo:
        load_corpus(path)
    assert excinfo.value.line_number == 2


def test_load_corpus_malformed_line(tmp_path):
    path = tmp_path / "corpus.tsv"
    path.write_text("a\t1\tonly three fields\n", encoding="utf-8")
    with pytest.raises(ParseError) as excinfo:
        load_corpus(path)
    assert excinfo.value.line_number == 1


def _reference_unescape(text, lineno):
    """The character walk `load_corpus` used before its regex."""
    out = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch != "\\":
            out.append(ch)
            i += 1
            continue
        if i + 1 >= len(text):
            raise ParseError("dangling escape at end of text field", lineno)
        nxt = text[i + 1]
        mapping = {"\\": "\\", "t": "\t", "n": "\n", "r": "\r"}
        if nxt not in mapping:
            raise ParseError(f"unknown escape \\{nxt}", lineno)
        out.append(mapping[nxt])
        i += 2
    return "".join(out)


def _unescape_outcome(fn, text):
    try:
        return fn(text, 7)
    except ParseError as exc:
        return str(exc), exc.line_number


@settings(max_examples=300)
@given(st.lists(st.sampled_from(["\\", "t", "n", "r", "x", "\n", "é", "日"]), max_size=20)
       .map("".join), st.booleans())
def test_unescape_matches_character_walk(text, trailing_backslash):
    if trailing_backslash:
        text += "\\"
    assert _unescape_outcome(_unescape, text) == _unescape_outcome(_reference_unescape, text)


def test_load_corpus_bad_escapes_name_the_line(tmp_path):
    path = tmp_path / "corpus.tsv"
    for text, message in (("ends in \\", "dangling escape"), ("a \\q", "unknown escape \\q")):
        path.write_text(f"a\t0\t-\tfine\nb\t0\t-\t{text}\n", encoding="utf-8")
        with pytest.raises(ParseError) as excinfo:
            load_corpus(path)
        assert excinfo.value.line_number == 2
        assert message in str(excinfo.value)


def test_stratified_kfold_exact_divisibility():
    folds = stratified_kfold(_labels(_corpus(20, 80)), 5, seed=1)
    for _, test in folds:
        positives = sum(1 for i in test if i < 20)
        assert positives == 4
        assert len(test) == 20


def test_stratified_kfold_pigeonhole():
    folds = stratified_kfold(_labels(_corpus(2, 8)), 5, seed=3)
    for _, test in folds:
        assert sum(1 for i in test if i < 2) in (0, 1)


def test_stratified_kfold_deterministic():
    a = stratified_kfold(_labels(_corpus(10, 40)), 5, seed=42)
    b = stratified_kfold(_labels(_corpus(10, 40)), 5, seed=42)
    assert a == b


def test_stratified_kfold_partition():
    corpus = _corpus(7, 13)
    folds = stratified_kfold(_labels(corpus), 4, seed=0)
    seen = sorted(i for _, test in folds for i in test)
    assert seen == list(range(len(corpus)))
    for train, test in folds:
        assert sorted(train + test) == list(range(len(corpus)))


def test_stratified_kfold_k_too_large():
    with pytest.raises(FoldError):
        stratified_kfold(_labels(_corpus(2, 2)), 5, seed=0)


def test_stratified_kfold_single_class():
    with pytest.raises(FoldError):
        stratified_kfold([1] * 6, 3, seed=0)


def test_stratified_kfold_rejects_an_empty_test_fold():
    # each class is dealt from fold 0, so two samples fill only fold 0 of 2
    with pytest.raises(FoldError, match="^fold 1 gets no test sample: k=2 exceeds"):
        stratified_kfold([0, 1], 2, seed=0)
    with pytest.raises(FoldError, match="^fold 4 gets no test sample: k=5 exceeds"):
        stratified_kfold([1, 0, 0, 0, 0], 5, seed=0)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 1), min_size=1, max_size=30), st.integers(2, 8),
       st.integers(0, 1000))
def test_stratified_kfold_guarantees(labels, k, seed):
    positives = sum(labels)
    negatives = len(labels) - positives
    if min(positives, negatives) == 0 or k > max(positives, negatives):
        with pytest.raises(FoldError):
            stratified_kfold(labels, k, seed)
        return
    folds = stratified_kfold(labels, k, seed)
    assert sorted(i for _, test in folds for i in test) == list(range(len(labels)))
    assert all(test for _, test in folds)
    for cls in (0, 1):
        counts = [sum(labels[i] == cls for i in test) for _, test in folds]
        assert max(counts) - min(counts) <= 1


@settings(max_examples=40, deadline=None)
@given(st.integers(10, 400), st.floats(0.01, 0.5), st.integers(0, 10_000))
def test_stratification_property(n, ratio, seed):
    pos = max(1, int(n * ratio))
    neg = n - pos
    if neg < 1:
        return
    corpus = _corpus(pos, neg)
    k = 5 if n >= 5 else 2
    folds = stratified_kfold(_labels(corpus), k, seed)
    ideal = pos // k
    for _, test in folds:
        positives = sum(1 for i in test if i < pos)
        assert abs(positives - ideal) <= 1


def _reference_fullstop_chunks(text):
    """The character walk `segment_policy` used before its regex scan."""
    chunks = []
    start = 0
    for i, ch in enumerate(text):
        if ch != "." or (i + 1 < len(text) and not text[i + 1].isspace()):
            continue
        run = 0
        j = i - 1
        while j >= 0 and text[j].isalpha():
            run += 1
            j -= 1
        if run == 1:
            continue
        chunks.append(text[start:i].strip())
        start = i + 1
    chunks.append(text[start:].strip())
    return [c for c in chunks if c]


@settings(max_examples=300)
@given(st.lists(st.one_of(
    st.sampled_from([".", "..", "U.S.", "a.", "é.", "ß", "日本", "5.", "_.", "²."]),
    st.sampled_from([" ", "\n", "\t", "\x1c", "\x85", " ", " ", "　"]),
    st.text(max_size=4),
), max_size=30).map("".join).filter(str.strip))
def test_fullstop_segments_match_character_walk(text):
    segments = segment_policy(PolicyDocument("app", text), FULLSTOP)
    assert [s.text for s in segments] == _reference_fullstop_chunks(text.strip())
