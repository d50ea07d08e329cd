"""The one training path against the two it replaced.

`_reference_cross_validate` and `_reference_fit` are the k-fold evaluation
and the bundle fit as they were written before they shared one fit: each
re-tokenizes the corpus, and every vocabulary build and every vectorization
extracts the n-grams again from the tokens.  Folds are dealt over a
relabeled corpus.  The SGD loop, prediction and metrics are shared; they
are not what changed.  Fold metrics must be exactly equal, and model and
vocabulary files byte-identical, so the n-grams of a sample must reach
training in the same order.  The references pick each task's samples
themselves (`_reference_task`).  They train in corpus order, so the
generated corpora come in the canonical order that training puts any
corpus in; `test_cli` checks that the line order of a corpus does not
matter.
"""

import math
import random

import numpy as np
import pytest

from transferaudit.classifier import TextClassifier
from transferaudit.corpus import TASKS, LabeledSegment, PolicySegment
from transferaudit.features import (
    BC,
    SCHEMES,
    TF,
    TFIDF,
    Vocabulary,
    tokenize,
)
from transferaudit.linear import (
    CrossValidationResult,
    TrainConfig,
    compute_metrics,
    predict,
)
from transferaudit.training import cross_validate, fit_text_classifier, train


def _reference_extract_ngrams(tokens, ngram_min, ngram_max):
    grams = []
    for n in range(ngram_min, ngram_max + 1):
        if n == 1:
            grams.extend(tokens)
            continue
        for i in range(len(tokens) - n + 1):
            grams.append(" ".join(tokens[i:i + n]))
    return grams


def _reference_build_vocabulary(token_lists, ngram_min, ngram_max):
    df = {}
    for tokens in token_lists:
        for gram in set(_reference_extract_ngrams(tokens, ngram_min, ngram_max)):
            df[gram] = df.get(gram, 0) + 1
    features = sorted(df)
    return Vocabulary(
        feature_to_index={f: i for i, f in enumerate(features)},
        document_frequency=[df[f] for f in features],
        document_count=len(token_lists),
    )


def _reference_vectorize(tokens, vocab, ngram_min, ngram_max, scheme):
    assert scheme in SCHEMES
    counts = {}
    for gram in _reference_extract_ngrams(tokens, ngram_min, ngram_max):
        idx = vocab.feature_to_index.get(gram)
        if idx is not None:
            counts[idx] = counts.get(idx, 0) + 1
    entries = {}
    for idx, count in counts.items():
        if scheme == BC:
            entries[idx] = 1.0
        elif scheme == TF:
            entries[idx] = float(count)
        else:
            weight = count * math.log(vocab.document_count / vocab.document_frequency[idx])
            if weight != 0.0:
                entries[idx] = weight
    return (np.array(list(entries), dtype=np.int64),
            np.array(list(entries.values()), dtype=np.float64))


def _reference_stratified_kfold(corpus, k, seed):
    n = len(corpus)
    positives = [i for i, s in enumerate(corpus) if s.intention_label == 1]
    negatives = [i for i, s in enumerate(corpus) if s.intention_label == 0]
    rng = random.Random(seed)
    rng.shuffle(positives)
    rng.shuffle(negatives)
    test_folds = [[] for _ in range(k)]
    for pool in (positives, negatives):
        for j, idx in enumerate(pool):
            test_folds[j % k].append(idx)
    folds = []
    for f in range(k):
        test = sorted(test_folds[f])
        test_set = set(test)
        folds.append(([i for i in range(n) if i not in test_set], test))
    return folds


def _reference_task(corpus, task):
    """The samples that `task` trains on and their labels: the adequacy
    model learns from the intention-positive samples only."""
    if task == "intention":
        return corpus, [s.intention_label for s in corpus]
    assert task == "adequacy"
    kept = [s for s in corpus if s.intention_label == 1]
    return kept, [int("adequacy" in s.element_labels) for s in kept]


def _reference_cross_validate(corpus, ngram, scheme, train_cfg, k, seed, fit_on_all, task):
    corpus, labels = _reference_task(corpus, task)
    tokens = [tokenize(s.segment.text) for s in corpus]
    relabeled = [LabeledSegment(s.segment, y, s.element_labels if y else frozenset())
                 for s, y in zip(corpus, labels)]
    folds = _reference_stratified_kfold(relabeled, k, seed)
    shared_vocab = _reference_build_vocabulary(tokens, *ngram) if fit_on_all else None
    results = []
    for train_idx, test_idx in folds:
        vocab = (shared_vocab if shared_vocab is not None
                 else _reference_build_vocabulary([tokens[i] for i in train_idx], *ngram))
        train_samples = [(_reference_vectorize(tokens[i], vocab, *ngram, scheme), labels[i])
                         for i in train_idx]
        model = train(train_samples, train_cfg, len(vocab))
        predictions = [predict(model, _reference_vectorize(tokens[i], vocab, *ngram, scheme))
                       for i in test_idx]
        results.append(compute_metrics(predictions, [labels[i] for i in test_idx]))
    return CrossValidationResult(folds=results)


def _reference_fit(corpus, ngram, scheme, train_cfg, task):
    corpus, labels = _reference_task(corpus, task)
    tokens = [tokenize(s.segment.text) for s in corpus]
    vocab = _reference_build_vocabulary(tokens, *ngram)
    samples = [(_reference_vectorize(t, vocab, *ngram, scheme), y)
               for t, y in zip(tokens, labels)]
    return vocab, train(samples, train_cfg, len(vocab))


_WORDS = ["transfer", "transferred", "data", "countries", "outside", "servers", "located",
          "cookies", "account", "settings", "delete", "store", "processing", "partners",
          "adequate", "protection", "decision", "commission", "personal", "information",
          "abroad", "recipients", "notifications", "marketing", "security", "measures"]
_FILLERS = ["the", "of", "we", "may", "your", "and", "to", "in", "2021", "U.S.", "café"]


def _generated_corpus(seed, n=60):
    """Labels cycle: adequacy, intention only twice, negative twice; text is noisy."""
    rng = random.Random(seed)
    samples = []
    for i in range(n):
        kind = i % 5
        words = [rng.choice(_WORDS + _FILLERS) for _ in range(rng.randint(3, 14))]
        if kind < 3 and rng.random() < 0.8:
            words.insert(rng.randrange(len(words) + 1), "transfer")
        if kind == 0 and rng.random() < 0.8:
            words.insert(rng.randrange(len(words) + 1), "adequate protection")
        text = " ".join(words).capitalize() + rng.choice([".", "!", ""])
        labels = frozenset({"adequacy"}) if kind == 0 else frozenset()
        samples.append(LabeledSegment(PolicySegment("g", text), int(kind < 3), labels))
    samples.sort(key=lambda s: (s.segment.text, s.intention_label, sorted(s.element_labels)))
    return samples


CORPORA = {seed: _generated_corpus(seed) for seed in (1, 2)}
CFG = TrainConfig(alpha=1e-3, epochs=10, seed=3)


@pytest.mark.parametrize("seed", sorted(CORPORA))
@pytest.mark.parametrize("task", TASKS)
@pytest.mark.parametrize("fit_on_all", [False, True], ids=["per-fold", "fit-on-all"])
@pytest.mark.parametrize("ngram", [(1, 1), (1, 2), (2, 4)], ids=["1-1", "1-2", "2-4"])
@pytest.mark.parametrize("scheme", [BC, TF, TFIDF])
def test_cross_validate_matches_reference(scheme, ngram, fit_on_all, task, seed):
    corpus = CORPORA[seed]
    got = cross_validate(corpus, ngram, scheme, CFG, k=5, seed=seed, fit_on_all=fit_on_all,
                         task=task)
    want = _reference_cross_validate(corpus, ngram, scheme, CFG, 5, seed, fit_on_all, task)
    assert got.folds == want.folds


@pytest.mark.parametrize("seed", sorted(CORPORA))
@pytest.mark.parametrize("task", TASKS)
@pytest.mark.parametrize("ngram", [(1, 1), (1, 2), (2, 4)], ids=["1-1", "1-2", "2-4"])
@pytest.mark.parametrize("scheme", [BC, TF, TFIDF])
def test_fit_matches_reference(scheme, ngram, task, seed, tmp_path):
    fit_text_classifier(CORPORA[seed], ngram, scheme, CFG, task).save(tmp_path / "got", "m")
    vocab, model = _reference_fit(CORPORA[seed], ngram, scheme, CFG, task)
    TextClassifier(ngram=ngram, vocabulary=vocab, scheme=scheme, model=model).save(
        tmp_path / "want", "m")
    for suffix in ("vocab", "model"):
        assert ((tmp_path / "got" / f"m.{suffix}.tsv").read_bytes()
                == (tmp_path / "want" / f"m.{suffix}.tsv").read_bytes())
