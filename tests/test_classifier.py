"""TextClassifier bundle round-trip tests."""

import pytest

from transferaudit.classifier import TextClassifier, fit_text_classifier
from transferaudit.corpus import Corpus, LabeledSegment, PolicySegment
from transferaudit.errors import ParseError
from transferaudit.features import TF
from transferaudit.linear import TrainConfig, intention_label

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
    samples = [LabeledSegment(PolicySegment("c", i, t), 1)
               for i, t in enumerate(positives * 3)]
    samples += [LabeledSegment(PolicySegment("c", 90 + i, t), 0)
                for i, t in enumerate(negatives * 3)]
    return Corpus(samples=samples)


@pytest.fixture(scope="module")
def bundle():
    return fit_text_classifier(_corpus(), (1, 2), TF, TrainConfig(seed=3), intention_label)


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
    # swap two feature indices: the stored vocab hash must no longer match
    head, a, b = lines[0], lines[1], lines[2]
    fa, ia, da = a.split("\t")
    fb, ib, db = b.split("\t")
    lines[1] = f"{fa}\t{ib}\t{da}"
    lines[2] = f"{fb}\t{ia}\t{db}"
    vocab_path.write_text("\n".join([head, *lines[1:]]) + "\n", encoding="utf-8")
    with pytest.raises(ParseError):
        TextClassifier.load(tmp_path, "intention")


def test_default_pipeline_adds_no_header_lines(bundle, tmp_path):
    bundle.save(tmp_path, "intention")
    lines = (tmp_path / "intention.model.tsv").read_text(encoding="utf-8").splitlines()
    keys = [ln[1:].partition("=")[0] for ln in lines if ln.startswith("#")]
    assert keys == ["scheme", "ngram", "alpha", "eta0", "epochs", "seed", "loss",
                    "vocab_sha256", "bias"]


@pytest.mark.parametrize("line", ["#stemmer=porter", "#stem=maybe",
                                  "#stopword_list_id=klingon", "#stem=false",
                                  "#scheme=foo", "#ngram=x", "#ngram=0-9", "#ngram=3-2",
                                  "#loss=hinge", "#alpha=zz", "#alpha=-1", "#alpha=nan",
                                  "#alpha=inf", "#eta0=0", "#eta0=nan", "#eta0=-inf", "#epochs=1.5",
                                  "#epochs=0", "#bias=zz", "#bias=nan",
                                  "0\tabc", "x\t0.5", "0\tnan", "1\tinf"])
def test_load_rejects_bad_header_line(bundle, tmp_path, line):
    bundle.save(tmp_path, "intention")
    model_path = tmp_path / "intention.model.tsv"
    lines = model_path.read_text(encoding="utf-8").splitlines()
    model_path.write_text("\n".join([lines[0], line, *lines[1:]]) + "\n", encoding="utf-8")
    with pytest.raises(ParseError) as exc:
        TextClassifier.load(tmp_path, "intention")
    assert exc.value.line_number == 2


def test_load_rejects_repeated_weight_index(bundle, tmp_path):
    bundle.save(tmp_path, "intention")
    model_path = tmp_path / "intention.model.tsv"
    lines = model_path.read_text(encoding="utf-8").splitlines()
    # the repeated index goes last, just before the closing #bias line
    lines.insert(len(lines) - 1, "0\t123.0")
    model_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(ParseError) as exc:
        TextClassifier.load(tmp_path, "intention")
    assert exc.value.line_number == len(lines) - 1
    assert "repeated weight index 0" in str(exc.value)


def test_load_rejects_bad_vocabulary_line(bundle, tmp_path):
    bundle.save(tmp_path, "intention")
    vocab_path = tmp_path / "intention.vocab.tsv"
    lines = vocab_path.read_text(encoding="utf-8").splitlines()
    vocab_path.write_text("\n".join([lines[0], "#N=q", *lines[1:]]) + "\n", encoding="utf-8")
    with pytest.raises(ParseError) as exc:
        TextClassifier.load(tmp_path, "intention")
    assert exc.value.line_number == 2
