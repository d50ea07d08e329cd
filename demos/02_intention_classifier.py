"""Training the transfer-intention classifier and comparing settings.

Builds a synthetic labeled corpus, runs stratified 5-fold cross-validation
over a grid of weighting schemes and n-gram ranges, then fits and saves the
winning configuration.
"""

import random
import tempfile

from transferaudit.classifier import TextClassifier
from transferaudit.corpus import INTENTION, LabeledSegment, PolicySegment
from transferaudit.features import BC, TF, TFIDF
from transferaudit.linear import TrainConfig
from transferaudit.training import cross_validate_grams, fit_grams, labeled_grams

POSITIVE_TEMPLATES = [
    "we may transfer your personal data to countries outside the european economic area",
    "your information may be transferred to and processed in other countries",
    "we store and process personal information on servers located in the united states",
    "personal data is transferred internationally to our partners",
    "we operate internationally and transfer personal information across borders",
]
NEGATIVE_TEMPLATES = [
    "we use cookies to personalize content and measure our audience",
    "you can delete your account at any time from the settings menu",
    "we retain your data for as long as your account remains active",
    "push notifications can be disabled in your device settings",
    "advertising identifiers help us show relevant advertisements",
    "we take reasonable security measures to protect your information",
    "you may opt out of marketing emails at any time",
    "log data includes your device model and operating system version",
]

rng = random.Random(2020)
corpus = []
for i in range(300):
    positive = i % 10 == 0  # ~10% positive, mirroring the class imbalance
    pool = POSITIVE_TEMPLATES if positive else NEGATIVE_TEMPLATES
    words = rng.choice(pool).split()
    # light noise so folds differ
    if rng.random() < 0.5:
        words.insert(rng.randrange(len(words)), rng.choice(["please", "always", "currently"]))
    corpus.append(LabeledSegment(PolicySegment("demo", " ".join(words)),
                                 1 if positive else 0))
print(f"corpus: {len(corpus)} segments, {sum(s.intention_label for s in corpus)} positive")

print("\nweighting x n-gram grid (stratified 5-fold):")
print(f"{'scheme':>7} {'ngram':>6} {'precision':>10} {'recall':>8} {'F':>7}")
best = None
for scheme in (BC, TF, TFIDF):
    for ngram_max in (1, 2, 3):
        result = cross_validate_grams(labeled_grams(corpus, (1, ngram_max), INTENTION), scheme,
                                      TrainConfig(alpha=1e-3, epochs=20, seed=5), k=5, seed=5)
        m = result.means
        print(f"{scheme:>7} 1-{ngram_max:<4} {m['precision']:>10.3f} "
              f"{m['recall']:>8.3f} {m['f_measure']:>7.3f}")
        key = (m["f_measure"], m["recall"])  # prefer recall on ties
        if best is None or key > best[0]:
            best = (key, scheme, ngram_max)

_, scheme, ngram_max = best
print(f"\nselected: {scheme} with 1-{ngram_max} grams")

bundle = fit_grams(labeled_grams(corpus, (1, ngram_max), INTENTION), scheme,
                   TrainConfig(alpha=1e-3, epochs=50, seed=5))

with tempfile.TemporaryDirectory() as tmp:
    bundle.save(tmp, "intention")
    reloaded = TextClassifier.load(tmp, "intention")
    probe = "we transfer personal data to recipients in other countries"
    print(f"saved + reloaded; predict({probe!r}) = {reloaded.predict_text(probe)}")
    print(f"predict('we use cookies') = {reloaded.predict_text('we use cookies')}")
