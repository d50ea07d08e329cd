"""Segmenting policies and turning segments into weighted feature vectors.

Walks the text side of the pipeline: segmentation modes, the token pipeline
(normalize -> filter -> stop words -> stem -> n-grams), vocabulary building
and the three weighting schemes.
"""

import math

from transferaudit.corpus import BLANKLINE, FULLSTOP, PolicyDocument, segment_policy
from transferaudit.features import BC, TF, TFIDF, extract_ngrams, tokenize
from transferaudit.training import IdVocabulary, number_grams

POLICY = PolicyDocument(
    app_id="demo.app",
    raw_text=(
        "We may transfer your personal data to countries outside the EEA, "
        "including the U.S. and Singapore. We implement measures such as "
        "standard contractual clauses. A copy of those clauses can be obtained "
        "by contacting support.\n"
        "\n"
        "We use cookies to personalize content."
    ),
)

print("== segmentation ==")
for mode in (FULLSTOP, BLANKLINE):
    segments = segment_policy(POLICY, mode)
    print(f"{mode}: {len(segments)} segments")
    for i, seg in enumerate(segments):
        print(f"  [{i}] {seg.text[:70]}...")

# note: "U.S." survives full-stop mode thanks to the abbreviation guard

print("\n== token pipeline ==")
text = "Transferred, 2 countries! The data is safe."
print(f"input : {text!r}")
print(f"tokens: {tokenize(text)}")

print("\n== vocabulary and weighting ==")
segments = segment_policy(POLICY, FULLSTOP)
# unigrams and bigrams, computed and numbered once per segment; the labels
# only matter to training
gram_lists = [extract_ngrams(tokenize(s.text), 1, 2) for s in segments]
data = number_grams(gram_lists, [0] * len(gram_lists), (1, 2))
everyone = range(len(gram_lists))
vocab = IdVocabulary(data, everyone, TF).vocabulary()
print(f"{len(vocab)} features over {vocab.document_count} segments")

by_index = {i: f for f, i in vocab.feature_to_index.items()}
for scheme in (BC, TF, TFIDF):
    # segment 0's feature indices and weights
    idx, weights = IdVocabulary(data, everyone, scheme).vector(0)
    top = sorted(zip(idx.tolist(), weights.tolist()), key=lambda kv: -kv[1])[:5]
    pretty = ", ".join(f"{by_index[i]}={w:.3f}" for i, w in top)
    print(f"{scheme:>6}: {pretty}")

print("\nIDF check: a feature in every segment weighs zero under TF-IDF")
shared = [f for f, i in vocab.feature_to_index.items()
          if vocab.document_frequency[i] == vocab.document_count]
print(f"features present everywhere: {shared or 'none'} "
      f"(ln(N/n_i) = {math.log(1.0)})")
