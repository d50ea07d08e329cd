"""Segmenting policies and turning segments into weighted feature vectors.

Walks the text side of the pipeline: segmentation modes, the token pipeline
(normalize -> filter -> stop words -> stem -> n-grams), vocabulary building
and the three weighting schemes.
"""

import math

from transferaudit.corpus import BLANKLINE, FULLSTOP, PolicyDocument, segment_policy
from transferaudit.features import (
    BC,
    TF,
    TFIDF,
    build_vocabulary,
    extract_ngrams,
    tokenize,
    vectorize,
)

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
    for seg in segments:
        print(f"  [{seg.index}] {seg.text[:70]}...")

# note: "U.S." survives full-stop mode thanks to the abbreviation guard

print("\n== token pipeline ==")
text = "Transferred, 2 countries! The data is safe."
print(f"input : {text!r}")
print(f"tokens: {tokenize(text)}")

print("\n== vocabulary and weighting ==")
segments = segment_policy(POLICY, FULLSTOP)
# unigrams and bigrams, computed once per segment
gram_lists = [extract_ngrams(tokenize(s.text), 1, 2) for s in segments]
vocab = build_vocabulary(gram_lists)
print(f"{len(vocab)} features over {vocab.document_count} segments")

by_index = {i: f for f, i in vocab.feature_to_index.items()}
sample = gram_lists[0]
for scheme in (BC, TF, TFIDF):
    vec = vectorize(sample, vocab, scheme)
    top = sorted(vec.entries.items(), key=lambda kv: -kv[1])[:5]
    pretty = ", ".join(f"{by_index[i]}={w:.3f}" for i, w in top)
    print(f"{scheme:>6}: {pretty}")

print("\nIDF check: a feature in every segment weighs zero under TF-IDF")
shared = [f for f, i in vocab.feature_to_index.items()
          if vocab.document_frequency[i] == vocab.document_count]
print(f"features present everywhere: {shared or 'none'} "
      f"(ln(N/n_i) = {math.log(1.0)})")
