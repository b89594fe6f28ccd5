"""Corpus-level label distributions from a seed-model ensemble, with the
training-data leakage audit.

Five seed models label the same corpus; the report aggregates per-label
shares and mean confidences as mean and std across seeds. The audit then
re-aggregates with facts that also appear in the training set held out and
reports the largest per-cell share shift in percentage points.
"""

import numpy as np

from factkit import (
    EmbeddingMatrix,
    FactRecord,
    aggregate_distribution,
    canonical_label_space,
    leakage_audit,
    new_model,
    predict_corpus,
)
from factkit.analyze import render_distribution
from factkit.taxonomy import DIMENSIONS, LABEL_SPACE

rng = np.random.default_rng(3)

corpus = [FactRecord(id=f"c{i}", text=f"corpus utterance {i}") for i in range(400)]
matrix = EmbeddingMatrix(
    rows=rng.normal(size=(400, 24)), row_ids=tuple(f.id for f in corpus)
)

# Five differently-initialized models stand in for five trained seeds.
models = [new_model(24, canonical_label_space(), seed=s) for s in (42, 123, 456, 789, 1024)]
# One (codes, confidences) pair per seed model: (400, 7) label codes in
# DIMENSIONS order and the matching max-softmax confidences.
tables = predict_corpus(models, matrix)
codes, confidences = tables[0]
print(f"seed 42 predictions: codes {codes.shape}, confidences {confidences.shape}")
report = aggregate_distribution(tables)

print("per-seed shares always sum to 100% per dimension:")
for dim in DIMENSIONS:
    total = sum(report.cells[(dim, label)].share.mean for label in LABEL_SPACE[dim])
    print(f"  {dim.value:<20}{total:8.2f}%")

validity = report.cells[(DIMENSIONS[4], "Invalid")]
print(f"\nexample cell, Validity/Invalid: share "
      f"{validity.share.mean:.1f}±{validity.share.std:.1f}%")

# Plant 20 corpus facts inside the training set and audit the leakage.
train_facts = [FactRecord(id=f"t{i}", text=corpus[i].text) for i in range(20)]
train_facts += [FactRecord(id=f"x{i}", text=f"unrelated training fact {i}") for i in range(100)]
audit = leakage_audit(train_facts, corpus, tables)
print(f"\nleakage audit: overlap={audit.overlap_count} "
      f"({100 * audit.overlap_fraction:.1f}% of the corpus)")
print(f"max per-cell share shift when held out: {audit.max_shift:.3f} pp")

print("\nfull report rendering:\n")
print(render_distribution(report, audit))
