"""Train the multi-head classifier on frozen synthetic embeddings.

Each head gets a two-layer network over the shared input vector; the loss
is a masked weighted cross-entropy averaged over the categories that carry
a label. Training is AdamW with early stopping on validation pooled F1.
The embeddings here encode each fact's labels as noisy one-hot blocks, so
every dimension is linearly separable and the heads should approach F1 = 1.
"""

import numpy as np

from factkit import (
    EmbeddingMatrix,
    LabelSet,
    SplitSpec,
    TrainConfig,
    canonical_label_space,
    evaluate_labelsets,
    new_model,
    predict,
    pooled_overall_f1,
    stratified_split,
    targets_from_facts,
    train,
)
from factkit.taxonomy import DIMENSIONS, LABEL_SPACE, FactRecord, label_codes, labelsets_from_codes

rng = np.random.default_rng(1)

# Build 200 facts with invariant-satisfying labels and separable embeddings.
reasons = LABEL_SPACE[DIMENSIONS[5]][:-1]
mains = LABEL_SPACE[DIMENSIONS[0]][:-1]
labelsets = []
for i in range(60):
    labelsets.append(LabelSet.invalid(reasons[i % len(reasons)]))
for i in range(140):
    time = ("Past", "Present", "Future")[i % 3]
    labelsets.append(
        LabelSet(
            main_category=mains[i % len(mains)],
            time=time,
            referent=("Self", "Other")[i % 2],
            duration=("Short-term", "Long-term")[i % 2],
            followup=("Yes", "Maybe", "None")[i % 3] if time == "Future" else "None",
        )
    )

dim = sum(len(LABEL_SPACE[d]) for d in DIMENSIONS)
rows = rng.normal(0, 0.05, size=(len(labelsets), dim))
for i, labels in enumerate(labelsets):
    offset = 0
    for d in DIMENSIONS:
        rows[i, offset + LABEL_SPACE[d].index(labels.get(d))] += 1.0
        offset += len(LABEL_SPACE[d])

facts = [FactRecord(id=f"d{i}", text=f"demo fact {i}", labels=l) for i, l in enumerate(labelsets)]
matrix = EmbeddingMatrix(rows=rows, row_ids=tuple(f.id for f in facts))

split = stratified_split(facts, SplitSpec(seed=42))
print(f"split sizes: train={len(split.train)} val={len(split.val)} test={len(split.test)}")

targets = targets_from_facts(facts, canonical_label_space())
model = new_model(matrix.dim, canonical_label_space(), seed=42)
config = TrainConfig(learning_rate=0.01, batch_size=32, max_epochs=10, patience=3, seed=42)
result = train(model, matrix, targets, split, config)

print("\nepoch  train-loss  val-pooled-F1")
for stats in result.history:
    print(f"{stats.epoch:>5}  {stats.train_loss:>10.4f}  {stats.val_f1:>13.4f}")
print(f"best epoch: {result.best_epoch} (val F1 {result.best_val_f1:.4f})")

# predict() returns (N, 7) label codes (columns in DIMENSIONS order) and the
# matching max-softmax confidences; label sets are built only for display.
by_id = {f.id: f for f in facts}
test_matrix = EmbeddingMatrix(rows=matrix.take(split.test), row_ids=split.test)
codes, confidences = predict(result.model, test_matrix)
gold = [by_id[i].labels for i in split.test]
print(f"\nfirst test fact: {labelsets_from_codes(codes[:1])[0]}")
print(f"  confidences: {[round(c, 3) for c in confidences[0].tolist()]}")

print(f"\ntest pooled-overall macro F1: {pooled_overall_f1(gold, labelsets_from_codes(codes)):.4f}")
report = evaluate_labelsets(label_codes(gold), codes)
print("per-category macro F1:")
for d in DIMENSIONS:
    print(f"  {d.value:<20}{report.per_category_macro_f1[d]:.4f}")
