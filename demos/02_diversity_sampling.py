"""Cluster-based diversity sampling over a synthetic fact pool.

Pipeline: deduplicate by exact text, embed (mocked here with planted topic
directions), L2-normalize, K-Means over the normalized rows (a plain array:
``matrix.rows``) into clusters, then draw at most `cap` facts per cluster.
Rare topics survive the capping; dominant ones shrink.
"""

import numpy as np

from factkit import (
    EmbeddingMatrix,
    FactRecord,
    cluster_sample,
    dedup_exact,
    kmeans_fit,
    l2_normalize,
)

rng = np.random.default_rng(0)

# A pool dominated by two big topics, plus a sliver of rare ones.
topic_sizes = {"food": 120, "sports": 100, "pets": 8, "astronomy": 5}
facts, vectors = [], []
topic_axes = {t: rng.normal(size=16) for t in topic_sizes}
for topic, size in topic_sizes.items():
    for i in range(size):
        text = f"{topic} fact {i % (size // 2 + 1)}"  # force some duplicates
        facts.append(FactRecord(id=f"{topic}-{i}", text=text))
        vectors.append(topic_axes[topic] + rng.normal(0, 0.15, size=16))

unique = dedup_exact(facts)
print(f"pool: {len(facts)} facts, {len(unique)} after exact dedup")

keep = {f.id for f in unique}
rows = np.array([v for f, v in zip(facts, vectors) if f.id in keep])
matrix = l2_normalize(EmbeddingMatrix(rows=rows, row_ids=tuple(f.id for f in unique)))

model = kmeans_fit(matrix.rows, k=8, seed=42)
print(f"k-means: k={model.k}, inertia={model.inertia:.3f}, "
      f"{model.n_iter} Lloyd iterations")
print("inertia per assignment step:", [round(v, 2) for v in model.inertia_history])

sampled = cluster_sample(unique, model, cap=3, seed=42)
print(f"\ncapped sampling kept {len(sampled)} facts "
      f"(sum over clusters of min(cap, size))")

by_topic = {}
for fact in sampled:
    by_topic[fact.id.split("-")[0]] = by_topic.get(fact.id.split("-")[0], 0) + 1
print("kept per topic:", by_topic)
print("rare topics keep representation despite the skewed pool")
