"""TF-IDF features plus class-balanced logistic regression, from scratch.

The vectorizer builds word 1-2-grams with document-frequency filtering,
sublinear term frequency, accent stripping, and L2-normalized rows. The
classifier is multinomial logistic regression fitted by full-batch L-BFGS,
always with sample weights that rebalance skewed labels, so a rare class
still scores. Both run on numpy alone: the rows are a ``CsrMatrix`` of
three numpy arrays.
"""

import numpy as np

from factkit import TfidfConfig, logreg_predict, logreg_train, tfidf_fit, tfidf_transform
from factkit.metrics import macro_f1

print("--- vectorizer behavior ---")
vocab = tfidf_fit(
    ["The café was great", "a great café menu", "the menu was long"],
    TfidfConfig(min_df=1, max_df=1.0),
)
print(f"vocabulary ({len(vocab.terms)} terms, accents folded, 1-2 grams):")
print(" ", ", ".join(vocab.terms[:12]), "...")

matrix = tfidf_transform(vocab, ["great café", "unseen words only"])
print("row norms (unknown-only text gives a zero row):",
      np.linalg.norm(matrix.toarray(), axis=1).round(6))

print("\n--- skewed two-class problem, class-balanced weights ---")
rng = np.random.default_rng(0)
texts, labels = [], []
for i in range(270):
    texts.append(f"routine filler {rng.integers(40)} common words here")
    labels.append("frequent")
for i in range(30):
    texts.append(f"rare marker {rng.integers(10)} unusual signal")
    labels.append("rare")

vocab = tfidf_fit(texts, TfidfConfig(min_df=1, max_df=1.0))
X = tfidf_transform(vocab, texts)

model = logreg_train(X, labels)
pred = logreg_predict(model, X)
print(f"macro F1 = {macro_f1(labels, pred):.3f}  "
      f"(L-BFGS iterations: {len(model.loss_history) - 1})")

print("\nweight formula: sample of class c gets N / (n_classes * count(c))")
print("  frequent:", 300 / (2 * 270), " rare:", 300 / (2 * 30), " ratio 1:9")
