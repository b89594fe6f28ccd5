"""TF-IDF features and a class-balanced logistic-regression baseline.

Tokenization: lowercase, NFKD accent folding (combining marks stripped),
then alphanumeric runs; terms are word 1- and 2-grams. The vocabulary keeps
terms with document frequency >= ``min_df`` (absolute count) and df/N <=
``max_df`` (fraction), truncated to ``max_features`` by highest document
frequency with lexicographic tie-break; the surviving terms are ordered
lexicographically. idf = ln((1 + N) / (1 + df)) + 1. Term frequency uses
sublinear scaling (1 + ln count) and each nonzero row is L2-normalized.

The classifier is multinomial logistic regression fitted by seeded
mini-batch gradient descent with L2 regularization, no external solver.
With ``class_balanced`` each sample is weighted N / (n_classes * count(y)).
"""

from __future__ import annotations

import math
import re
import unicodedata
import warnings
from collections import Counter
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np
import scipy.sparse as sp

from . import metrics
from .errors import DimensionMismatch, EmptyInput, EmptyVocabulary
from .taxonomy import DIMENSIONS, LABEL_SPACE, Dimension, LabelSet, label_codes

_TOKEN_RE = re.compile(r"[^\W_]+", re.UNICODE)


@dataclass(frozen=True)
class TfidfConfig:
    min_df: int = 2
    max_df: float = 0.95
    max_features: int = 10_000
    sublinear_tf: bool = True
    strip_accents: bool = True


@dataclass(frozen=True)
class TfidfVocab:
    terms: tuple[str, ...]
    df: tuple[int, ...]
    idf: np.ndarray
    config: TfidfConfig
    n_docs: int

    def index_of(self) -> dict[str, int]:
        return {term: i for i, term in enumerate(self.terms)}


def tokenize(text: str, strip_accents: bool = True) -> list[str]:
    text = text.lower()
    if strip_accents:
        text = unicodedata.normalize("NFKD", text)
        text = "".join(ch for ch in text if not unicodedata.combining(ch))
    return _TOKEN_RE.findall(text)


def _terms_of(text: str, config: TfidfConfig) -> list[str]:
    tokens = tokenize(text, strip_accents=config.strip_accents)
    bigrams = [f"{a} {b}" for a, b in zip(tokens, tokens[1:])]
    return tokens + bigrams


def tfidf_fit(corpus: Sequence[str], config: TfidfConfig = TfidfConfig()) -> TfidfVocab:
    """Build the vocabulary and idf table from a corpus."""
    if not corpus:
        raise EmptyInput("cannot fit TF-IDF on an empty corpus")
    n_docs = len(corpus)
    df: Counter = Counter()
    for text in corpus:
        df.update(set(_terms_of(text, config)))
    kept = [
        term
        for term, count in df.items()
        if count >= config.min_df and count / n_docs <= config.max_df
    ]
    if not kept:
        raise EmptyVocabulary(
            f"all {len(df)} candidate terms fall outside "
            f"min_df={config.min_df}, max_df={config.max_df}"
        )
    kept.sort(key=lambda term: (-df[term], term))
    kept = sorted(kept[: config.max_features])
    idf = np.array(
        [math.log((1 + n_docs) / (1 + df[t])) + 1.0 for t in kept], dtype=np.float64
    )
    return TfidfVocab(
        terms=tuple(kept),
        df=tuple(df[t] for t in kept),
        idf=idf,
        config=config,
        n_docs=n_docs,
    )


def tfidf_transform(vocab: TfidfVocab, texts: Sequence[str]) -> sp.csr_matrix:
    """Sparse TF-IDF rows, L2-normalized; all-unknown texts give zero rows."""
    index = vocab.index_of()
    data: list[float] = []
    indices: list[int] = []
    indptr = [0]
    for text in texts:
        counts = Counter(
            index[t] for t in _terms_of(text, vocab.config) if t in index
        )
        row = sorted(counts.items())
        for col, count in row:
            tf = 1.0 + math.log(count) if vocab.config.sublinear_tf else float(count)
            data.append(tf * vocab.idf[col])
        indices.extend(col for col, _ in row)
        indptr.append(len(indices))
    matrix = sp.csr_matrix(
        (np.array(data), np.array(indices, dtype=np.int32), np.array(indptr)),
        shape=(len(texts), len(vocab.terms)),
    )
    norms = np.sqrt(np.asarray(matrix.multiply(matrix).sum(axis=1)).ravel())
    scale = np.divide(1.0, norms, out=np.zeros_like(norms), where=norms > 0)
    return (sp.diags(scale) @ matrix).tocsr()


@dataclass
class LinearModel:
    """Multinomial logistic weights for one dimension."""

    weights: np.ndarray  # (n_labels, n_features)
    bias: np.ndarray  # (n_labels,)
    labels: tuple[str, ...]
    single_class: bool = False
    loss_history: tuple[float, ...] = ()


def _softmax_rows(scores: np.ndarray) -> np.ndarray:
    shifted = scores - scores.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=1, keepdims=True)


def _weighted_loss(X, y_idx, weights, bias, sample_w, l2) -> float:
    scores = X @ weights.T + bias
    shifted = scores - scores.max(axis=1, keepdims=True)
    log_probs = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    ce = -log_probs[np.arange(len(y_idx)), y_idx]
    return float((sample_w * ce).sum() / sample_w.sum() + 0.5 * l2 * (weights**2).sum())


def logreg_train(
    X,
    y: Sequence[str],
    class_balanced: bool = True,
    seed: int = 0,
    epochs: int = 500,
    lr: float = 1.0,
    l2: float = 1e-4,
    batch_size: int = 64,
    tol: float = 1e-7,
) -> LinearModel:
    """Fit multinomial logistic regression by mini-batch gradient descent.

    Stops early when the full-data loss changes by less than ``tol``
    between epochs. A single-class ``y`` yields a constant predictor and a
    warning rather than an error.
    """
    X = sp.csr_matrix(X) if not sp.issparse(X) else X.tocsr()
    n, n_features = X.shape
    if n != len(y):
        raise DimensionMismatch(f"{n} rows vs {len(y)} labels")
    if n == 0:
        raise EmptyInput("cannot fit on zero samples")
    labels = tuple(sorted(set(y)))
    if len(labels) == 1:
        warnings.warn(f"single-class input ({labels[0]!r}); returning constant predictor")
        return LinearModel(
            weights=np.zeros((1, n_features)),
            bias=np.zeros(1),
            labels=labels,
            single_class=True,
        )
    label_index = {label: i for i, label in enumerate(labels)}
    y_idx = np.array([label_index[v] for v in y], dtype=np.int64)
    counts = np.bincount(y_idx, minlength=len(labels))
    if class_balanced:
        per_class = n / (len(labels) * counts.astype(np.float64))
        sample_w = per_class[y_idx]
    else:
        sample_w = np.ones(n, dtype=np.float64)

    weights = np.zeros((len(labels), n_features), dtype=np.float64)
    bias = np.zeros(len(labels), dtype=np.float64)
    rng = np.random.default_rng(seed)
    history = [_weighted_loss(X, y_idx, weights, bias, sample_w, l2)]
    for _ in range(epochs):
        order = rng.permutation(n)
        for start in range(0, n, batch_size):
            batch = order[start : start + batch_size]
            Xb = X[batch]
            probs = _softmax_rows(Xb @ weights.T + bias)
            probs[np.arange(len(batch)), y_idx[batch]] -= 1.0
            scaled = probs * (sample_w[batch] / sample_w[batch].sum())[:, None]
            grad_w = scaled.T @ Xb + l2 * weights
            grad_b = scaled.sum(axis=0)
            weights -= lr * np.asarray(grad_w)
            bias -= lr * grad_b
        history.append(_weighted_loss(X, y_idx, weights, bias, sample_w, l2))
        if abs(history[-2] - history[-1]) < tol:
            break
    return LinearModel(
        weights=weights,
        bias=bias,
        labels=labels,
        loss_history=tuple(history),
    )


def _predict_indices(model: LinearModel, X) -> np.ndarray:
    """Argmax indices into ``model.labels``, first on ties (0 for a single class)."""
    return np.asarray(X @ model.weights.T + model.bias).argmax(axis=1)


def logreg_predict(model: LinearModel, X) -> list[str]:
    """Argmax labels; ties resolve to the lexicographically first label."""
    return [model.labels[i] for i in _predict_indices(model, X)]


def baseline_eval(
    models: dict[Dimension, LinearModel],
    X,
    gold: Sequence[LabelSet],
) -> metrics.MetricsReport:
    """Predict every dimension and score against gold label sets."""
    missing = [d for d in DIMENSIONS if d not in models]
    if missing:
        raise DimensionMismatch(f"no model for dimensions {[d.value for d in missing]}")
    pred = np.empty((X.shape[0], len(DIMENSIONS)), dtype=np.int64)
    for c, dim in enumerate(DIMENSIONS):
        model = models[dim]
        code_of_index = np.array([LABEL_SPACE[dim].index(label) for label in model.labels])
        pred[:, c] = code_of_index[_predict_indices(model, X)]
    return metrics.evaluate_labelsets(label_codes(gold), pred)


def train_baseline(
    train_texts: Sequence[str],
    train_labels: Sequence[LabelSet],
    tfidf_config: TfidfConfig = TfidfConfig(),
    seed: int = 0,
    epochs: int = 500,
    lr: float = 1.0,
    l2: float = 1e-4,
) -> tuple[TfidfVocab, dict[Dimension, LinearModel]]:
    """Fit the vectorizer on training texts and one model per dimension."""
    vocab = tfidf_fit(train_texts, tfidf_config)
    X = tfidf_transform(vocab, train_texts)
    models = {}
    for dim in DIMENSIONS:
        y = [labels.get(dim) for labels in train_labels]
        models[dim] = logreg_train(
            X, y, class_balanced=True, seed=seed, epochs=epochs, lr=lr, l2=l2
        )
    return vocab, models
