"""TF-IDF features and a class-balanced logistic-regression baseline.

Tokenization: lowercase, NFKD accent folding (combining marks stripped),
then alphanumeric runs; terms are word 1- and 2-grams. The vocabulary keeps
terms with document frequency >= ``min_df`` (absolute count) and df/N <=
``max_df`` (fraction), truncated to ``max_features`` by highest document
frequency with lexicographic tie-break; the surviving terms are ordered
lexicographically. idf = ln((1 + N) / (1 + df)) + 1. Term frequency uses
sublinear scaling (1 + ln count) and each nonzero row is L2-normalized.

The classifier is multinomial logistic regression: the sample-weighted mean
cross-entropy plus 0.5 * l2 * ||W||^2 (bias unpenalized), minimized over the
full training set by L-BFGS (Liu & Nocedal, 1989) in one scipy call. With
``class_balanced`` each sample is weighted N / (n_classes * count(y)).
"""

from __future__ import annotations

import math
import re
import unicodedata
import warnings
from collections import Counter
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import metrics
from .errors import DimensionMismatch, EmptyInput, EmptyVocabulary
from .model import _log_softmax

_TOKEN_RE = re.compile(r"[^\W_]+", re.UNICODE)


@dataclass(frozen=True)
class TfidfConfig:
    min_df: int = 2
    max_df: float = 0.95
    max_features: int = 10_000


@dataclass(frozen=True)
class TfidfVocab:
    """The kept terms in lexicographic order and the idf of each, by column."""

    terms: tuple[str, ...]
    idf: np.ndarray

    def index_of(self) -> dict[str, int]:
        return {term: i for i, term in enumerate(self.terms)}


def tokenize(text: str) -> list[str]:
    text = unicodedata.normalize("NFKD", text.lower())
    text = "".join(ch for ch in text if not unicodedata.combining(ch))
    return _TOKEN_RE.findall(text)


def _terms_of(text: str) -> list[str]:
    tokens = tokenize(text)
    bigrams = [f"{a} {b}" for a, b in zip(tokens, tokens[1:])]
    return tokens + bigrams


def tfidf_fit(corpus: Sequence[str], config: TfidfConfig = TfidfConfig()) -> TfidfVocab:
    """Build the vocabulary and idf table from a corpus."""
    if not corpus:
        raise EmptyInput("cannot fit TF-IDF on an empty corpus")
    n_docs = len(corpus)
    df: Counter = Counter()
    for text in corpus:
        df.update(set(_terms_of(text)))
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
    return TfidfVocab(terms=tuple(kept), idf=idf)


def tfidf_transform(vocab: TfidfVocab, texts: Sequence[str]):
    """TF-IDF rows as a scipy CSR matrix, L2-normalized; all-unknown texts give zero rows."""
    import scipy.sparse as sp  # here, not at the top: only the baseline needs it

    index = vocab.index_of()
    data: list[float] = []
    indices: list[int] = []
    indptr = [0]
    for text in texts:
        counts = Counter(index[t] for t in _terms_of(text) if t in index)
        row = sorted(counts.items())
        for col, count in row:
            data.append((1.0 + math.log(count)) * vocab.idf[col])
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
    labels: tuple  # sorted distinct training labels; codes when fitted by train_baseline
    single_class: bool = False
    loss_history: tuple[float, ...] = ()


def _objective(theta, X, y_idx, share, l2) -> tuple[float, np.ndarray]:
    """Weighted mean cross-entropy + 0.5 * l2 * ||W||^2 and its gradient.

    ``theta`` is the flattened (n_labels, n_features + 1) matrix [W | b]; the
    bias is not penalized. ``share`` holds the sample weights scaled to sum to 1.
    """
    params = theta.reshape(-1, X.shape[1] + 1)
    weights, bias = params[:, :-1], params[:, -1]
    log_probs = _log_softmax(X @ weights.T + bias)
    rows = np.arange(len(y_idx))
    loss = float(-(share * log_probs[rows, y_idx]).sum() + 0.5 * l2 * (weights**2).sum())
    residual = np.exp(log_probs)
    residual[rows, y_idx] -= 1.0
    residual *= share[:, None]
    grad_w = (X.T @ residual).T + l2 * weights
    return loss, np.column_stack([grad_w, residual.sum(axis=0)]).ravel()


def logreg_train(X, y, class_balanced: bool = True, l2: float = 1e-4) -> LinearModel:
    """Fit multinomial logistic regression by full-batch L-BFGS.

    One ``scipy.optimize.minimize(method="L-BFGS-B")`` call with scipy's
    default tolerances, from zero weights. ``loss_history`` holds the
    objective at the start and after each iteration. A single-class ``y``
    warns and takes the same path: its objective is 0 with a zero gradient
    at the start, so L-BFGS stops there and returns the zero, constant
    predictor with ``loss_history == (0.0,)``.
    """
    if not 0.0 <= l2 < math.inf:
        raise ValueError("l2 must be finite and nonnegative")
    import scipy.sparse as sp  # here, not at the top: only the baseline needs it

    X = sp.csr_matrix(X) if not sp.issparse(X) else X.tocsr()
    n, n_features = X.shape
    if n != len(y):
        raise DimensionMismatch(f"{n} rows vs {len(y)} labels")
    if n == 0:
        raise EmptyInput("cannot fit on zero samples")
    labels, y_idx = np.unique(np.asarray(y), return_inverse=True)
    labels = tuple(labels.tolist())
    if len(labels) == 1:
        warnings.warn(f"single-class input ({labels[0]!r}); returning constant predictor")
    # N / (n_classes * count(y)) up to a constant factor, which the weighted mean cancels
    sample_w = 1.0 / np.bincount(y_idx)[y_idx] if class_balanced else np.ones(n)
    args = (X, y_idx, sample_w / sample_w.sum(), l2)
    theta = np.zeros(len(labels) * (n_features + 1))
    history = [_objective(theta, *args)[0]]

    def record(intermediate_result):
        history.append(float(intermediate_result.fun))

    from scipy import optimize  # here, not at the top: ~25 MB of RSS only the baseline needs

    result = optimize.minimize(
        _objective, theta, args=args, method="L-BFGS-B", jac=True, callback=record
    )
    params = result.x.reshape(len(labels), n_features + 1)
    return LinearModel(
        weights=params[:, :-1],
        bias=params[:, -1],
        labels=labels,
        single_class=len(labels) == 1,
        loss_history=tuple(history),
    )


def logreg_predict(model: LinearModel, X) -> list:
    """Argmax labels; ties resolve to the first (smallest) label."""
    scores = np.asarray(X @ model.weights.T + model.bias)
    return [model.labels[i] for i in scores.argmax(axis=1)]


def baseline_eval(
    models: Sequence[LinearModel], X, gold_codes: np.ndarray
) -> metrics.MetricsReport:
    """Score each model's predictions, as one column, against gold (N, 7) label codes.

    ``models`` are in column (``DIMENSIONS``) order, as :func:`train_baseline`
    returns them; :func:`metrics.evaluate_labelsets` refuses any other count
    of columns, none included, with :class:`LengthMismatch`.
    """
    pred = np.transpose([logreg_predict(model, X) for model in models])
    return metrics.evaluate_labelsets(gold_codes, pred)


def train_baseline(
    train_texts: Sequence[str],
    train_codes: np.ndarray,
    tfidf_config: TfidfConfig = TfidfConfig(),
    l2: float = 1e-4,
) -> tuple[TfidfVocab, list[LinearModel]]:
    """Fit the vectorizer on training texts and one model per column of ``train_codes``.

    ``train_codes`` is the (N, 7) code array of the texts' labels, so the
    seven models come back in column (``DIMENSIONS``) order and each model's
    ``labels`` are codes into its dimension's ``LABEL_SPACE``.
    """
    vocab = tfidf_fit(train_texts, tfidf_config)
    X = tfidf_transform(vocab, train_texts)
    models = [logreg_train(X, column, class_balanced=True, l2=l2) for column in train_codes.T]
    return vocab, models
