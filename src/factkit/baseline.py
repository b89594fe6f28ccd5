"""TF-IDF features and a class-balanced logistic-regression baseline.

Tokenization: lowercase, NFKD accent folding (combining marks stripped),
then alphanumeric runs; terms are word 1- and 2-grams. The vocabulary keeps
terms with document frequency >= ``min_df`` (absolute count) and df/N <=
``max_df`` (fraction), truncated to ``max_features`` by highest document
frequency with lexicographic tie-break; the surviving terms are ordered
lexicographically. idf = ln((1 + N) / (1 + df)) + 1. Term frequency uses
sublinear scaling (1 + ln count) and each nonzero row is L2-normalized. The
rows come back as a :class:`CsrMatrix`, three numpy arrays whose memory
grows with the nonzeros, not with rows times terms.

The classifier is multinomial logistic regression: the sample-weighted mean
cross-entropy plus 0.5 * l2 * ||W||^2 (bias unpenalized), minimized over the
full training set by L-BFGS (Liu & Nocedal, 1989) with L-BFGS-B's defaults
and its Moré-Thuente line search, in numpy. The fit is class-balanced: each
sample is weighted N / (n_classes * count(y)).

:func:`train_baseline` fits the vectorizer with the default ``TfidfConfig``;
other thresholds can be set only through :func:`tfidf_fit`.
"""

from __future__ import annotations

import math
import re
import unicodedata
import warnings
from array import array
from collections import Counter, deque
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


@dataclass(frozen=True, eq=False)
class CsrMatrix:
    """Sparse rows: row i holds ``data[indptr[i]:indptr[i + 1]]`` at columns ``indices[...]``."""

    data: np.ndarray  # float64 values
    indices: np.ndarray  # column of each value
    indptr: np.ndarray  # n_rows + 1 offsets into data
    shape: tuple[int, int]

    def row_of_values(self) -> np.ndarray:
        return np.repeat(np.arange(self.shape[0]), np.diff(self.indptr))

    def toarray(self) -> np.ndarray:
        dense = np.zeros(self.shape)
        dense[self.row_of_values(), self.indices] = self.data
        return dense

    def matmul_t(self, weights: np.ndarray) -> np.ndarray:
        """``X @ weights.T`` for (k, n_columns) ``weights``: one bincount per row of weights."""
        rows = self.row_of_values()
        return np.column_stack([
            np.bincount(rows, self.data * w[self.indices], minlength=self.shape[0])
            for w in weights
        ])

    def t_matmul_t(self, residual: np.ndarray) -> np.ndarray:
        """``(X.T @ residual).T`` for (n_rows, k) ``residual``: one bincount per column."""
        rows = self.row_of_values()
        return np.stack([
            np.bincount(self.indices, self.data * r[rows], minlength=self.shape[1])
            for r in residual.T
        ])


def tfidf_transform(vocab: TfidfVocab, texts: Sequence[str]) -> CsrMatrix:
    """TF-IDF rows, L2-normalized, in CSR form; all-unknown texts give zero rows."""
    index = vocab.index_of()
    tf, indices, indptr = array("d"), array("q"), [0]  # typed, not a Python object per value
    for text in texts:
        row = sorted(Counter(index[t] for t in _terms_of(text) if t in index).items())
        tf.extend(1.0 + math.log(count) for _, count in row)
        indices.extend(col for col, _ in row)
        indptr.append(len(indices))
    cols = np.array(indices, dtype=np.intp)
    data = np.array(tf) * vocab.idf[cols]
    starts, counts = np.array(indptr[:-1]), np.diff(indptr)
    filled = counts > 0
    # reduceat sums each row in the order scipy's CSR row sums did, so the values keep their bits
    norms = np.sqrt(np.add.reduceat(data * data, starts[filled]))
    data *= np.repeat(1.0 / norms, counts[filled])
    return CsrMatrix(data, cols, np.array(indptr), (len(texts), len(vocab.terms)))


@dataclass
class LinearModel:
    """Multinomial logistic weights for one dimension."""

    weights: np.ndarray  # (n_labels, n_features)
    bias: np.ndarray  # (n_labels,)
    labels: tuple  # sorted distinct training labels; codes when fitted by train_baseline
    single_class: bool = False
    loss_history: tuple[float, ...] = ()


def _objective(theta, X: CsrMatrix, y_idx, share, l2) -> tuple[float, np.ndarray]:
    """Weighted mean cross-entropy + 0.5 * l2 * ||W||^2 and its gradient.

    ``theta`` is the flattened (n_labels, n_features + 1) matrix [W | b]; the
    bias is not penalized. ``share`` holds the sample weights scaled to sum to 1.
    """
    params = theta.reshape(-1, X.shape[1] + 1)
    weights, bias = params[:, :-1], params[:, -1]
    log_probs = _log_softmax(X.matmul_t(weights) + bias)
    rows = np.arange(len(y_idx))
    loss = -(share * log_probs[rows, y_idx]).sum() + 0.5 * l2 * (weights**2).sum()
    residual = np.exp(log_probs)
    residual[rows, y_idx] -= 1.0
    residual *= share[:, None]
    grad_w = X.t_matmul_t(residual) + l2 * weights
    return loss, np.column_stack([grad_w, residual.sum(axis=0)]).ravel()


# L-BFGS-B's defaults: stop at max |g| <= GTOL, at a relative reduction <= FTOL, or after
# MAX_ITER iterations; the inverse Hessian is built from the last PAIRS steps
GTOL, FTOL, MAX_ITER, PAIRS = 1e-5, 2.220446049250313e-09, 15_000, 10
# its line search: sufficient decrease, curvature and interval tolerances, the longest step
# and the most values tried per search
LS_FTOL, LS_GTOL, LS_XTOL, LS_MAX_STEP, LS_TRIALS = 1e-3, 0.9, 0.1, 1e10, 20


def _cubic(a, b) -> tuple[float, float]:
    """theta and gamma of the cubic through points ``a`` and ``b``, each (step, value, slope)."""
    (sa, fa, da), (sb, fb, db) = a, b
    theta = 3.0 * (fa - fb) / (sb - sa) + da + db
    s = max(abs(theta), abs(da), abs(db))
    return theta, s * math.sqrt(max((theta / s) ** 2 - (da / s) * (db / s), 0.0))


def _tilted(point, slope: float):
    """A (step, value, slope) point of the function less the line ``slope * step``."""
    step, value, gradient = point
    return step, value - step * slope, gradient - slope


def _next_trial(best, other, trial, bracketed, lower, upper):
    """One step of Moré and Thuente's safeguarded interpolation (MINPACK-2's ``dcstep``).

    ``best``, ``other`` and ``trial`` are (step, value, slope): the best
    point so far, the other end of the interval, and the point just
    evaluated. Returns the new best and other ends, the next step to try, and
    whether the interval now brackets a minimizer.
    """
    (sx, fx, dx), (sy, fy, dy), (sp, fp, dp) = best, other, trial
    sign_change = dp * math.copysign(1.0, dx) < 0.0
    if fp > fx:  # a higher value: the minimizer lies between best and trial
        theta, gamma = _cubic(best, trial)
        gamma = -gamma if sp < sx else gamma
        cubic = sx + ((gamma - dx) + theta) / (((gamma - dx) + gamma) + dp) * (sp - sx)
        quad = sx + dx / ((fx - fp) / (sp - sx) + dx) / 2.0 * (sp - sx)
        step = cubic if abs(cubic - sx) < abs(quad - sx) else cubic + (quad - cubic) / 2.0
        bracketed = True
    elif sign_change:  # a lower value and the slope changed sign: bracketed as well
        theta, gamma = _cubic(best, trial)
        gamma = -gamma if sp > sx else gamma
        cubic = sp + ((gamma - dp) + theta) / (((gamma - dp) + gamma) + dx) * (sx - sp)
        secant = sp + dp / (dp - dx) * (sx - sp)
        step = cubic if abs(cubic - sp) > abs(secant - sp) else secant
        bracketed = True
    elif abs(dp) < abs(dx):  # a lower value, the slope shrinks in magnitude
        theta, gamma = _cubic(best, trial)
        gamma = -gamma if sp > sx else gamma
        r = ((gamma - dp) + theta) / ((gamma + (dx - dp)) + gamma)
        if r < 0.0 and gamma != 0.0:
            cubic = sp + r * (sx - sp)
        else:
            cubic = upper if sp > sx else lower
        secant = sp + dp / (dp - dx) * (sx - sp)
        if bracketed:
            step = cubic if abs(cubic - sp) < abs(secant - sp) else secant
            limit = sp + 0.66 * (sy - sp)
            step = min(limit, step) if sp > sx else max(limit, step)
        else:
            step = cubic if abs(cubic - sp) > abs(secant - sp) else secant
            step = max(lower, min(upper, step))
    elif bracketed:  # a lower value, the slope does not shrink: the cubic through trial and other
        theta, gamma = _cubic(trial, other)
        gamma = -gamma if sp > sy else gamma
        step = sp + ((gamma - dp) + theta) / (((gamma - dp) + gamma) + dy) * (sy - sp)
    else:  # unbracketed trials only move forward, past best
        step = upper
    if fp > fx:
        return best, trial, step, bracketed
    return trial, (best if sign_change else other), step, bracketed


def _line_search(fun, x, f0, g0, d, step):
    """A step along ``d`` by Moré and Thuente's search (MINPACK-2's ``dcsrch``), as in L-BFGS-B.

    Returns (x, value, gradient) at the accepted step, or None when ``d``
    is not a descent direction or no step is accepted within ``LS_TRIALS``
    values. A non-finite value counts as a step too long: it closes the
    interval and the step is halved.
    """
    slope0 = g0 @ d
    if not slope0 < 0.0:
        return None
    slope_test = LS_FTOL * slope0
    best = other = (0.0, f0, slope0)
    bracketed, stage = False, 1
    width, width1 = LS_MAX_STEP, 2.0 * LS_MAX_STEP
    lower, upper = 0.0, 5.0 * step
    for _ in range(LS_TRIALS):
        x_new = x + step * d
        f, g = fun(x_new)
        slope = g @ d
        value_test = f0 + step * slope_test
        if stage == 1 and f <= value_test and slope >= 0.0:
            stage = 2
        if bracketed and (step <= lower or step >= upper or upper - lower <= LS_XTOL * upper):
            return x_new, f, g  # rounding or the interval's width stop further progress
        if f <= value_test and abs(slope) <= -LS_GTOL * slope0:
            return x_new, f, g
        trial = (step, f, slope)
        if not math.isfinite(f + slope):
            other, bracketed, step = trial, True, best[0] + 0.5 * (step - best[0])
        elif stage == 1 and value_test < f <= best[1]:
            # Moré and Thuente's modified function: the value less the sufficient decrease line
            best, other, step, bracketed = _next_trial(
                *(_tilted(p, slope_test) for p in (best, other, trial)), bracketed, lower, upper
            )
            best, other = _tilted(best, -slope_test), _tilted(other, -slope_test)
        else:
            best, other, step, bracketed = _next_trial(best, other, trial, bracketed, lower, upper)
        if bracketed:
            if abs(other[0] - best[0]) >= 0.66 * width1 or not math.isfinite(step):
                step = best[0] + 0.5 * (other[0] - best[0])
            width1, width = width, abs(other[0] - best[0])
            lower, upper = min(best[0], other[0]), max(best[0], other[0])
        else:
            lower, upper = step + 1.1 * (step - best[0]), step + 4.0 * (step - best[0])
        step = min(max(step, 0.0), LS_MAX_STEP)
        if bracketed and (step <= lower or step >= upper or upper - lower <= LS_XTOL * upper):
            step = best[0]
    return None


def _lbfgs(fun, x) -> tuple[np.ndarray, list[float]]:
    """Minimize ``fun`` (value and gradient) from ``x`` by L-BFGS (Liu & Nocedal, 1989).

    The iteration of unbounded L-BFGS-B (Byrd, Lu, Nocedal & Zhu, 1995),
    with its defaults: two-loop recursion over the last ``PAIRS`` steps and
    :func:`_line_search` from a first trial that moves ``x`` by length 1 on
    the first iteration and by the whole direction after. A failed search
    drops the pairs and tries again along the gradient; a failure with no
    pairs stops. Returns the end point and the value at the start and after
    each iteration.
    """
    f, g = fun(x)
    history = [float(f)]
    pairs: deque = deque(maxlen=PAIRS)
    while len(history) <= MAX_ITER and np.abs(g).max() > GTOL:
        d = -g
        alphas = []
        for s, y, rho in reversed(pairs):
            alphas.append(rho * (s @ d))
            d -= alphas[-1] * y
        if pairs:
            s, y, _ = pairs[-1]
            d *= (s @ y) / (y @ y)
        for (s, y, rho), alpha in zip(pairs, reversed(alphas)):
            d += (alpha - rho * (y @ d)) * s
        step = 1.0 / np.linalg.norm(d) if len(history) == 1 else np.float64(1.0)
        found = _line_search(fun, x, f, g, d, step)
        if found is None:
            if not pairs:
                break
            pairs.clear()
            continue
        x_new, f_new, g_new = found
        s, y = x_new - x, g_new - g
        if s @ y > np.finfo(float).eps * -(g @ s):  # L-BFGS-B's curvature test for a new pair
            pairs.append((s, y, 1.0 / (s @ y)))
        reduction = f - f_new
        x, f, g = x_new, f_new, g_new
        history.append(float(f))
        if reduction <= FTOL * max(abs(history[-2]), abs(f), 1.0):
            break
    return x, history


def logreg_train(X: CsrMatrix, y, l2: float = 1e-4) -> LinearModel:
    """Fit class-balanced multinomial logistic regression by full-batch L-BFGS.

    Each sample is weighted N / (n_classes * count(y)). The fit starts from
    zero weights with L-BFGS-B's default tolerances (see :func:`_lbfgs`).
    ``loss_history`` holds the objective at the start and after each
    iteration. A single-class ``y`` warns and takes the same path: its
    objective is 0 with a zero gradient at the start, so L-BFGS stops there
    and returns the zero, constant predictor with ``loss_history == (0.0,)``.
    """
    if not 0.0 <= l2 < math.inf:
        raise ValueError("l2 must be finite and nonnegative")
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
    sample_w = 1.0 / np.bincount(y_idx)[y_idx]
    share = sample_w / sample_w.sum()
    # a huge l2 overflows and a flat line divides by zero: such values count as steps too long
    with np.errstate(all="ignore"):
        theta, history = _lbfgs(
            lambda theta: _objective(theta, X, y_idx, share, l2),
            np.zeros(len(labels) * (n_features + 1)),
        )
    params = theta.reshape(len(labels), n_features + 1)
    return LinearModel(
        weights=params[:, :-1],
        bias=params[:, -1],
        labels=labels,
        single_class=len(labels) == 1,
        loss_history=tuple(history),
    )


def logreg_predict(model: LinearModel, X: CsrMatrix) -> list:
    """Argmax labels of ``X``'s rows; ties go to the first label."""
    if X.shape[1] != model.weights.shape[1]:
        raise DimensionMismatch(f"{X.shape[1]} features vs {model.weights.shape[1]} weights")
    scores = X.matmul_t(model.weights) + model.bias
    return [model.labels[i] for i in scores.argmax(axis=1)]


def baseline_eval(
    models: Sequence[LinearModel], X: CsrMatrix, gold_codes: np.ndarray
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
    l2: float = 1e-4,
) -> tuple[TfidfVocab, list[LinearModel]]:
    """Fit the vectorizer on training texts and one model per column of ``train_codes``.

    ``train_codes`` is the (N, 7) code array of the texts' labels, so the
    seven models come back in column (``DIMENSIONS``) order and each model's
    ``labels`` are codes into its dimension's ``LABEL_SPACE``.
    """
    vocab = tfidf_fit(train_texts)
    X = tfidf_transform(vocab, train_texts)
    models = [logreg_train(X, column, l2=l2) for column in train_codes.T]
    return vocab, models
