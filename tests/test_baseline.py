import math
import random

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.special import logsumexp

from factkit.baseline import (
    LinearModel,
    TfidfConfig,
    baseline_eval,
    logreg_predict,
    logreg_train,
    tfidf_fit,
    tfidf_transform,
    tokenize,
    train_baseline,
)
from factkit.errors import DimensionMismatch, EmptyInput, EmptyVocabulary
from factkit.metrics import macro_f1
from factkit.taxonomy import DIMENSIONS, LABEL_SPACE, label_codes

from synth import synthetic_labels, embed_labels

LENIENT = TfidfConfig(min_df=1, max_df=1.0)


# --- tokenizer ---


def test_tokenize_lowercases_and_splits():
    assert tokenize("The cat, sat!") == ["the", "cat", "sat"]


def test_tokenize_strips_accents():
    assert tokenize("Café") == ["cafe"]
    assert tokenize("naïve résumé") == ["naive", "resume"]


# --- vocabulary ---


def test_default_filters_empty_vocabulary():
    # "cat" appears in every doc (df fraction 1.0 > 0.95); the rest have df 1 < 2
    with pytest.raises(EmptyVocabulary):
        tfidf_fit(["cat sat", "cat ran"])


def test_lenient_filters_keep_unigrams_and_bigrams():
    vocab = tfidf_fit(["cat sat", "cat ran"], LENIENT)
    assert set(vocab.terms) == {"cat", "sat", "ran", "cat sat", "cat ran"}


def test_vocabulary_is_sorted_and_deterministic():
    corpus = ["b a c", "c b d", "d a b"]
    first = tfidf_fit(corpus, LENIENT)
    second = tfidf_fit(corpus, LENIENT)
    assert first.terms == second.terms
    assert list(first.terms) == sorted(first.terms)


def test_max_features_truncates_by_df_with_lex_tiebreak():
    corpus = ["x y", "x z", "x w"]
    # df: x=3; y/z/w=1 plus bigrams df=1; cap at 3 keeps x then lexicographic ties
    vocab = tfidf_fit(corpus, TfidfConfig(min_df=1, max_df=1.0, max_features=3))
    assert "x" in vocab.terms
    assert len(vocab.terms) == 3
    candidates = sorted(["y", "z", "w", "x y", "x z", "x w"])
    assert set(vocab.terms) - {"x"} == set(candidates[:2])


def test_min_df_is_absolute_and_max_df_fractional():
    corpus = ["a b", "a c", "a d", "e f"]
    vocab = tfidf_fit(corpus, TfidfConfig(min_df=2, max_df=0.80))
    # a has df 3/4 = 0.75 <= 0.80 and df 3 >= 2; everything else df 1
    assert vocab.terms == ("a",)


def test_idf_formula():
    vocab = tfidf_fit(["a b", "a c"], LENIENT)
    idf = dict(zip(vocab.terms, vocab.idf))
    assert idf["a"] == pytest.approx(math.log(3 / 3) + 1.0, abs=1e-12)
    assert idf["b"] == pytest.approx(math.log(3 / 2) + 1.0, abs=1e-12)


# --- transform ---


def test_transform_zero_row_for_unknown_text():
    vocab = tfidf_fit(["a b", "a c"], LENIENT)
    matrix = tfidf_transform(vocab, ["zzz qqq"])
    assert matrix.nnz == 0


def test_transform_single_term_row_normalizes_to_one():
    vocab = tfidf_fit(["a b", "a c"], LENIENT)
    matrix = tfidf_transform(vocab, ["a a a"])
    row = matrix.toarray()[0]
    index = vocab.terms.index("a")
    assert row[index] == pytest.approx(1.0, abs=1e-12)
    assert np.count_nonzero(row) == 1


def test_transform_matches_formula_oracle():
    corpus = ["the cat sat", "the dog sat", "a cat ran"]
    vocab = tfidf_fit(corpus, LENIENT)
    matrix = tfidf_transform(vocab, corpus).toarray()

    # independent spreadsheet-style recomputation
    def terms_of(text):
        toks = text.split()
        return toks + [f"{x} {y}" for x, y in zip(toks, toks[1:])]

    n = len(corpus)
    df = {}
    for doc in corpus:
        for term in set(terms_of(doc)):
            df[term] = df.get(term, 0) + 1
    for i, doc in enumerate(corpus):
        counts = {}
        for term in terms_of(doc):
            counts[term] = counts.get(term, 0) + 1
        raw = {}
        for term, count in counts.items():
            tf = 1.0 + math.log(count)
            idf = math.log((1 + n) / (1 + df[term])) + 1.0
            raw[term] = tf * idf
        norm = math.sqrt(sum(v * v for v in raw.values()))
        for j, term in enumerate(vocab.terms):
            expected = raw.get(term, 0.0) / norm if term in raw else 0.0
            assert matrix[i, j] == pytest.approx(expected, abs=1e-9)


def test_fit_transform_rows_have_norm_one_or_zero():
    corpus = [f"w{i} w{i + 1} shared" for i in range(8)]
    vocab = tfidf_fit(corpus, LENIENT)
    matrix = tfidf_transform(vocab, corpus + ["unseen tokens only"])
    norms = np.sqrt(np.asarray(matrix.multiply(matrix).sum(axis=1)).ravel())
    for norm in norms:
        assert norm == pytest.approx(1.0, abs=1e-9) or norm == 0.0


def test_sublinear_tf():
    vocab = tfidf_fit(["a b", "a c"], LENIENT)
    once = tfidf_transform(vocab, ["a b"]).toarray()[0]
    thrice = tfidf_transform(vocab, ["a a a b"]).toarray()[0]
    a = vocab.terms.index("a")
    b = vocab.terms.index("b")
    # ratio between a and b entries grows by (1 + ln 3), not 3
    assert thrice[a] / thrice[b] == pytest.approx(
        (1 + math.log(3)) * once[a] / once[b], rel=1e-9
    )


# --- logistic regression ---


def separable_set(n=40, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.normal(0, 0.05, size=(n, 4))
    y = []
    for i in range(n):
        if i % 2 == 0:
            X[i, 0] += 1.0
            y.append("neg")
        else:
            X[i, 1] += 1.0
            y.append("pos")
    return sp.csr_matrix(X), y


def test_logreg_learns_separable_within_200_epochs():
    X, y = separable_set()
    model = logreg_train(X, y, class_balanced=True)
    assert logreg_predict(model, X) == y


def test_logreg_class_balance_ratio():
    # 90/10 skew: weight ratio must be exactly 1:9
    y = ["a"] * 90 + ["b"] * 10
    n, n_classes = 100, 2
    w_a = n / (n_classes * 90)
    w_b = n / (n_classes * 10)
    assert w_b / w_a == pytest.approx(9.0, abs=1e-12)
    # and the fit with balancing still learns the separable signal
    X = sp.csr_matrix(
        np.vstack([np.tile([1.0, 0.0], (90, 1)), np.tile([0.0, 1.0], (10, 1))])
    )
    model = logreg_train(X, y, class_balanced=True)
    assert logreg_predict(model, X) == y


def test_logreg_loss_non_increasing_full_batch():
    X, y = separable_set()
    l2 = 1e-2
    model = logreg_train(X, y, class_balanced=False, l2=l2)
    history = model.loss_history
    assert len(history) > 2
    assert history[0] == pytest.approx(math.log(2), abs=1e-12)
    assert all(a >= b - 1e-12 for a, b in zip(history, history[1:]))

    # the end point is near-stationary: central differences of an independent
    # implementation of the objective vanish there
    dense = X.toarray()
    y_idx = np.array([model.labels.index(v) for v in y])

    def objective(theta):
        weights, bias = theta[:-2].reshape(2, -1), theta[-2:]
        scores = dense @ weights.T + bias
        log_probs = scores - logsumexp(scores, axis=1, keepdims=True)
        ce = -log_probs[np.arange(len(y)), y_idx].mean()
        return ce + 0.5 * l2 * (weights**2).sum()

    theta = np.concatenate([model.weights.ravel(), model.bias])
    assert objective(theta) == pytest.approx(history[-1], abs=1e-12)
    step = 1e-6
    grad = [
        (objective(theta + step * e) - objective(theta - step * e)) / (2 * step)
        for e in np.eye(len(theta))
    ]
    assert max(abs(g) for g in grad) < 1e-4


def test_logreg_single_class_constant_predictor():
    X = sp.csr_matrix(np.ones((5, 2)))
    with pytest.warns(UserWarning):
        model = logreg_train(X, ["only"] * 5)
    assert model.single_class
    assert logreg_predict(model, X) == ["only"] * 5


@pytest.mark.parametrize("l2", [math.nan, math.inf, -1.0])
def test_logreg_rejects_bad_l2(l2):
    X, y = separable_set()
    with pytest.raises(ValueError, match="l2"):
        logreg_train(X, y, l2=l2)


def test_logreg_rejects_misaligned_and_empty_inputs():
    X, y = separable_set()
    with pytest.raises(DimensionMismatch, match="rows vs"):
        logreg_train(X, y[:-1])
    with pytest.raises(EmptyInput, match="zero samples"):
        logreg_train(sp.csr_matrix((0, 3)), [])


def test_logreg_deterministic():
    X, y = separable_set()
    a = logreg_train(X, y)
    b = logreg_train(X, y)
    assert np.array_equal(a.weights, b.weights)
    assert np.array_equal(a.bias, b.bias)


# --- full-report evaluation ---


def perfect_models_for(labelsets):
    """Linear models that read the one-hot block for their dimension; labels are codes."""
    dim_total = sum(len(LABEL_SPACE[d]) for d in DIMENSIONS)
    models = {}
    offset = 0
    for d in DIMENSIONS:
        space = LABEL_SPACE[d]
        weights = np.zeros((len(space), dim_total))
        for i in range(len(space)):
            weights[i, offset + i] = 1.0
        models[d] = LinearModel(
            weights=weights, bias=np.zeros(len(space)), labels=tuple(range(len(space)))
        )
        offset += len(space)
    return models


def test_baseline_eval_perfect_models():
    labelsets = synthetic_labels(n_facts=60, invalid_count=20)
    X = sp.csr_matrix(embed_labels(labelsets, noise=0.0))
    report = baseline_eval(perfect_models_for(labelsets), X, label_codes(labelsets))
    assert report.overall_macro_f1 == 1.0
    assert all(v == 1.0 for v in report.per_label_f1.values())


def test_baseline_eval_missing_dimension():
    labelsets = synthetic_labels(n_facts=60, invalid_count=20)
    X = sp.csr_matrix(embed_labels(labelsets, noise=0.0))
    models = perfect_models_for(labelsets)
    del models[DIMENSIONS[-1]]
    with pytest.raises(DimensionMismatch, match=DIMENSIONS[-1].value):
        baseline_eval(models, X, label_codes(labelsets))


def test_random_guess_macro_f1_near_half():
    rng = random.Random(7)
    gold = [rng.choice(["a", "b"]) for _ in range(1000)]
    pred = [rng.choice(["a", "b"]) for _ in range(1000)]
    assert macro_f1(gold, pred) == pytest.approx(0.5, abs=0.1)


def test_train_baseline_learns_token_signals():
    # texts carry one token per dimension value, so TF-IDF separates them
    labelsets = synthetic_labels(n_facts=120, invalid_count=36)
    texts = []
    for labels in labelsets:
        parts = [
            f"{d.value}_{labels.get(d).replace(' ', '')}" for d in DIMENSIONS
        ]
        texts.append(" ".join(parts))
    codes = label_codes(labelsets)
    vocab, models = train_baseline(
        texts, codes, tfidf_config=TfidfConfig(min_df=1, max_df=1.0)
    )
    X = tfidf_transform(vocab, texts)
    report = baseline_eval(models, X, codes)
    assert report.overall_macro_f1 > 0.95
