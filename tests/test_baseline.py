import importlib
import math
import random
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from factkit.baseline import (
    LS_FTOL,
    LS_GTOL,
    LS_TRIALS,
    CsrMatrix,
    LinearModel,
    TfidfConfig,
    _lbfgs,
    _line_search,
    _objective,
    baseline_eval,
    logreg_predict,
    logreg_train,
    tfidf_fit,
    tfidf_transform,
    tokenize,
    train_baseline,
)
from factkit.dataio import read_facts
from factkit.errors import DimensionMismatch, EmptyInput, EmptyVocabulary, LengthMismatch
from factkit.metrics import macro_f1
from factkit.taxonomy import DIMENSIONS, LABEL_SPACE, label_codes

from synth import synthetic_labels, embed_labels

LENIENT = TfidfConfig(min_df=1, max_df=1.0)
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


# --- tokenizer ---


def test_tokenize_lowercases_and_splits():
    assert tokenize("The cat, sat!") == ["the", "cat", "sat"]


def test_tokenize_strips_accents():
    assert tokenize("Café") == ["cafe"]
    assert tokenize("naïve résumé") == ["naive", "resume"]


# --- vocabulary ---


def test_fit_refuses_an_empty_corpus():
    with pytest.raises(EmptyInput, match="empty corpus"):
        tfidf_fit([])


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
    assert matrix.data.size == 0


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
    norms = np.linalg.norm(matrix.toarray(), axis=1)
    for norm in norms:
        assert norm == pytest.approx(1.0, abs=1e-9) or norm == 0.0


def csr(dense) -> CsrMatrix:
    """The CSR form of a 2-D array: its nonzero values in row-major order."""
    dense = np.asarray(dense, dtype=np.float64)
    rows, cols = np.nonzero(dense)
    indptr = np.concatenate([[0], np.cumsum(np.bincount(rows, minlength=len(dense)))])
    return CsrMatrix(dense[rows, cols], cols, indptr, dense.shape)


def test_csr_matrix_round_trips_and_its_products_match_the_dense_ones():
    dense = np.array([[0.0, 2.0, 0.0], [0.0, 0.0, 0.0], [1.5, 0.0, -3.0]])
    matrix = csr(dense)
    assert matrix.shape == (3, 3) and matrix.data.size == 3
    assert matrix.indptr.tolist() == [0, 1, 1, 3] and matrix.indices.tolist() == [1, 0, 2]
    assert np.array_equal(matrix.toarray(), dense)
    weights = np.arange(6.0).reshape(2, 3)
    assert np.array_equal(matrix.matmul_t(weights), dense @ weights.T)
    residual = np.arange(6.0).reshape(3, 2)
    assert np.array_equal(matrix.t_matmul_t(residual), (dense.T @ residual).T)


def test_transform_and_one_objective_stay_far_below_the_dense_matrix():
    # paper scale: 2,000 texts over a 10,000-term vocabulary, nine labels
    rng = random.Random(3)
    words = [f"w{i}" for i in range(150)]
    texts = [" ".join(rng.choice(words) for _ in range(25)) for _ in range(2000)]
    vocab = tfidf_fit(texts)
    assert len(vocab.terms) == 10_000
    y_idx, share = np.arange(2000) % 9, np.full(2000, 1 / 2000)
    tracemalloc.start()
    try:
        X = tfidf_transform(vocab, texts)
        _objective(np.zeros(9 * 10_001), X, y_idx, share, 1e-4)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    dense_bytes = 2000 * 10_000 * 8
    assert peak < dense_bytes / 20, f"peak {peak / dense_bytes:.3f} x the dense matrix"


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
    return csr(X), y


def test_logreg_learns_separable_within_200_epochs():
    X, y = separable_set()
    model = logreg_train(X, y)
    assert logreg_predict(model, X) == y


def test_logreg_class_balance_ratio():
    # 90/10 skew: weight ratio must be exactly 1:9
    y = ["a"] * 90 + ["b"] * 10
    n, n_classes = 100, 2
    w_a = n / (n_classes * 90)
    w_b = n / (n_classes * 10)
    assert w_b / w_a == pytest.approx(9.0, abs=1e-12)
    # and the fit with balancing still learns the separable signal
    X = csr(
        np.vstack([np.tile([1.0, 0.0], (90, 1)), np.tile([0.0, 1.0], (10, 1))])
    )
    model = logreg_train(X, y)
    assert logreg_predict(model, X) == y


def test_logreg_loss_non_increasing_full_batch():
    X, y = separable_set()
    # 20 rows per class: the class-balanced objective is the unweighted one written below
    assert y.count("neg") == y.count("pos") == 20
    l2 = 1e-2
    model = logreg_train(X, y, l2=l2)
    history = model.loss_history
    assert len(history) > 2
    assert history[0] == pytest.approx(math.log(2), abs=1e-12)
    assert all(a >= b - 1e-12 for a, b in zip(history, history[1:]))

    # the end point is near-stationary: central differences of an independent
    # implementation of the objective vanish there
    y_idx = np.array([model.labels.index(v) for v in y])

    def objective(theta):
        weights, bias = theta[:-2].reshape(2, -1), theta[-2:]
        scores = X.toarray() @ weights.T + bias
        top = scores.max(axis=1, keepdims=True)
        log_probs = scores - top - np.log(np.exp(scores - top).sum(axis=1, keepdims=True))
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
    X = csr(np.ones((5, 2)))
    with pytest.warns(UserWarning):
        model = logreg_train(X, ["only"] * 5)
    assert model.single_class
    assert logreg_predict(model, X) == ["only"] * 5


def test_logreg_single_class_goes_through_lbfgs():
    X = csr(np.ones((5, 2)))
    with pytest.warns(UserWarning, match="single-class"):
        model = logreg_train(X, [3] * 5)
    # zero weights have a zero gradient, so L-BFGS stops where it starts
    assert model.loss_history == (0.0,)
    assert model.labels == (3,) and not model.weights.any() and not model.bias.any()


@pytest.mark.parametrize("l2", [1e-4, 1e-2])
def test_lbfgs_ends_within_1e_4_of_scipy_lbfgsb(l2, tmp_path, monkeypatch):
    # scipy is only the reference here: the same objective through its L-BFGS-B
    optimize = pytest.importorskip("scipy.optimize")
    monkeypatch.syspath_prepend(str(PERFBENCH))
    workloads = importlib.import_module("workloads")
    for seed in range(1, 6):
        work = tmp_path / str(seed)
        work.mkdir()
        workloads.Baseline().setup(seed, work, tmp_path / "out")
        facts = read_facts(work / "facts.jsonl")
        texts = [fact.text for fact in facts]
        X = tfidf_transform(tfidf_fit(texts), texts)
        for column in label_codes([fact.labels for fact in facts]).T:
            labels, y_idx = np.unique(column, return_inverse=True)
            if len(labels) < 2:
                continue
            sample_w = 1.0 / np.bincount(y_idx)[y_idx]
            args = (X, y_idx, sample_w / sample_w.sum(), l2)
            reference = optimize.minimize(
                _objective, np.zeros(len(labels) * (X.shape[1] + 1)), args=args,
                method="L-BFGS-B", jac=True,
            ).fun
            ours = logreg_train(X, column, l2=l2).loss_history[-1]
            assert ours - reference <= 1e-4 * abs(reference), (seed, labels)


def test_logreg_huge_l2_backs_off_to_the_start_without_warnings():
    # every step from zero overflows the penalty: each non-finite value halves the step
    X, y = separable_set()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        model = logreg_train(X, y, l2=1e308)
    assert model.loss_history[-1] == pytest.approx(math.log(2), abs=1e-12)
    assert not model.weights.any() and not model.bias.any()


def test_line_search_steps_meet_sufficient_decrease():
    # seeded 1-D functions, a downward tilt plus four sines, from first steps of 1e-2 to 1e2
    outcomes = {"wolfe": 0, "stopped early": 0, "no step": 0}
    for seed in range(300):
        rng = np.random.default_rng(seed)
        amp, freq = rng.uniform(-1, 1, 4), rng.uniform(0.1, 5, 4)
        tilt, bowl, step = rng.uniform(2, 3), rng.choice([0.0, 0.01, 1.0]), 10 ** rng.uniform(-2, 2)

        def fun(x):
            value = bowl * x[0] ** 2 - tilt * x[0] + amp @ np.sin(freq * x[0])
            return value, np.array([2 * bowl * x[0] - tilt + amp @ (freq * np.cos(freq * x[0]))])

        f0, g0 = fun(np.zeros(1))
        if not g0[0] < 0:
            continue
        found = _line_search(fun, np.zeros(1), f0, g0, np.ones(1), step)
        if found is None:
            outcomes["no step"] += 1
            continue
        x, f, g = found
        assert f <= f0 + LS_FTOL * x[0] * g0[0], seed
        outcomes["wolfe" if abs(g[0]) <= -LS_GTOL * g0[0] else "stopped early"] += 1
    assert outcomes["wolfe"] > 200 and outcomes["stopped early"] and outcomes["no step"], outcomes


def test_line_search_shortens_a_step_that_lowers_the_value_too_little():
    # x^2/2 - x is 0 at 0 and at 2: a first step of 1.999 lowers it, but by less than
    # the sufficient decrease line asks, so the search works on the tilted function
    fun = lambda x: (0.5 * x[0] ** 2 - x[0], np.array([x[0] - 1.0]))
    calls = []
    x, f, g = _line_search(lambda x: calls.append(x[0]) or fun(x), np.zeros(1), *fun(np.zeros(1)),
                           np.ones(1), 1.999)
    assert len(calls) == 2 and calls[0] == 1.999
    assert f <= LS_FTOL * x[0] * -1.0 and abs(g[0]) <= LS_GTOL


def test_line_search_refuses_an_ascent_direction():
    fun = lambda x: ((x**2).sum(), 2 * x)
    x = np.ones(2)
    assert _line_search(fun, x, *fun(x), np.ones(2), 1.0) is None


def test_lbfgs_drops_its_pairs_after_a_failed_search_then_stops():
    # an ill-conditioned quadratic whose values turn NaN after six evaluations
    scale = np.array([1.0, 100.0])
    calls = []

    def fun(x):
        calls.append(x.copy())
        value = 0.5 * (scale * (x - 3.0) ** 2).sum()
        return (value if len(calls) <= 6 else math.nan), scale * (x - 3.0)

    x, history = _lbfgs(fun, np.zeros(2))
    # six good values, then one search with the pairs and one along the gradient, each
    # halving its step through every trial; x stays at the last accepted point
    assert len(calls) == 6 + 2 * LS_TRIALS
    assert np.array_equal(calls[6 + LS_TRIALS], x - scale * (x - 3.0))
    assert history[-1] == 0.5 * (scale * (x - 3.0) ** 2).sum()
    assert history == sorted(history, reverse=True) and len(history) >= 3


def test_predict_refuses_a_matrix_of_another_width():
    X, y = separable_set()
    model = logreg_train(X, y)
    with pytest.raises(DimensionMismatch, match="3 features vs 4 weights"):
        logreg_predict(model, csr(X.toarray()[:, :3]))


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
        logreg_train(csr(np.zeros((0, 3))), [])


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
    models = []
    offset = 0
    for d in DIMENSIONS:
        space = LABEL_SPACE[d]
        weights = np.zeros((len(space), dim_total))
        for i in range(len(space)):
            weights[i, offset + i] = 1.0
        labels = tuple(range(len(space)))
        models.append(LinearModel(weights=weights, bias=np.zeros(len(space)), labels=labels))
        offset += len(space)
    return models


def test_baseline_eval_perfect_models():
    labelsets = synthetic_labels(n_facts=60, invalid_count=20)
    X = csr(embed_labels(labelsets, noise=0.0))
    report = baseline_eval(perfect_models_for(labelsets), X, label_codes(labelsets))
    assert report.overall_macro_f1 == 1.0
    assert all(v == 1.0 for v in report.per_label_f1.values())


def test_baseline_eval_missing_dimension():
    labelsets = synthetic_labels(n_facts=60, invalid_count=20)
    X = csr(embed_labels(labelsets, noise=0.0))
    models = perfect_models_for(labelsets)
    for given in (models[:-1], []):
        with pytest.raises(LengthMismatch):
            baseline_eval(given, X, label_codes(labelsets))


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
    vocab, models = train_baseline(texts, codes)
    X = tfidf_transform(vocab, texts)
    report = baseline_eval(models, X, codes)
    assert report.overall_macro_f1 > 0.95
