"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Criteria 9 and parts of 10 need the released 2,779-fact dataset and real
embeddings; they run when these environment variables point at the files
and are skipped otherwise:

    FACTKIT_DATASET      canonical facts JSONL (2,779 records)
    FACTKIT_EMBEDDINGS   .emb file aligned with the dataset ids
    FACTKIT_MSC_FACTS    full MSC fact list as a facts JSONL (for the
                         183-example overlap reproduction)

Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import math
import os
import random
import time
from contextlib import contextmanager

import numpy as np
import pytest

import factkit
from factkit.agreement import (
    RatingsTable,
    cohen_kappa,
    fleiss_kappa,
    krippendorff_alpha_nominal,
    landis_koch,
    percent_agreement,
)
from factkit.analyze import aggregate_distribution, leakage_audit, predict_corpus
from factkit.baseline import TfidfConfig, baseline_eval, tfidf_transform, train_baseline
from factkit.dataio import SplitSpec, read_facts, stratified_split
from factkit.embeddings import EmbeddingMatrix, load_embeddings
from factkit.errors import SchemaMismatch
from factkit.metrics import macro_f1, pooled_overall_f1
from factkit.model import (
    MASK,
    TrainConfig,
    backward,
    canonical_label_space,
    forward,
    loss,
    new_model,
    predict,
    targets_from_facts,
    train,
)
from factkit.model import _loss_and_grads
from factkit.sampling import kmeans_fit
from factkit.taxonomy import (
    DIMENSIONS,
    LabelSet,
    RawAnnotation,
    canonicalize,
    label_codes,
    labelsets_from_codes,
)

from canon_fixtures import GOLDEN_CASES, expected_labelset_kwargs
from synth import synthetic_dataset
from test_agreement import oracle_alpha, oracle_cohen, oracle_fleiss, oracle_percent
from test_agreement import random_table
from test_metrics import oracle_f1


@contextmanager
def criterion(number: int, name: str, budget_s: float):
    start = time.perf_counter()
    try:
        yield
    except Exception:
        print(f"ACCEPTANCE {number} ({name}): FAIL")
        raise
    elapsed = time.perf_counter() - start
    assert elapsed < budget_s, f"criterion {number} took {elapsed:.2f}s > {budget_s}s"
    print(f"ACCEPTANCE {number} ({name}): PASS [{elapsed:.2f}s]")


def test_criterion_1_gradient_correctness():
    with criterion(1, "gradient correctness", 5.0):
        rng = np.random.default_rng(2024)
        label_names = ["l0", "l1", "l2", "l3", "l4"]
        for trial in range(20):
            d = int(rng.choice([4, 8]))
            h = int(rng.choice([2, 4]))
            n_cats = int(rng.integers(2, 8))
            space = [
                (f"cat{c}", tuple(label_names[: int(rng.integers(2, 6))]))
                for c in range(n_cats)
            ]
            model = new_model(d, space, hidden=h, dropout_rate=0.0, seed=trial)
            x = rng.normal(size=d)
            target = np.array(
                [rng.integers(0, len(labels)) for _, labels in space]
            )
            analytic = backward(model, x, target)

            step = 1e-5
            worst = 0.0
            for param, grad in zip(model.parameters(), analytic):
                flat = param.ravel()
                grad_flat = grad.ravel()
                for i in range(flat.size):
                    keep = flat[i]
                    flat[i] = keep + step
                    up = loss(model, forward(model, x), target)
                    flat[i] = keep - step
                    down = loss(model, forward(model, x), target)
                    flat[i] = keep
                    numeric = (up - down) / (2.0 * step)
                    denom = max(1e-3, abs(numeric), abs(grad_flat[i]))
                    worst = max(worst, abs(numeric - grad_flat[i]) / denom)
            assert worst < 1e-5, f"trial {trial}: max relative error {worst:.2e}"


def test_criterion_2_loss_masking_invariance():
    with criterion(2, "loss-masking invariance", 1.0):
        space = [("a", ("x", "y", "z")), ("b", ("p", "q"))]
        base = new_model(6, space, hidden=3, dropout_rate=0.0, seed=0)
        extended = new_model(
            6, space + [("pad", ("m0", "m1", "m2"))], hidden=3, dropout_rate=0.0, seed=0
        )
        for dst, src in zip(extended.heads[:2], base.heads):
            for d_arr, s_arr in zip(dst.arrays(), src.arrays()):
                d_arr[...] = s_arr
        rng = np.random.default_rng(1)
        X = rng.normal(size=(7, 6))
        targets = np.column_stack(
            [rng.integers(0, 3, size=7), rng.integers(0, 2, size=7)]
        )
        padded = np.hstack([targets, np.full((7, 1), MASK)])
        loss_a, grads_a = _loss_and_grads(base, X, targets)
        loss_b, grads_b = _loss_and_grads(extended, X, padded)
        assert loss_a == loss_b  # bitwise in 64-bit
        for a, b in zip(grads_a, grads_b[: len(grads_a)]):
            assert np.array_equal(a, b)
        for grad in grads_b[len(grads_a):]:
            assert np.all(grad == 0.0)


def test_criterion_3_agreement_oracle_equivalence():
    with criterion(3, "agreement oracle equivalence", 10.0):
        assert cohen_kappa(list("xxyy"), list("xyxy")) == pytest.approx(0.0, abs=1e-12)
        assert fleiss_kappa(
            RatingsTable(values=[["A", "A", "B"], ["A", "B", "B"]])
        ) == pytest.approx(-1 / 3, abs=1e-12)
        assert krippendorff_alpha_nominal(
            RatingsTable(values=[["a", "a"], ["a", "a"], ["b", "b"], ["b", "a"]])
        ) == pytest.approx(16 / 30, abs=1e-12)
        assert landis_koch(0.657) == "Substantial"
        assert landis_koch(0.458) == "Moderate"

        rng = random.Random(99)
        for trial in range(200):
            values = random_table(rng, allow_missing=trial % 2 == 0)
            table = RatingsTable(values=[list(r) for r in values])
            if any(len([v for v in r if v is not None]) >= 2 for r in values):
                assert percent_agreement(table) == pytest.approx(
                    oracle_percent(values), abs=1e-9
                )
                assert krippendorff_alpha_nominal(table) == pytest.approx(
                    oracle_alpha(values), abs=1e-9
                )
            if table.is_complete():
                assert fleiss_kappa(table) == pytest.approx(
                    oracle_fleiss(values), abs=1e-9
                )
                if table.n_raters == 2:
                    a = [r[0] for r in values]
                    b = [r[1] for r in values]
                    assert cohen_kappa(a, b) == pytest.approx(
                        oracle_cohen(a, b), abs=1e-9
                    )


def test_criterion_4_metrics_oracle_equivalence():
    with criterion(4, "metrics oracle equivalence", 5.0):
        assert macro_f1(list("AABB"), list("ABBB")) == pytest.approx(
            (2 / 3 + 0.8) / 2, abs=1e-9
        )
        rng = random.Random(4)
        mains = ["Preferences", "Experience", "Demographics", "None"]
        times = ["Past", "Present", "Future", "None"]
        for trial in range(200):
            n = rng.randint(1, 40)
            if trial % 2 == 0:
                labels = "ABCDEF"[: rng.randint(1, 6)]
                gold = [rng.choice(labels) for _ in range(n)]
                pred = [rng.choice(labels) for _ in range(n)]
                oracle = oracle_f1(gold, pred)
                assert macro_f1(gold, pred) == pytest.approx(
                    sum(oracle.values()) / len(oracle), abs=1e-9
                )
            else:
                gold_sets = [
                    LabelSet(main_category=rng.choice(mains), time=rng.choice(times))
                    for _ in range(n)
                ]
                pred_sets = [
                    LabelSet(main_category=rng.choice(mains), time=rng.choice(times))
                    for _ in range(n)
                ]
                pairs_gold, pairs_pred = [], []
                for g, p in zip(gold_sets, pred_sets):
                    for dim in DIMENSIONS:
                        pairs_gold.append((dim.value, g.get(dim)))
                        pairs_pred.append((dim.value, p.get(dim)))
                oracle = oracle_f1(pairs_gold, pairs_pred)
                assert pooled_overall_f1(gold_sets, pred_sets) == pytest.approx(
                    sum(oracle.values()) / len(oracle), abs=1e-9
                )


def test_criterion_5_split_correctness():
    with criterion(5, "split correctness", 1.0):
        facts, _ = synthetic_dataset(n_facts=200, invalid_count=60)
        by_main = {f.id: f.labels.main_category for f in facts}
        stratum_sizes = {}
        for f in facts:
            stratum_sizes[f.labels.main_category] = (
                stratum_sizes.get(f.labels.main_category, 0) + 1
            )
        for seed in (42, 123, 456, 789, 1024):
            spec = SplitSpec(seed=seed)
            assignment = stratified_split(facts, spec)
            again = stratified_split(facts, spec)
            assert assignment == again  # determinism
            for label, size in stratum_sizes.items():
                for part, frac in zip(
                    (assignment.train, assignment.val, assignment.test),
                    (0.7, 0.1, 0.2),
                ):
                    count = sum(1 for i in part if by_main[i] == label)
                    assert abs(count - frac * size) <= 1.0 + 1e-9


def test_criterion_6_kmeans_properties():
    with criterion(6, "k-means properties", 10.0):
        for trial in range(50):
            rng = np.random.default_rng(trial)
            n = int(rng.integers(10, 60))
            d = int(rng.integers(2, 6))
            points = rng.normal(size=(n, d))
            k = int(rng.integers(2, min(9, n)))
            model = kmeans_fit(points, k=k, seed=trial)
            history = model.inertia_history
            for a, b in zip(history, history[1:]):
                assert b <= a + 1e-9 * max(1.0, a)
        # saturated clustering
        points = np.random.default_rng(7).normal(size=(12, 3))
        saturated = kmeans_fit(points, k=12, seed=0)
        assert saturated.inertia == pytest.approx(0.0, abs=1e-12)
        # bitwise determinism
        points = np.random.default_rng(8).normal(size=(40, 4))
        one = kmeans_fit(points, k=5, seed=3)
        two = kmeans_fit(points, k=5, seed=3)
        assert np.array_equal(one.centroids, two.centroids)
        assert np.array_equal(one.assignments, two.assignments)
        assert one.inertia == two.inertia


def test_criterion_7_canonicalization_golden_suite():
    with criterion(7, "canonicalization golden suite", 1.0):
        assert len(GOLDEN_CASES) == 30
        for name, raw_kwargs, expected, excluded, reason in GOLDEN_CASES:
            result = canonicalize(RawAnnotation(**raw_kwargs))
            assert result.labels == LabelSet(**expected_labelset_kwargs(expected)), name
            assert result.excluded is excluded, name
            assert result.exclusion_reason == reason, name


def test_criterion_8_end_to_end_synthetic_training():
    with criterion(8, "end-to-end synthetic training", 30.0):
        facts, emb = synthetic_dataset(n_facts=200, invalid_count=60)
        targets = targets_from_facts(facts, canonical_label_space())
        by_id = {f.id: f for f in facts}
        for seed in (42, 123, 456, 789, 1024):
            assignment = stratified_split(facts, SplitSpec(seed=seed))
            model = new_model(emb.dim, canonical_label_space(), seed=seed)
            config = TrainConfig(
                learning_rate=0.01, batch_size=32, max_epochs=10, patience=10, seed=seed
            )
            result = train(model, emb, targets, assignment, config)
            test_emb = EmbeddingMatrix(
                rows=emb.take(assignment.test), row_ids=assignment.test
            )
            predictions = labelsets_from_codes(predict(result.model, test_emb)[0])
            gold = [by_id[i].labels for i in assignment.test]
            score = pooled_overall_f1(gold, predictions)
            assert score >= 0.95, f"seed {seed}: pooled F1 {score:.4f} < 0.95"


# --- dataset-conditional criteria ---

DATASET = os.environ.get("FACTKIT_DATASET")
EMBEDDINGS = os.environ.get("FACTKIT_EMBEDDINGS")
MSC_FACTS = os.environ.get("FACTKIT_MSC_FACTS")

needs_dataset = pytest.mark.skipif(
    not DATASET, reason="released dataset not available (set FACTKIT_DATASET)"
)


@needs_dataset
def test_criterion_9a_dataset_counts():
    with criterion(9, "dataset record and label counts", 60.0):
        facts = read_facts(DATASET)
        assert len(facts) == 2779
        mains = [f.labels.main_category for f in facts if f.labels is not None]
        assert mains.count("Preferences") == 573
        assert mains.count("Relationships") == 43


@needs_dataset
def test_criterion_9b_baseline_floor():
    with criterion(9, "TF-IDF baseline floor", 3600.0):
        facts = [f for f in read_facts(DATASET) if f.labels and not f.excluded]
        by_id = {f.id: f for f in facts}
        scores = []
        for seed in (42, 123, 456, 789, 1024):
            assignment = stratified_split(facts, SplitSpec(seed=seed))
            train_facts = [by_id[i] for i in assignment.train]
            test_facts = [by_id[i] for i in assignment.test]
            vocab, models = train_baseline(
                [f.text for f in train_facts],
                label_codes([f.labels for f in train_facts]),
            )
            X = tfidf_transform(vocab, [f.text for f in test_facts])
            report = baseline_eval(models, X, label_codes([f.labels for f in test_facts]))
            scores.append(report.overall_macro_f1)
        assert sum(scores) / len(scores) >= 0.55


@pytest.mark.skipif(
    not (DATASET and EMBEDDINGS),
    reason="dataset + embeddings not available (set FACTKIT_DATASET, FACTKIT_EMBEDDINGS)",
)
def test_criterion_9c_heads_beat_baseline():
    with criterion(9, "frozen-embedding heads beat baseline", 3600.0):
        facts = [f for f in read_facts(DATASET) if f.labels and not f.excluded]
        matrix = load_embeddings(EMBEDDINGS)
        keep = [f for f in facts if f.id in set(matrix.row_ids)]
        aligned = EmbeddingMatrix(
            rows=matrix.take([f.id for f in keep]), row_ids=tuple(f.id for f in keep)
        )
        targets = targets_from_facts(keep, canonical_label_space())
        by_id = {f.id: f for f in keep}
        head_scores, base_scores = [], []
        for seed in (42, 123, 456, 789, 1024):
            assignment = stratified_split(keep, SplitSpec(seed=seed))
            model = new_model(aligned.dim, canonical_label_space(), seed=seed)
            result = train(
                model, aligned, targets, assignment,
                TrainConfig(seed=seed, max_epochs=10, patience=3),
            )
            test_emb = EmbeddingMatrix(
                rows=aligned.take(assignment.test), row_ids=assignment.test
            )
            predictions = labelsets_from_codes(predict(result.model, test_emb)[0])
            gold = [by_id[i].labels for i in assignment.test]
            head_scores.append(pooled_overall_f1(gold, predictions))

            train_facts = [by_id[i] for i in assignment.train]
            test_facts = [by_id[i] for i in assignment.test]
            vocab, models = train_baseline(
                [f.text for f in train_facts], label_codes([f.labels for f in train_facts])
            )
            X = tfidf_transform(vocab, [f.text for f in test_facts])
            base_scores.append(
                baseline_eval(
                    models, X, label_codes([f.labels for f in test_facts])
                ).overall_macro_f1
            )
        assert sum(head_scores) / 5 > sum(base_scores) / 5


def test_criterion_10_distribution_properties():
    with criterion(10, "distribution analysis properties", 30.0):
        facts, emb = synthetic_dataset(n_facts=150, invalid_count=45)
        models = [
            new_model(emb.dim, canonical_label_space(), seed=s) for s in range(5)
        ]
        tables = predict_corpus(models, emb)
        report = aggregate_distribution(tables)
        for codes, _ in tables:
            table = labelsets_from_codes(codes)
            for dim in DIMENSIONS:
                counts = {}
                for labels in table:
                    counts[labels.get(dim)] = counts.get(labels.get(dim), 0) + 1
                share_sum = 100.0 * sum(counts.values()) / len(table)
                assert share_sum == pytest.approx(100.0, abs=0.1)
        for dim in DIMENSIONS:
            total = sum(
                report.cells[(dim, label)].share.mean
                for label in factkit.LABEL_SPACE[dim]
            )
            assert total == pytest.approx(100.0, abs=0.1)

        disjoint_train = [
            factkit.FactRecord(id=f"x{i}", text=f"unrelated text {i}") for i in range(30)
        ]
        audit = leakage_audit(disjoint_train, facts, tables)
        assert audit.overlap_count == 0
        assert audit.max_shift == 0.0
        assert all(shift == 0.0 for shift in audit.shifts.values())


@pytest.mark.skipif(
    not (DATASET and MSC_FACTS),
    reason="dataset + MSC fact list not available (set FACTKIT_DATASET, FACTKIT_MSC_FACTS)",
)
def test_criterion_10_overlap_reproduces_183():
    with criterion(10, "leakage overlap count", 600.0):
        train_facts = read_facts(DATASET)
        corpus = read_facts(MSC_FACTS)
        train_texts = {f.text.strip() for f in train_facts}
        overlap = sum(1 for f in corpus if f.text.strip() in train_texts)
        assert overlap == 183
