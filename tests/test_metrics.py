import math
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import factkit
from factkit.errors import EmptyInput, LabelOutOfRange, LengthMismatch, SchemaMismatch
from factkit.metrics import (
    MeanStd,
    aggregate_seeds,
    evaluate_labelsets,
    format_mean_std,
    macro_f1,
    pooled_overall_f1,
    render_aggregate,
)
from factkit.model import MASK, pooled_f1_indices
from factkit.taxonomy import DIMENSIONS, Dimension, LabelSet, label_codes


def oracle_f1(gold, pred):
    """Independent confusion-matrix computation, written dumbly."""
    labels = sorted(set(gold) | set(pred), key=repr)
    out = {}
    for label in labels:
        tp = sum(1 for g, p in zip(gold, pred) if g == label and p == label)
        fp = sum(1 for g, p in zip(gold, pred) if g != label and p == label)
        fn = sum(1 for g, p in zip(gold, pred) if g == label and p != label)
        precision = tp / (tp + fp) if tp + fp else 0.0
        recall = tp / (tp + fn) if tp + fn else 0.0
        f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
        out[label] = f1
    return out


def main_category_report(gold, pred):
    """evaluate_labelsets over facts that differ only in their main category."""
    return evaluate_labelsets(
        label_codes([valid_labels(main=g) for g in gold]),
        label_codes([valid_labels(main=p) for p in pred]),
    )


def main_scores(report, field="per_label_f1"):
    """``report.<field>`` restricted to the main category, keyed by label."""
    return {l: v for (d, l), v in getattr(report, field).items() if d == Dimension.MAIN_CATEGORY}


def test_perfect_predictions():
    gold = ["Preferences", "Experience", "Preferences", "Demographics"]
    report = main_category_report(gold, gold)
    assert set(report.per_label_f1.values()) == {1.0}
    assert macro_f1(gold, gold) == 1.0


def test_hand_computed_example():
    gold = ["Preferences", "Preferences", "Experience", "Experience"]
    pred = ["Preferences", "Experience", "Experience", "Experience"]
    report = main_category_report(gold, pred)
    assert main_scores(report) == pytest.approx({"Preferences": 2 / 3, "Experience": 0.8}, abs=1e-12)
    assert main_scores(report, "support") == {"Preferences": 2, "Experience": 2}
    assert macro_f1(gold, pred) == pytest.approx((2 / 3 + 0.8) / 2, abs=1e-9)


def test_absent_label_not_reported():
    report = main_category_report(["Preferences"] * 2, ["Preferences"] * 2)
    assert set(main_scores(report)) == set(main_scores(report, "support")) == {"Preferences"}


def test_zero_division_gives_zero_f1():
    # Experience never predicted, Preferences never gold
    report = main_category_report(["Experience"], ["Preferences"])
    assert main_scores(report) == {"Experience": 0.0, "Preferences": 0.0}
    assert main_scores(report, "support") == {"Experience": 1, "Preferences": 0}
    assert macro_f1(["B"], ["A"]) == 0.0


def test_length_mismatch():
    with pytest.raises(LengthMismatch):
        macro_f1(["A"], ["A", "B"])
    with pytest.raises(EmptyInput):
        macro_f1([], [])


def test_macro_relabeling_invariance():
    rng = random.Random(0)
    gold = [rng.choice("ABC") for _ in range(40)]
    pred = [rng.choice("ABC") for _ in range(40)]
    mapping = {"A": "X", "B": "Y", "C": "Z"}
    assert macro_f1(gold, pred) == pytest.approx(
        macro_f1([mapping[g] for g in gold], [mapping[p] for p in pred]), abs=1e-12
    )


def test_macro_matches_oracle_random():
    rng = random.Random(1)
    for _ in range(200):
        n = rng.randint(1, 50)
        labels = "ABCDEF"[: rng.randint(1, 6)]
        gold = [rng.choice(labels) for _ in range(n)]
        pred = [rng.choice(labels) for _ in range(n)]
        oracle = oracle_f1(gold, pred)
        assert macro_f1(gold, pred) == pytest.approx(
            sum(oracle.values()) / len(oracle), abs=1e-9
        )


# --- pooled overall ---


def valid_labels(main="Preferences", time="Present", followup="None"):
    return LabelSet(
        main_category=main,
        time=time,
        referent="Self",
        duration="Long-term",
        followup=followup,
    )


def test_pooled_identical_sets():
    sets = [valid_labels(), LabelSet.invalid("Opinion")]
    assert pooled_overall_f1(sets, sets) == 1.0


def test_pooled_one_wrong_dimension_below_category_mean():
    gold = [valid_labels(main="Preferences")]
    pred = [valid_labels(main="Experience")]
    pooled = pooled_overall_f1(gold, pred)

    # oracle: pooled confusion matrix over (dimension, label) types
    pairs_gold, pairs_pred = [], []
    for dim in DIMENSIONS:
        pairs_gold.append((dim.value, gold[0].get(dim)))
        pairs_pred.append((dim.value, pred[0].get(dim)))
    oracle = oracle_f1(pairs_gold, pairs_pred)
    assert pooled == pytest.approx(sum(oracle.values()) / len(oracle), abs=1e-12)
    assert pooled == pytest.approx(6 / 8, abs=1e-12)

    mean_of_macros = sum(
        macro_f1([g.get(d) for g in gold], [p.get(d) for p in pred]) for d in DIMENSIONS
    ) / len(DIMENSIONS)
    assert pooled < mean_of_macros


def test_pooled_locality_of_errors():
    gold = [valid_labels(time="Future", followup="Yes"), valid_labels(time="Future", followup="Yes")]
    pred_good = [valid_labels(time="Future", followup="Yes"), valid_labels(time="Future", followup="Yes")]
    pred_bad = [valid_labels(time="Future", followup="Yes"), valid_labels(time="Future", followup="Maybe")]
    # only followup-related pooled types may change
    full = evaluate_labelsets(label_codes(gold), label_codes(pred_good)).per_label_f1
    damaged = evaluate_labelsets(label_codes(gold), label_codes(pred_bad)).per_label_f1
    changed = {k for k in set(full) | set(damaged) if full.get(k) != damaged.get(k)}
    assert all(key[0] == Dimension.FOLLOWUP for key in changed)
    assert changed


def _pooled_pairs(gold_sets, pred_sets):
    pairs_gold, pairs_pred = [], []
    for g, p in zip(gold_sets, pred_sets):
        for dim in DIMENSIONS:
            pairs_gold.append((dim.value, g.get(dim)))
            pairs_pred.append((dim.value, p.get(dim)))
    return pairs_gold, pairs_pred


def test_pooled_matches_oracle_random():
    rng = random.Random(3)
    mains = ["Preferences", "Experience", "Demographics", "None"]
    times = ["Past", "Present", "Future", "None"]
    for _ in range(200):
        n = rng.randint(1, 25)
        gold = [
            LabelSet(main_category=rng.choice(mains), time=rng.choice(times))
            for _ in range(n)
        ]
        pred = [
            LabelSet(main_category=rng.choice(mains), time=rng.choice(times))
            for _ in range(n)
        ]
        oracle = oracle_f1(*_pooled_pairs(gold, pred))
        assert pooled_overall_f1(gold, pred) == pytest.approx(
            sum(oracle.values()) / len(oracle), abs=1e-9
        )


def test_evaluate_labelsets_report_consistency():
    rng = random.Random(4)
    mains = ["Preferences", "Experience"]
    gold = [valid_labels(main=rng.choice(mains)) for _ in range(20)]
    pred = [valid_labels(main=rng.choice(mains)) for _ in range(20)]
    report = evaluate_labelsets(label_codes(gold), label_codes(pred))
    # per-category macro equals the mean of that category's per-label scores
    for dim in DIMENSIONS:
        labels = [l for (d, l) in report.per_label_f1 if d == dim]
        mean = sum(report.per_label_f1[(dim, l)] for l in labels) / len(labels)
        assert report.per_category_macro_f1[dim] == pytest.approx(mean, abs=1e-12)
    assert 0.0 <= report.overall_macro_f1 <= 1.0


def test_evaluate_codes_matches_oracle_random():
    rng = np.random.default_rng(5)
    sizes = [len(factkit.LABEL_SPACE[d]) for d in DIMENSIONS]
    for _ in range(50):
        n = int(rng.integers(1, 30))
        gold = rng.integers(0, sizes, size=(n, len(sizes)))
        pred = rng.integers(0, sizes, size=(n, len(sizes)))
        report = evaluate_labelsets(gold, pred)
        for c, dim in enumerate(DIMENSIONS):
            oracle = oracle_f1(gold[:, c].tolist(), pred[:, c].tolist())
            space = factkit.LABEL_SPACE[dim]
            assert {l for d, l in report.per_label_f1 if d == dim} == {space[k] for k in oracle}
            for code, f1 in oracle.items():
                assert report.per_label_f1[(dim, space[code])] == pytest.approx(f1, abs=1e-12)
        pairs = [(c, int(v)) for row in gold for c, v in enumerate(row)]
        pred_pairs = [(c, int(v)) for row in pred for c, v in enumerate(row)]
        oracle = oracle_f1(pairs, pred_pairs)
        assert report.overall_macro_f1 == pytest.approx(
            sum(oracle.values()) / len(oracle), abs=1e-12
        )


def loop_f1_count(gold, pred, sizes):
    """The per-label loop the F1 arrays replaced, kept as a bitwise reference.

    Returns {(column, code): (f1, support)}, per-column macro F1 and pooled macro F1.
    """
    offsets = np.cumsum([0, *sizes[:-1]])
    keep = gold >= 0
    total = int(sum(sizes))
    flat = ((gold + offsets) * total + pred + offsets)[keep]
    confusion = np.bincount(flat, minlength=total * total).reshape(total, total)
    gold_count = confusion.sum(axis=1).tolist()
    pred_count = confusion.sum(axis=0).tolist()
    hits = confusion.diagonal().tolist()
    scores, per_column = {}, []
    for c, size in enumerate(sizes):
        column_f1 = []
        for code in range(size):
            k = int(offsets[c]) + code
            if not gold_count[k] and not pred_count[k]:
                continue
            precision = hits[k] / pred_count[k] if pred_count[k] else 0.0
            recall = hits[k] / gold_count[k] if gold_count[k] else 0.0
            f1 = 2.0 * precision * recall / (precision + recall) if precision + recall > 0.0 else 0.0
            scores[(c, code)] = (f1, gold_count[k])
            column_f1.append(f1)
        per_column.append(math.fsum(column_f1) / len(column_f1) if column_f1 else None)
    return scores, per_column, math.fsum(f1 for f1, _ in scores.values()) / len(scores)


def test_f1_arrays_match_the_per_label_loop_bitwise():
    # repr of a float round-trips, so equal reprs mean equal bits, and equal types too
    rng = np.random.default_rng(17)
    sizes = [len(factkit.LABEL_SPACE[d]) for d in DIMENSIONS]
    keys = [(dim, label) for dim in DIMENSIONS for label in factkit.LABEL_SPACE[dim]]
    offsets = np.cumsum([0, *sizes[:-1]])
    for _ in range(300):
        n = int(rng.integers(1, 40))
        # gold draws from a prefix of each label space: some labels are seen only in predictions
        gold = rng.integers(0, [max(1, int(s * rng.uniform(0.3, 1.0))) for s in sizes], size=(n, 7))
        pred = rng.integers(0, sizes, size=(n, 7))
        gold[rng.random((n, 7)) < 0.2] = MASK
        gold[:, rng.random(7) < 0.15] = MASK  # columns with no scored label
        if np.all(gold == MASK):
            gold[0, 0] = 0
        scores, per_column, pooled = loop_f1_count(gold, pred, sizes)
        report = evaluate_labelsets(gold, pred)
        expected = [(keys[offsets[c] + code], score) for (c, code), score in scores.items()]
        assert repr(list(report.per_label_f1.items())) == repr([(k, f1) for k, (f1, _) in expected])
        assert repr(list(report.support.items())) == repr([(k, n) for k, (_, n) in expected])
        assert repr(list(report.per_category_macro_f1.items())) == repr(
            list(zip(DIMENSIONS, per_column))
        )
        assert repr(report.overall_macro_f1) == repr(pooled)
        seen_sizes = (np.maximum(gold.max(axis=0), pred.max(axis=0)) + 1).tolist()
        assert repr(pooled_f1_indices(gold, pred)) == repr(loop_f1_count(gold, pred, seen_sizes)[2])
        # hashable labels are coded in first-seen order, gold first
        gold_names = [f"g{v % 5}" for v in gold[:, 0]]
        pred_names = [f"g{v % 4}" for v in pred[:, 0]]
        code_of = {}
        codes = np.array([code_of.setdefault(v, len(code_of)) for v in gold_names + pred_names])
        reference = loop_f1_count(codes[:n, None], codes[n:, None], [len(code_of)])[2]
        assert repr(macro_f1(gold_names, pred_names)) == repr(reference)


def test_evaluate_rejects_bad_code_arrays():
    gold = label_codes([valid_labels()] * 2)
    with pytest.raises(LengthMismatch):
        evaluate_labelsets(gold, gold[:1])
    with pytest.raises(EmptyInput):
        evaluate_labelsets(gold[:0], gold[:0])
    bad = gold.copy()
    bad[0, 4] = 2  # validity has two labels
    with pytest.raises(LabelOutOfRange):
        evaluate_labelsets(gold, bad)
    with pytest.raises(LabelOutOfRange):  # a gold code one past its column, not only a prediction
        evaluate_labelsets(bad, gold)


_HASH_SEED_PROBE = """
import random
from factkit.agreement import cohen_kappa
from factkit.metrics import pooled_overall_f1
from factkit.taxonomy import DIMENSIONS, LABEL_SPACE, LabelSet
rng = random.Random(0)
mains, times = LABEL_SPACE[DIMENSIONS[0]], LABEL_SPACE[DIMENSIONS[1]]
gold = [LabelSet(main_category=rng.choice(mains), time=rng.choice(times)) for _ in range(40)]
pred = [LabelSet(main_category=rng.choice(mains), time=rng.choice(times)) for _ in range(40)]
print(repr(pooled_overall_f1(gold, pred)))
print(repr(cohen_kappa(list("cbaeae"), list("ddebea"))))
"""


def test_pooled_f1_independent_of_hash_seed():
    src = str(Path(factkit.__file__).resolve().parents[1])
    outputs = []
    # hash seeds 0 and 2 iterate a set of the kappa probe's labels in orders
    # whose float sums differ in the last digit; seeds 0 and 1 do not
    for hash_seed in ("0", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=src)
        result = subprocess.run(
            [sys.executable, "-c", _HASH_SEED_PROBE],
            env=env, capture_output=True, text=True, check=True, timeout=60,
        )
        outputs.append(result.stdout)
    assert outputs[0] == outputs[1]


# --- seed aggregation ---


def report_of(value: float, main="Preferences"):
    gold = [valid_labels(main=main)] * 3
    report = evaluate_labelsets(label_codes(gold), label_codes(gold))
    # patch the overall for aggregation arithmetic tests
    return type(report)(
        per_label_f1=dict(report.per_label_f1),
        per_category_macro_f1=dict(report.per_category_macro_f1),
        overall_macro_f1=value,
        support=dict(report.support),
    )


def test_aggregate_identical_reports():
    agg = aggregate_seeds([report_of(0.8)] * 5)
    assert agg.overall == MeanStd(0.8, 0.0)
    assert agg.n_seeds == 5
    assert not agg.degenerate
    assert all(stat.std == 0.0 for stat in agg.per_label.values())


def test_aggregate_two_point_hand_computation():
    agg = aggregate_seeds([report_of(0.80), report_of(0.82)])
    assert agg.overall.mean == pytest.approx(0.81, abs=1e-12)
    assert agg.overall.std == pytest.approx(math.sqrt(2) / 100, abs=1e-12)


def test_aggregate_three_point_sample_std_hand_computation():
    # n - 1 = 2: with two seeds n - 1 = 1, which hides a divisor multiplied in or off by one
    agg = aggregate_seeds([report_of(0.70), report_of(0.80), report_of(0.90)])
    assert agg.overall.mean == pytest.approx(0.8, abs=1e-12)
    assert agg.overall.std == pytest.approx(math.sqrt((0.1**2 + 0.0 + 0.1**2) / 2), abs=1e-12)


def test_aggregate_order_invariance():
    a = aggregate_seeds([report_of(0.7), report_of(0.8), report_of(0.9)])
    b = aggregate_seeds([report_of(0.9), report_of(0.7), report_of(0.8)])
    assert a == b


def test_aggregate_refuses_no_reports():
    with pytest.raises(EmptyInput, match="no reports to aggregate"):
        aggregate_seeds([])


def test_aggregate_single_report_degenerate():
    agg = aggregate_seeds([report_of(0.5)])
    assert agg.degenerate
    assert agg.overall.std == 0.0


def test_aggregate_drops_labels_some_seed_missed():
    reports = [report_of(0.5, main="Preferences"), report_of(0.5, main="Experience")]
    agg = aggregate_seeds(reports)
    assert agg.n_seeds == 2
    assert agg.dropped == (
        (Dimension.MAIN_CATEGORY, "Experience"),
        (Dimension.MAIN_CATEGORY, "Preferences"),
    )
    assert not set(agg.dropped) & set(agg.per_label)
    assert set(agg.per_label) == set(agg.mean_support)
    no_dims = type(reports[0])({}, {}, 0.5, {})
    with pytest.raises(SchemaMismatch):  # the dimension set must still match
        aggregate_seeds([reports[0], no_dims])


def test_format_mean_std():
    assert format_mean_std(MeanStd(0.794, 0.025)) == "79.4±2.5"


def test_render_aggregate_contains_machine_lines():
    text = render_aggregate(aggregate_seeds([report_of(0.75)] * 2))
    assert "overall_macro_f1.mean=0.750000" in text
    assert "per_category.main_category.mean=" in text
