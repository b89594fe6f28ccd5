"""F1 scoring at per-label, per-category, and pooled-overall granularity.

Labels arrive as (N, 7) int64 code arrays (:func:`taxonomy.label_codes`),
column c indexing ``LABEL_SPACE[DIMENSIONS[c]]``. Every score comes from one
``np.bincount`` confusion count over ``dim_offset + code`` pairs: gold counts
are its row sums, predicted counts its column sums, hits its diagonal.

Conventions, fixed so numbers are comparable across runs:

* The label universe of an evaluation is the union of labels seen in gold
  or predictions; labels never seen on either side do not appear.
* A label with zero precision+recall scores F1 = 0 (not skipped), so rare
  labels cannot silently inflate a macro average.
* The overall score pools predictions across all seven dimensions, turning
  every (dimension, label) pair into its own label type, and takes the
  macro average over those pooled types jointly. It is not the mean of the
  per-dimension macro scores.
* Macro averages sum with ``math.fsum``, independent of ``PYTHONHASHSEED``.
* Across seeds, values aggregate as mean and sample (n-1) standard
  deviation; a single report aggregates with std 0 and a degenerate flag.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Optional, Sequence

import math

import numpy as np

from .errors import EmptyInput, LabelOutOfRange, LengthMismatch, SchemaMismatch
from .taxonomy import DIMENSIONS, LABEL_SPACE, Dimension, LabelSet, label_codes

_LABEL_SIZES = tuple(len(LABEL_SPACE[dim]) for dim in DIMENSIONS)
_LABEL_KEYS = [[(dim, label) for label in LABEL_SPACE[dim]] for dim in DIMENSIONS]


@dataclass(frozen=True)
class LabelScore:
    precision: float
    recall: float
    f1: float
    support: int


def _f1_count(
    gold: np.ndarray, pred: np.ndarray, sizes: Sequence[int]
) -> tuple[dict[tuple[int, int], LabelScore], list[Optional[float]], float]:
    """Per-label scores, per-column macro F1 and pooled macro F1.

    ``gold`` and ``pred`` are (N, C) code arrays; column c holds codes in
    ``range(sizes[c])``. A negative gold code (a masked target) drops that
    cell from the count. Scores are keyed by (column, code); a column with no
    counted cell has macro F1 ``None``.
    """
    gold = np.asarray(gold, dtype=np.int64)
    pred = np.asarray(pred, dtype=np.int64)
    if gold.shape != pred.shape or gold.shape[1:] != (len(sizes),):
        raise LengthMismatch(f"gold codes {gold.shape} vs predictions {pred.shape}")
    keep = gold >= 0
    if np.any(gold >= sizes) or np.any(keep & ((pred < 0) | (pred >= sizes))):
        raise LabelOutOfRange("label code outside its column's label space")
    offsets = np.cumsum([0, *sizes[:-1]], dtype=np.int64)
    flat_gold = (gold + offsets)[keep]
    flat_pred = (pred + offsets)[keep]
    if flat_gold.size == 0:
        raise EmptyInput("F1 of an empty evaluation is undefined")
    total = int(sum(sizes))
    confusion = np.bincount(flat_gold * total + flat_pred, minlength=total * total)
    confusion = confusion.reshape(total, total)
    gold_count = confusion.sum(axis=1).tolist()
    pred_count = confusion.sum(axis=0).tolist()
    hits = confusion.diagonal().tolist()

    scores: dict[tuple[int, int], LabelScore] = {}
    per_column: list[Optional[float]] = []
    for c, size in enumerate(sizes):
        column_f1 = []
        for code in range(size):
            k = int(offsets[c]) + code
            if not gold_count[k] and not pred_count[k]:
                continue
            precision = hits[k] / pred_count[k] if pred_count[k] else 0.0
            recall = hits[k] / gold_count[k] if gold_count[k] else 0.0
            f1 = (
                2.0 * precision * recall / (precision + recall)
                if precision + recall > 0.0
                else 0.0
            )
            scores[(c, code)] = LabelScore(precision, recall, f1, gold_count[k])
            column_f1.append(f1)
        per_column.append(math.fsum(column_f1) / len(column_f1) if column_f1 else None)
    pooled = math.fsum(score.f1 for score in scores.values()) / len(scores)
    return scores, per_column, pooled


def _hashable_codes(
    gold: Sequence[Hashable], pred: Sequence[Hashable]
) -> tuple[list[Hashable], np.ndarray, np.ndarray]:
    """Labels in first-seen order and (N, 1) gold and predicted code arrays."""
    if len(gold) != len(pred):
        raise LengthMismatch(f"{len(gold)} gold items vs {len(pred)} predictions")
    code_of: dict[Hashable, int] = {}
    codes = np.array([code_of.setdefault(v, len(code_of)) for v in (*gold, *pred)], dtype=np.int64)
    return list(code_of), codes[: len(gold), None], codes[len(gold) :, None]


def f1_per_label(
    gold: Sequence[Hashable], pred: Sequence[Hashable]
) -> dict[Hashable, LabelScore]:
    """Precision/recall/F1 per label over the gold-or-predicted universe."""
    labels, gold_codes, pred_codes = _hashable_codes(gold, pred)
    scores, _, _ = _f1_count(gold_codes, pred_codes, [len(labels)])
    return {labels[code]: score for (_, code), score in scores.items()}


def macro_f1(gold: Sequence[Hashable], pred: Sequence[Hashable]) -> float:
    """Unweighted mean of per-label F1 over the evaluation's label universe."""
    labels, gold_codes, pred_codes = _hashable_codes(gold, pred)
    return _f1_count(gold_codes, pred_codes, [len(labels)])[2]


def pooled_overall_f1(
    gold_sets: Sequence[LabelSet],
    pred_sets: Sequence[LabelSet],
    dimensions: Sequence[Dimension] = DIMENSIONS,
) -> float:
    """Macro F1 over (dimension, label) types pooled across dimensions.

    Each fact contributes one pooled (gold, pred) pair per dimension; "None"
    gold labels participate like any other label.
    """
    columns = [DIMENSIONS.index(dim) for dim in dimensions]
    return _f1_count(
        label_codes(gold_sets)[:, columns],
        label_codes(pred_sets)[:, columns],
        [_LABEL_SIZES[c] for c in columns],
    )[2]


@dataclass(frozen=True)
class MetricsReport:
    """F1 at all three granularities for one evaluation."""

    per_label_f1: dict[tuple[Dimension, str], float]
    per_category_macro_f1: dict[Dimension, float]
    overall_macro_f1: float
    support: dict[tuple[Dimension, str], int]


def evaluate_labelsets(gold: np.ndarray, pred: np.ndarray) -> MetricsReport:
    """Full report for (N, 7) predicted label codes against gold ones."""
    scores, per_column, pooled = _f1_count(gold, pred, _LABEL_SIZES)
    return MetricsReport(
        per_label_f1={_LABEL_KEYS[c][code]: s.f1 for (c, code), s in scores.items()},
        per_category_macro_f1=dict(zip(DIMENSIONS, per_column)),
        overall_macro_f1=pooled,
        support={_LABEL_KEYS[c][code]: s.support for (c, code), s in scores.items()},
    )


@dataclass(frozen=True)
class MeanStd:
    mean: float
    std: float


@dataclass(frozen=True)
class SeedAggregate:
    """Mean and sample std of every metric across seed reports."""

    overall: MeanStd
    per_category: dict[Dimension, MeanStd]
    per_label: dict[tuple[Dimension, str], MeanStd]
    mean_support: dict[tuple[Dimension, str], float]
    n_seeds: int
    degenerate: bool  # single report: std is 0 by convention


def _mean_std(values: Sequence[float]) -> MeanStd:
    # fsum keeps the result independent of summation order
    n = len(values)
    mean = math.fsum(values) / n
    if n == 1:
        return MeanStd(mean, 0.0)
    var = math.fsum((v - mean) ** 2 for v in values) / (n - 1)
    return MeanStd(mean, math.sqrt(var))


def aggregate_seeds(reports: Sequence[MetricsReport]) -> SeedAggregate:
    """Aggregate per-seed reports; all reports must share one label space."""
    if not reports:
        raise EmptyInput("no reports to aggregate")
    first = reports[0]
    for report in reports[1:]:
        if set(report.per_category_macro_f1) != set(first.per_category_macro_f1):
            raise SchemaMismatch("reports disagree on the dimension set")
        if set(report.per_label_f1) != set(first.per_label_f1):
            raise SchemaMismatch("reports disagree on the per-label key set")
    return SeedAggregate(
        overall=_mean_std([r.overall_macro_f1 for r in reports]),
        per_category={
            dim: _mean_std([r.per_category_macro_f1[dim] for r in reports])
            for dim in first.per_category_macro_f1
        },
        per_label={
            key: _mean_std([r.per_label_f1[key] for r in reports])
            for key in first.per_label_f1
        },
        mean_support={
            key: sum(r.support[key] for r in reports) / len(reports)
            for key in first.support
        },
        n_seeds=len(reports),
        degenerate=len(reports) == 1,
    )


def harmonize_reports(
    reports: Sequence[MetricsReport],
) -> tuple[list[MetricsReport], list[tuple[Dimension, str]]]:
    """Restrict per-label maps to keys present in every report.

    Tiny test splits can miss a rare label entirely for one seed, which
    makes strict aggregation refuse the reports. This keeps the shared
    per-label keys and returns the dropped ones so callers can warn.
    """
    if not reports:
        raise EmptyInput("no reports to harmonize")
    shared = set(reports[0].per_label_f1)
    union = set(reports[0].per_label_f1)
    for report in reports[1:]:
        shared &= set(report.per_label_f1)
        union |= set(report.per_label_f1)
    dropped = sorted(union - shared, key=lambda k: (k[0].value, k[1]))
    trimmed = [
        MetricsReport(
            per_label_f1={k: r.per_label_f1[k] for k in shared},
            per_category_macro_f1=dict(r.per_category_macro_f1),
            overall_macro_f1=r.overall_macro_f1,
            support={k: r.support[k] for k in shared},
        )
        for r in reports
    ]
    return trimmed, dropped


def format_mean_std(stat: MeanStd) -> str:
    """Render a fraction as a percent pair such as ``79.4±2.5``."""
    return f"{100.0 * stat.mean:.1f}±{100.0 * stat.std:.1f}"


DIMENSION_TITLES = {
    Dimension.MAIN_CATEGORY: "Main Category",
    Dimension.TIME: "Time",
    Dimension.REFERENT: "Referent",
    Dimension.DURATION: "Duration",
    Dimension.VALIDITY: "Validity",
    Dimension.INVALIDITY_REASON: "Invalidity Reason",
    Dimension.FOLLOWUP: "Followup",
}


def render_aggregate(
    agg: SeedAggregate,
    dropped_labels: Optional[Sequence[tuple[Dimension, str]]] = None,
) -> str:
    """Human-readable tables followed by machine-readable key=value lines."""
    lines = ["category-level macro F1 (mean±std over seeds, %)", ""]
    width = max(len(t) for t in DIMENSION_TITLES.values()) + 2
    for dim in DIMENSIONS:
        lines.append(f"{DIMENSION_TITLES[dim]:<{width}}{format_mean_std(agg.per_category[dim])}")
    lines.append(f"{'Overall':<{width}}{format_mean_std(agg.overall)}")
    lines += ["", "per-label F1 (mean±std over seeds, %)", ""]
    for (dim, label), stat in sorted(
        agg.per_label.items(), key=lambda kv: (kv[0][0].value, kv[0][1])
    ):
        title = f"{DIMENSION_TITLES[dim]} / {label}"
        support = agg.mean_support.get((dim, label), 0.0)
        lines.append(f"{title:<36}{format_mean_std(stat):>12}  support={support:.1f}")
    if dropped_labels:
        lines.append("")
        for dim, label in dropped_labels:
            lines.append(
                f"note: {DIMENSION_TITLES[dim]} / {label} missing from some seeds; "
                "omitted from per-label aggregation"
            )
    lines += ["", f"n_seeds={agg.n_seeds}", f"degenerate={str(agg.degenerate).lower()}"]
    lines.append(f"overall_macro_f1.mean={agg.overall.mean:.6f}")
    lines.append(f"overall_macro_f1.std={agg.overall.std:.6f}")
    for dim in DIMENSIONS:
        stat = agg.per_category[dim]
        lines.append(f"per_category.{dim.value}.mean={stat.mean:.6f}")
        lines.append(f"per_category.{dim.value}.std={stat.std:.6f}")
    return "\n".join(lines) + "\n"
