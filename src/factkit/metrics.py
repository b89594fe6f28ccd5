"""F1 scoring at per-label, per-category, and pooled-overall granularity.

Labels arrive as (N, 7) int64 code arrays (:func:`taxonomy.label_codes`),
column c indexing ``LABEL_SPACE[DIMENSIONS[c]]``. Every score comes from one
``np.bincount`` confusion count over ``dim_offset + code`` pairs: support is
its row sums, predicted counts its column sums, hits its diagonal, and
precision, recall and F1 are read off those as per-label arrays. Report
titles come from the dimension names (``main_category`` → ``Main Category``).

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
_LABEL_KEYS = [(dim, label) for dim in DIMENSIONS for label in LABEL_SPACE[dim]]


def _f1_count(
    gold: np.ndarray, pred: np.ndarray, sizes: Sequence[int]
) -> tuple[np.ndarray, np.ndarray, np.ndarray, list[Optional[float]], float]:
    """Per-label F1, support and scored mask; per-column and pooled macro F1.

    ``gold`` and ``pred`` are (N, C) code arrays; column c holds codes in
    ``range(sizes[c])``. A negative gold code (a masked target) drops that
    cell from the count. Per-label arrays hold column 0's codes, then column
    1's, and so on; a label is scored if seen in gold or predictions, and a
    column with no scored label has macro F1 ``None``.
    """
    gold = np.asarray(gold, dtype=np.int64)
    pred = np.asarray(pred, dtype=np.int64)
    if gold.shape != pred.shape or gold.shape[1:] != (len(sizes),):
        raise LengthMismatch(f"gold codes {gold.shape} vs predictions {pred.shape}")
    keep = gold >= 0
    if np.any(gold >= sizes) or np.any(keep & ((pred < 0) | (pred >= sizes))):
        raise LabelOutOfRange("label code outside its column's label space")
    bounds = np.cumsum([0, *sizes], dtype=np.int64)
    flat_gold = (gold + bounds[:-1])[keep]
    flat_pred = (pred + bounds[:-1])[keep]
    if flat_gold.size == 0:
        raise EmptyInput("F1 of an empty evaluation is undefined")
    total = int(bounds[-1])
    confusion = np.bincount(flat_gold * total + flat_pred, minlength=total * total)
    confusion = confusion.reshape(total, total)
    support, predicted = confusion.sum(axis=1), confusion.sum(axis=0)
    hits = confusion.diagonal()
    scored = (support > 0) | (predicted > 0)
    precision = np.divide(hits, predicted, out=np.zeros(total), where=predicted > 0)
    recall = np.divide(hits, support, out=np.zeros(total), where=support > 0)
    both = precision + recall
    f1 = np.divide(2.0 * precision * recall, both, out=np.zeros(total), where=both > 0.0)
    per_column: list[Optional[float]] = []
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        column_f1 = f1[lo:hi][scored[lo:hi]].tolist()
        per_column.append(math.fsum(column_f1) / len(column_f1) if column_f1 else None)
    pooled = math.fsum(f1[scored].tolist()) / int(scored.sum())
    return f1, support, scored, per_column, pooled


def _hashable_codes(
    gold: Sequence[Hashable], pred: Sequence[Hashable]
) -> tuple[list[Hashable], np.ndarray, np.ndarray]:
    """Labels in first-seen order and (N, 1) gold and predicted code arrays."""
    if len(gold) != len(pred):
        raise LengthMismatch(f"{len(gold)} gold items vs {len(pred)} predictions")
    code_of: dict[Hashable, int] = {}
    codes = np.array([code_of.setdefault(v, len(code_of)) for v in (*gold, *pred)], dtype=np.int64)
    return list(code_of), codes[: len(gold), None], codes[len(gold) :, None]


def macro_f1(gold: Sequence[Hashable], pred: Sequence[Hashable]) -> float:
    """Unweighted mean of per-label F1 over the evaluation's label universe."""
    labels, gold_codes, pred_codes = _hashable_codes(gold, pred)
    return _f1_count(gold_codes, pred_codes, [len(labels)])[-1]


def pooled_overall_f1(gold_sets: Sequence[LabelSet], pred_sets: Sequence[LabelSet]) -> float:
    """Macro F1 over (dimension, label) types pooled across all seven dimensions.

    Each fact contributes one pooled (gold, pred) pair per dimension; "None"
    gold labels participate like any other label.
    """
    return _f1_count(label_codes(gold_sets), label_codes(pred_sets), _LABEL_SIZES)[-1]


@dataclass(frozen=True)
class MetricsReport:
    """F1 at all three granularities for one evaluation."""

    per_label_f1: dict[tuple[Dimension, str], float]
    per_category_macro_f1: dict[Dimension, float]
    overall_macro_f1: float
    support: dict[tuple[Dimension, str], int]


def evaluate_labelsets(gold: np.ndarray, pred: np.ndarray) -> MetricsReport:
    """Full report for (N, 7) predicted label codes against gold ones."""
    f1, support, scored, per_column, pooled = _f1_count(gold, pred, _LABEL_SIZES)
    keys = [key for key, seen in zip(_LABEL_KEYS, scored) if seen]
    return MetricsReport(
        per_label_f1=dict(zip(keys, f1[scored].tolist())),
        per_category_macro_f1=dict(zip(DIMENSIONS, per_column)),
        overall_macro_f1=pooled,
        support=dict(zip(keys, support[scored].tolist())),
    )


@dataclass(frozen=True)
class MeanStd:
    mean: float
    std: float


@dataclass(frozen=True)
class SeedAggregate:
    """Mean and sample std of every metric across seed reports.

    ``per_label`` and ``mean_support`` cover the labels every report scored;
    ``dropped`` lists the labels some report missed, sorted by dimension name
    and label.
    """

    overall: MeanStd
    per_category: dict[Dimension, MeanStd]
    per_label: dict[tuple[Dimension, str], MeanStd]
    mean_support: dict[tuple[Dimension, str], float]
    n_seeds: int
    degenerate: bool  # single report: std is 0 by convention
    dropped: tuple[tuple[Dimension, str], ...]


def _mean_std(values: Sequence[float]) -> MeanStd:
    # fsum keeps the result independent of summation order
    n = len(values)
    mean = math.fsum(values) / n
    if n == 1:
        return MeanStd(mean, 0.0)
    var = math.fsum((v - mean) ** 2 for v in values) / (n - 1)
    return MeanStd(mean, math.sqrt(var))


def _by_name(key: tuple[Dimension, str]) -> tuple[str, str]:
    return key[0].value, key[1]


def aggregate_seeds(reports: Sequence[MetricsReport]) -> SeedAggregate:
    """Aggregate per-seed reports that share one dimension set.

    A small test split can miss a rare label for some seed, so per-label
    statistics cover only the labels that every report scored; the others
    go to ``dropped``.
    """
    if not reports:
        raise EmptyInput("no reports to aggregate")
    first = reports[0]
    for report in reports[1:]:
        if set(report.per_category_macro_f1) != set(first.per_category_macro_f1):
            raise SchemaMismatch("reports disagree on the dimension set")
    shared = [key for key in first.per_label_f1 if all(key in r.per_label_f1 for r in reports)]
    scored = {key for report in reports for key in report.per_label_f1}
    return SeedAggregate(
        overall=_mean_std([r.overall_macro_f1 for r in reports]),
        per_category={
            dim: _mean_std([r.per_category_macro_f1[dim] for r in reports])
            for dim in first.per_category_macro_f1
        },
        per_label={key: _mean_std([r.per_label_f1[key] for r in reports]) for key in shared},
        mean_support={key: sum(r.support[key] for r in reports) / len(reports) for key in shared},
        n_seeds=len(reports),
        degenerate=len(reports) == 1,
        dropped=tuple(sorted(scored.difference(shared), key=_by_name)),
    )


def format_mean_std(stat: MeanStd) -> str:
    """Render a fraction as a percent pair such as ``79.4±2.5``."""
    return f"{100.0 * stat.mean:.1f}±{100.0 * stat.std:.1f}"


def render_aggregate(agg: SeedAggregate) -> str:
    """Human-readable tables, a ``note:`` line per dropped label, then key=value lines."""
    lines = ["category-level macro F1 (mean±std over seeds, %)", ""]
    titles = {dim: dim.value.replace("_", " ").title() for dim in DIMENSIONS}
    width = max(map(len, titles.values())) + 2
    for dim in DIMENSIONS:
        lines.append(f"{titles[dim]:<{width}}{format_mean_std(agg.per_category[dim])}")
    lines.append(f"{'Overall':<{width}}{format_mean_std(agg.overall)}")
    lines += ["", "per-label F1 (mean±std over seeds, %)", ""]
    for dim, label in sorted(agg.per_label, key=_by_name):
        title = f"{titles[dim]} / {label}"
        stat, support = agg.per_label[dim, label], agg.mean_support[dim, label]
        lines.append(f"{title:<36}{format_mean_std(stat):>12}  support={support:.1f}")
    if agg.dropped:
        lines.append("")
        for dim, label in agg.dropped:
            lines.append(
                f"note: {titles[dim]} / {label} missing from some seeds; "
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
