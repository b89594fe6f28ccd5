"""Corpus-level label distributions from an ensemble of seed models.

Each trained seed model labels the whole corpus; per (dimension, label) the
report carries the share of facts assigned that label and the model's mean
confidence among those facts, both as mean and sample std across seeds.
Invalidity-reason predictions are reported exactly as the heads produce
them, without reconciling against the validity head.

A seed's prediction table is the ``(codes, confidences)`` pair that
:func:`model.predict` returns: two (N, 7) arrays, columns in ``DIMENSIONS``
order, codes indexing ``LABEL_SPACE``. Per dimension, one ``np.bincount``
counts each label's facts and one weighted by confidence sums their
confidences.

Seed models are taken one at a time: each predicts over the whole corpus
and is dropped before the next one is loaded, so memory holds one model
and the small tables whatever the number of seeds.

The leakage audit recomputes the distribution with facts that also occur in
the training set (by exact trimmed text match) held out and reports the
largest per-cell share shift in percentage points.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

import numpy as np

from .embeddings import EmbeddingMatrix
from .errors import EmptyTables, SchemaMismatch
from .metrics import MeanStd, _mean_std
from .model import MultiHeadModel, predict
from .taxonomy import DIMENSIONS, LABEL_SPACE, Dimension, FactRecord

PredictionTable = tuple[np.ndarray, np.ndarray]  # (codes, confidences), both (N, 7)


def predict_corpus(
    models: Iterable[MultiHeadModel], embeddings: EmbeddingMatrix
) -> list[PredictionTable]:
    """One prediction table per seed model over the same corpus.

    ``models`` is consumed lazily and each model is dropped once it has
    predicted, so a generator that loads checkpoints keeps one model alive
    at a time. :func:`model.predict` refuses a model whose input dimension
    differs from the corpus's with :class:`DimensionMismatch`, wherever that
    model stands; no models at all raise :class:`EmptyTables`.
    """
    tables: list[PredictionTable] = []
    for model in models:
        tables.append(predict(model, embeddings))
        del model  # else it stays bound while the iterator loads the next one
    if not tables:
        raise EmptyTables("no models given")
    return tables


@dataclass(frozen=True)
class DistributionCell:
    share: MeanStd  # percent of facts assigned the label
    confidence: Optional[MeanStd]  # mean max-softmax among those facts, percent


@dataclass(frozen=True)
class DistributionReport:
    cells: dict[tuple[Dimension, str], DistributionCell]
    n_facts: int
    n_seeds: int


def aggregate_distribution(tables: Sequence[PredictionTable]) -> DistributionReport:
    """Mean and std of per-label shares and confidences across seed tables."""
    if not tables or not len(tables[0][0]):
        raise EmptyTables("no predictions to aggregate")
    n_facts = len(tables[0][0])
    if any(len(codes) != n_facts for codes, _ in tables):
        raise SchemaMismatch("seed tables cover different numbers of facts")
    cells: dict[tuple[Dimension, str], DistributionCell] = {}
    for c, dim in enumerate(DIMENSIONS):
        size = len(LABEL_SPACE[dim])
        counts = [np.bincount(codes[:, c], minlength=size).tolist() for codes, _ in tables]
        # bincount adds the weights in row order, as a running sum would
        conf_sums = [
            np.bincount(codes[:, c], weights=conf[:, c], minlength=size).tolist()
            for codes, conf in tables
        ]
        for code, label in enumerate(LABEL_SPACE[dim]):
            shares = [100.0 * count[code] / n_facts for count in counts]
            confidences = [
                100.0 * total[code] / count[code]
                for count, total in zip(counts, conf_sums)
                if count[code]
            ]
            cells[(dim, label)] = DistributionCell(
                share=_mean_std(shares),
                confidence=_mean_std(confidences) if confidences else None,
            )
    return DistributionReport(cells=cells, n_facts=n_facts, n_seeds=len(tables))


@dataclass(frozen=True)
class LeakageAudit:
    overlap_count: int
    overlap_fraction: float
    shifts: Optional[dict[tuple[Dimension, str], float]]  # percentage points
    max_shift: Optional[float]
    held_out_empty: bool
    held_out_report: Optional[DistributionReport]


def leakage_audit(
    train_facts: Sequence[FactRecord],
    corpus: Sequence[FactRecord],
    tables: Sequence[PredictionTable],
) -> LeakageAudit:
    """Distribution shift when training-set texts are held out of the corpus.

    Overlap is exact text match after trimming. A corpus fully contained in
    the training set cannot be re-aggregated; that case comes back flagged
    (``held_out_empty``) instead of raising.
    """
    train_texts = {fact.text.strip() for fact in train_facts}
    overlapping = np.array([fact.text.strip() in train_texts for fact in corpus], dtype=bool)
    overlap_count = int(overlapping.sum())
    overlap_fraction = overlap_count / len(corpus) if corpus else 0.0
    full = aggregate_distribution(tables)
    held_out = shifts = None
    if overlap_count < len(corpus):
        held_out = aggregate_distribution(
            [(codes[~overlapping], conf[~overlapping]) for codes, conf in tables]
        )
        shifts = {
            key: abs(full.cells[key].share.mean - held_out.cells[key].share.mean)
            for key in full.cells
        }
    return LeakageAudit(
        overlap_count=overlap_count,
        overlap_fraction=overlap_fraction,
        shifts=shifts,
        max_shift=max(shifts.values()) if shifts else None,
        held_out_empty=held_out is None,
        held_out_report=held_out,
    )


def render_distribution(
    report: DistributionReport, audit: Optional[LeakageAudit] = None
) -> str:
    """Text table of shares and confidences per dimension and label."""
    lines = [
        f"corpus facts: {report.n_facts}, seed models: {report.n_seeds}",
        "",
        f"{'dimension':<20}{'label':<24}{'share %':>14}{'conf %':>14}",
    ]
    for dim in DIMENSIONS:
        for label in LABEL_SPACE[dim]:
            cell = report.cells[(dim, label)]
            share = f"{cell.share.mean:.1f}±{cell.share.std:.1f}"
            conf = (
                f"{cell.confidence.mean:.1f}±{cell.confidence.std:.1f}"
                if cell.confidence is not None
                else "-"
            )
            lines.append(f"{dim.value:<20}{label:<24}{share:>14}{conf:>14}")
    if audit is not None:
        lines.append("")
        lines.append(
            f"leakage audit: overlap_count={audit.overlap_count} "
            f"overlap_fraction={audit.overlap_fraction:.4f}"
        )
        if audit.held_out_empty:
            lines.append("leakage audit: corpus fully overlaps training set; no held-out report")
        elif audit.max_shift is not None:
            lines.append(f"leakage audit: max per-cell share shift = {audit.max_shift:.4f} pp")
    return "\n".join(lines) + "\n"
