"""Inter-annotator agreement: percent, Cohen's kappa, Fleiss' kappa,
Krippendorff's alpha (nominal), and Landis-Koch interpretation bands.

A :class:`RatingsTable` holds one label per (unit, rater) cell, with ``None``
for missing ratings. At construction it codes its cells once into one integer
(units x labels) count matrix; every table statistic is a closed form over
that matrix, with float terms summed by ``math.fsum``, so results depend on
neither the order labels first appear in nor ``PYTHONHASHSEED``. Missingness
is tolerated only where the statistic handles it natively: percent agreement
scores each unit over its non-missing pairs, and Krippendorff's alpha drops
units with fewer than two non-missing ratings from the coincidence matrix.
Fleiss' kappa requires complete tables.

Degenerate chance agreement (expected agreement 1, or zero expected
disagreement) returns the limit value instead of dividing by zero: 1.0 under
perfect observed agreement, otherwise 0.0. Single-label validation subsets
then report 1.0 rather than crashing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .errors import (
    EmptyInput,
    LengthMismatch,
    MissingRatings,
    NoComparableUnits,
    OutOfRange,
)
from .metrics import _hashable_codes, _mean_std


@dataclass
class RatingsTable:
    """N units rated by R raters; ``None`` marks a missing rating.

    ``counts[u, c]`` is how many raters gave unit u the label coded c; codes
    follow first appearance in row-major order.
    """

    values: list[list[Optional[str]]]
    counts: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.values:
            raise EmptyInput("ratings table has no units")
        widths = {len(row) for row in self.values}
        if len(widths) != 1:
            raise LengthMismatch("all units must have one cell per rater")
        if self.n_raters < 2:
            raise ValueError("need at least two raters")
        code_of: dict[str, int] = {}
        cells = [
            (unit, code_of.setdefault(cell, len(code_of)))
            for unit, row in enumerate(self.values)
            for cell in row
            if cell is not None
        ]
        units, codes = np.array(cells, dtype=np.int64).reshape(-1, 2).T
        n_labels = len(code_of)
        self.counts = np.bincount(
            units * n_labels + codes, minlength=self.n_units * n_labels
        ).reshape(self.n_units, n_labels)
        if not self.counts.any(axis=1).all():
            raise ValueError("every unit needs at least one rating")

    @property
    def n_units(self) -> int:
        return len(self.values)

    @property
    def n_raters(self) -> int:
        return len(self.values[0])

    def is_complete(self) -> bool:
        return bool((self.counts.sum(axis=1) == self.n_raters).all())


def _comparable_counts(table: RatingsTable) -> np.ndarray:
    rows = table.counts[table.counts.sum(axis=1) >= 2]
    if not len(rows):
        raise NoComparableUnits("no unit carries two or more ratings")
    return rows


def _chance_corrected(observed: float, expected: float) -> float:
    if expected == 1.0:
        return 1.0 if observed == 1.0 else 0.0
    return (observed - expected) / (1.0 - expected)


def percent_agreement(table: RatingsTable) -> float:
    """Mean over units of (agreeing pairs / total pairs) among ratings."""
    counts = _comparable_counts(table)
    m = counts.sum(axis=1)
    unit_scores = (counts * (counts - 1)).sum(axis=1) / (m * (m - 1))
    return math.fsum(unit_scores.tolist()) / len(unit_scores)


def cohen_kappa(a: Sequence[str], b: Sequence[str]) -> float:
    """Chance-corrected pairwise agreement between two complete raters."""
    labels, codes_a, codes_b = _hashable_codes(a, b)
    n, k = len(codes_a), len(labels)
    if not n:
        raise EmptyInput("cannot compute kappa over zero items")
    confusion = np.bincount((codes_a * k + codes_b).ravel(), minlength=k * k)
    confusion = confusion.reshape(k, k)
    expected = int(confusion.sum(axis=1) @ confusion.sum(axis=0))
    return _chance_corrected(int(np.trace(confusion)) / n, expected / (n * n))


def fleiss_kappa(table: RatingsTable) -> float:
    """Multi-rater chance-corrected agreement over a complete table."""
    if not table.is_complete():
        raise MissingRatings("Fleiss' kappa needs a rating from every rater")
    counts = table.counts
    total = table.n_units * table.n_raters
    agreeing = int((counts * counts).sum()) - total
    pooled = counts.sum(axis=0)
    return _chance_corrected(
        agreeing / (total * (table.n_raters - 1)),
        int(pooled @ pooled) / (total * total),
    )


def krippendorff_alpha_nominal(table: RatingsTable) -> float:
    """Coincidence-matrix alpha with the nominal (0/1) distance.

    Units with fewer than two non-missing ratings are excluded. A remaining
    unit with m ratings, n_c of them label c, adds (m^2 - sum n_c^2)/(m - 1)
    disagreeing coincidences; label c's marginal is the sum of its n_c.
    """
    counts = _comparable_counts(table)
    m = counts.sum(axis=1)
    disagreeing = (m * m - (counts * counts).sum(axis=1)) / (m - 1)
    marginals = counts.sum(axis=0)
    n_total = int(marginals.sum())
    observed_disagreement = math.fsum(disagreeing.tolist()) / n_total
    expected_disagreement = (n_total * n_total - int(marginals @ marginals)) / (
        n_total * (n_total - 1.0)
    )
    if expected_disagreement == 0.0:
        return 1.0 if observed_disagreement == 0.0 else 0.0
    return 1.0 - observed_disagreement / expected_disagreement


LANDIS_KOCH_BANDS = (
    (0.20, "Slight"),
    (0.40, "Fair"),
    (0.60, "Moderate"),
    (0.80, "Substantial"),
    (1.00, "Almost Perfect"),
)


def landis_koch(value: float) -> str:
    """Interpretation band for a kappa-type statistic in [-1, 1].

    The value is rounded to three decimals first; band boundaries are
    inclusive upward, so 0.600 reads Moderate and 0.601 Substantial.
    """
    if not -1.0 <= value <= 1.0:
        raise OutOfRange(f"agreement statistic {value} outside [-1, 1]")
    rounded = round(value, 3)
    if rounded < 0.0:
        return "Poor"
    for upper, band in LANDIS_KOCH_BANDS:
        if rounded <= upper:
            return band
    return "Almost Perfect"


@dataclass(frozen=True)
class AgreementReport:
    """One dimension's agreement statistics plus the interpretation band."""

    percent: float
    cohen: Optional[float]
    fleiss: Optional[float]
    kripp_alpha: float
    interpretation: str
    n_units: int


def compute_agreement(table: RatingsTable) -> AgreementReport:
    """All applicable statistics for one table.

    Cohen's kappa is reported for exactly two raters, Fleiss' kappa for
    complete tables; the interpretation band follows the kappa statistic
    (Fleiss when there are more than two raters, Cohen otherwise).
    """
    cohen = None
    if table.n_raters == 2 and table.is_complete():
        cohen = cohen_kappa(
            [row[0] for row in table.values], [row[1] for row in table.values]
        )
    fleiss = fleiss_kappa(table) if table.is_complete() else None
    kappa_for_band = fleiss if table.n_raters > 2 else cohen
    if kappa_for_band is None:
        kappa_for_band = fleiss if fleiss is not None else 0.0
    return AgreementReport(
        percent=percent_agreement(table),
        cohen=cohen,
        fleiss=fleiss,
        kripp_alpha=krippendorff_alpha_nominal(table),
        interpretation=landis_koch(kappa_for_band),
        n_units=table.n_units,
    )


def average_report(reports: Sequence[AgreementReport]) -> AgreementReport:
    """Cross-dimension average row: the fsum mean of each statistic the reports give."""
    if not reports:
        raise EmptyInput("no reports to average")

    def mean_of(values: list[Optional[float]]) -> Optional[float]:
        present = [v for v in values if v is not None]
        return _mean_std(present).mean if present else None

    fleiss = mean_of([r.fleiss for r in reports])
    cohen = mean_of([r.cohen for r in reports])
    kappa = fleiss if fleiss is not None else (cohen if cohen is not None else 0.0)
    return AgreementReport(
        percent=mean_of([r.percent for r in reports]),
        cohen=cohen,
        fleiss=fleiss,
        kripp_alpha=mean_of([r.kripp_alpha for r in reports]),
        interpretation=landis_koch(kappa),
        n_units=0,
    )
