"""Cluster-based diversity sampling: K-Means, then capped per-cluster draws.

Rare but distinct kinds of facts are easy to lose with uniform sampling, so
candidate facts are clustered over their normalized embeddings and at most a
fixed number of facts is drawn per cluster.

K-Means is Lloyd's algorithm with k-means++ seeding (single proposal per
step). Distances are squared Euclidean, which on L2-normalized rows ranks
identically to cosine distance. Clusters that empty out during an update are
re-seeded with the point currently farthest from its assigned centroid.

Seeding and assignment both expand squared distances as
``|x|^2 - 2 x.c + |c|^2``, with ``|x|^2`` computed once and the result
clamped at 0. A seeding step is therefore one matrix-vector product over the
points plus O(n) work, with no n-by-d temporary, and it draws the next seed
by inverting the cumulative sum of the squared distances at one uniform
double, as ``Generator.choice`` with probabilities would.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from .errors import AlignmentError, KTooLarge
from .prng import Xoshiro256StarStar
from .taxonomy import FactRecord
from .embeddings import EmbeddingMatrix

DEFAULT_CAP = 3
MAX_ITER = 100  # Lloyd iterations at most
TOL = 1e-4  # stop once no centroid moves this far

_CHUNK = 8192  # points per distance block, bounds peak memory
_SUM_ROWS = 1024  # points per block of a cluster's sum, bounds peak memory


@dataclass(frozen=True)
class KMeansModel:
    """Fitted centroids, per-point assignments, and the final inertia.

    ``inertia_history`` records the inertia after every assignment step; it
    is non-increasing over Lloyd iterations.
    """

    k: int
    centroids: np.ndarray
    assignments: np.ndarray
    inertia: float
    inertia_history: tuple[float, ...]
    n_iter: int


def _as_rows(data: Union[EmbeddingMatrix, np.ndarray]) -> np.ndarray:
    """The points as float64, not copied if they already are; nothing here writes to them."""
    rows = data.rows if isinstance(data, EmbeddingMatrix) else data
    return np.asarray(rows, dtype=np.float64)


def _assign(
    points: np.ndarray, centroids: np.ndarray, x_sq: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Nearest centroid per point (ties to the lowest index) and its squared distance.

    ``x_sq`` holds each point's squared norm.
    """
    n = points.shape[0]
    assignments = np.empty(n, dtype=np.int64)
    best = np.empty(n, dtype=np.float64)
    c_sq = np.einsum("ij,ij->i", centroids, centroids)
    for start in range(0, n, _CHUNK):
        rows = slice(start, start + _CHUNK)
        # Building d2 in place in the product gives the same bits without the
        # ``2.0 * block`` copy, but when commands that follow ``sample`` run in
        # the same process, glibc then kept the freed heap resident: the corpus
        # benchmark's peak RSS rose 11%.
        d2 = x_sq[rows, None] - 2.0 * points[rows] @ centroids.T + c_sq[None, :]
        np.maximum(d2, 0.0, out=d2)
        assignments[rows] = np.argmin(d2, axis=1)
        best[rows] = np.take_along_axis(d2, assignments[rows, None], axis=1)[:, 0]
    return assignments, best


def _cluster_sums(points: np.ndarray, assignments: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Each cluster's sum of its points, added in point order as ``np.add.at`` adds them.

    A stable sort groups each cluster's points in point order, and its blocks
    of at most ``_SUM_ROWS`` rows are gathered into one buffer behind a row
    holding the sum so far. Reducing over the rows then adds each column in
    sequence. A single column reduces pairwise instead, so it is summed by a
    running scan, which keeps the order.
    """
    d = points.shape[1]
    order = np.argsort(assignments, kind="stable")
    sums = np.zeros((len(counts), d))
    buffer = np.empty((_SUM_ROWS + 1, d))
    end = 0
    for cluster, count in enumerate(counts.tolist()):
        start, end = end, end + count
        for low in range(start, end, _SUM_ROWS):
            high = min(low + _SUM_ROWS, end)
            rows = buffer[: high - low + 1]
            rows[0] = sums[cluster]
            np.take(points, order[low:high], axis=0, out=rows[1:], mode="clip")
            if d == 1:
                sums[cluster] = np.cumsum(rows[:, 0])[-1]
            else:
                np.add.reduce(rows, axis=0, out=sums[cluster])
    return sums


def _kmeans_plus_plus(
    points: np.ndarray, k: int, rng: np.random.Generator, x_sq: np.ndarray
) -> np.ndarray:
    """k seed centroids drawn by k-means++; ``x_sq`` holds each point's squared norm."""
    n = points.shape[0]

    def dist_sq(i: int) -> np.ndarray:
        """Squared distance from every point to point i, expanded as in ``_assign``."""
        d2 = points @ points[i]
        d2 *= -2.0
        d2 += x_sq
        d2 += x_sq[i]
        return np.maximum(d2, 0.0, out=d2)

    chosen = np.empty(k, dtype=np.int64)
    chosen[0] = rng.integers(n)
    d2 = dist_sq(chosen[0])
    for i in range(1, k):
        cdf = np.cumsum(d2)
        total = cdf[-1]
        if total > 0.0:
            cdf /= total
            chosen[i] = cdf.searchsorted(rng.random(), side="right")
        else:
            # All remaining mass is zero (duplicate points); any point works.
            chosen[i] = rng.integers(n)
        np.minimum(d2, dist_sq(chosen[i]), out=d2)
    return points[chosen].copy()


def kmeans_fit(data: Union[EmbeddingMatrix, np.ndarray], k: int, seed: int) -> KMeansModel:
    """Fit K-Means with a fixed seed; the result is bitwise reproducible.

    Stops when the largest centroid movement falls below ``TOL`` or after
    ``MAX_ITER`` Lloyd iterations. All points being identical with ``k > 1``
    is allowed and yields duplicate centroids.
    """
    points = _as_rows(data)
    n = points.shape[0]
    if k < 1:
        raise ValueError("k must be positive")
    if k > n:
        raise KTooLarge(f"k={k} exceeds the {n} available points")

    x_sq = np.einsum("ij,ij->i", points, points)
    centroids = _kmeans_plus_plus(points, k, np.random.default_rng(seed), x_sq)
    history: list[float] = []
    n_iter = 0
    for _ in range(MAX_ITER):
        n_iter += 1
        assignments, best = _assign(points, centroids, x_sq)
        history.append(float(best.sum()))

        counts = np.bincount(assignments, minlength=k)
        sums = _cluster_sums(points, assignments, counts)
        occupied = counts > 0
        updated = centroids.copy()
        updated[occupied] = sums[occupied] / counts[occupied, None]

        empty = np.flatnonzero(~occupied)
        if empty.size:
            distances = best.copy()
            for cluster in empty:
                farthest = int(np.argmax(distances))
                updated[cluster] = points[farthest]
                distances[farthest] = -np.inf

        movement = float(np.sqrt(((updated - centroids) ** 2).sum(axis=1)).max())
        centroids = updated
        if movement < TOL:
            break

    assignments, best = _assign(points, centroids, x_sq)
    history.append(float(best.sum()))
    return KMeansModel(
        k=k,
        centroids=centroids,
        assignments=assignments,
        inertia=float(best.sum()),
        inertia_history=tuple(history),
        n_iter=n_iter,
    )


def recompute_inertia(data: Union[EmbeddingMatrix, np.ndarray], model: KMeansModel) -> float:
    """Sum of squared distances from each point to its assigned centroid."""
    points = _as_rows(data)
    deltas = points - model.centroids[model.assignments]
    return float(np.einsum("ij,ij->", deltas, deltas))


def cluster_sample(
    facts: Sequence[FactRecord],
    model: KMeansModel,
    cap: int = DEFAULT_CAP,
    seed: int = 0,
) -> list[FactRecord]:
    """Draw up to ``cap`` facts per cluster, without replacement.

    Facts must align positionally with ``model.assignments``. Clusters are
    visited in index order with one seeded xoshiro256** stream; the output
    is sorted by (cluster index, original index) so a fixed seed gives a
    fixed result.
    """
    if len(facts) != len(model.assignments):
        raise AlignmentError(
            f"{len(facts)} facts but {len(model.assignments)} assignments"
        )
    if cap < 1:
        raise ValueError("cap must be positive")
    members: dict[int, list[int]] = {}
    for index, cluster in enumerate(model.assignments):
        members.setdefault(int(cluster), []).append(index)

    rng = Xoshiro256StarStar(seed)
    picked: list[tuple[int, int]] = []
    for cluster in range(model.k):
        indices = members.get(cluster, [])
        if len(indices) <= cap:
            chosen = indices
        else:
            chosen = rng.sample_without_replacement(indices, cap)
        picked.extend((cluster, i) for i in chosen)
    picked.sort()
    return [facts[i] for _, i in picked]
