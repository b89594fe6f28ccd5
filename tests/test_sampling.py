import itertools

import numpy as np
import pytest

from factkit import sampling
from factkit.errors import AlignmentError, KTooLarge
from factkit.sampling import (
    _CHUNK,
    _SUM_ROWS,
    KMeansModel,
    _assign,
    _cluster_sums,
    _kmeans_plus_plus,
    cluster_sample,
    kmeans_fit,
    recompute_inertia,
)
from factkit.taxonomy import FactRecord

from synth import synthetic_dataset


def blobs(seed=0, centers=((0.0, 0.0), (5.0, 5.0)), per=5, spread=0.1):
    rng = np.random.default_rng(seed)
    parts = [rng.normal(c, spread, size=(per, 2)) for c in centers]
    return np.vstack(parts)


def test_k_equals_n_gives_zero_inertia():
    rng = np.random.default_rng(1)
    points = rng.normal(size=(8, 3))
    model = kmeans_fit(points, k=8, seed=4)
    assert model.inertia == pytest.approx(0.0, abs=1e-12)
    assert sorted(model.assignments.tolist()) == sorted(range(8))


def test_two_blobs_match_bruteforce_partition():
    points = blobs(seed=2)
    model = kmeans_fit(points, k=2, seed=3)

    # brute-force oracle: best of all 2-partitions by summed squared distance
    best_cost, best_assignment = None, None
    n = len(points)
    for bits in itertools.product([0, 1], repeat=n):
        if len(set(bits)) < 2:
            continue
        cost = 0.0
        for side in (0, 1):
            members = points[[i for i in range(n) if bits[i] == side]]
            centroid = members.mean(axis=0)
            cost += ((members - centroid) ** 2).sum()
        if best_cost is None or cost < best_cost:
            best_cost, best_assignment = cost, bits

    # same partition up to cluster relabeling
    ours = model.assignments.tolist()
    oracle = list(best_assignment)
    groups_ours = [frozenset(i for i, c in enumerate(ours) if c == v) for v in set(ours)]
    groups_oracle = [frozenset(i for i, c in enumerate(oracle) if c == v) for v in set(oracle)]
    assert set(groups_ours) == set(groups_oracle)
    assert model.inertia == pytest.approx(best_cost, rel=1e-9)

    # centroids are the blob means
    for cluster in (0, 1):
        members = points[model.assignments == cluster]
        assert np.allclose(model.centroids[cluster], members.mean(axis=0), atol=1e-9)


def subtraction_seeding(points, k, rng):
    """k-means++ as first written: exact squared differences, drawn by Generator.choice."""
    n = points.shape[0]
    chosen = np.empty(k, dtype=np.int64)
    chosen[0] = rng.integers(n)
    d2 = np.sum((points - points[chosen[0]]) ** 2, axis=1)
    for i in range(1, k):
        total = d2.sum()
        if total > 0.0:
            chosen[i] = rng.choice(n, p=d2 / total)
        else:
            chosen[i] = rng.integers(n)
        d2 = np.minimum(d2, np.sum((points - points[chosen[i]]) ** 2, axis=1))
    return points[chosen].copy()


@pytest.mark.parametrize("seed", range(5))
def test_seeding_matches_subtraction_reference(seed):
    _, emb = synthetic_dataset(n_facts=400, invalid_count=120, seed=seed)
    points = emb.rows / np.linalg.norm(emb.rows, axis=1, keepdims=True)
    rng = np.random.default_rng(seed)
    copies = rng.choice(len(points), size=len(points) // 20, replace=False)
    points[copies] = points[rng.choice(len(points), size=copies.size)]  # 5% exact duplicates
    for k in (1, 25, 150):
        expected = subtraction_seeding(points, k, np.random.default_rng([seed, k]))
        x_sq = np.einsum("ij,ij->i", points, points)
        got = _kmeans_plus_plus(points, k, np.random.default_rng([seed, k]), x_sq)
        assert np.array_equal(got, expected)


def expression_assign(points, centroids):
    """Assignment as first written: each block's distances in one expression with temporaries."""
    n = points.shape[0]
    assignments = np.empty(n, dtype=np.int64)
    best = np.empty(n, dtype=np.float64)
    c_sq = np.einsum("ij,ij->i", centroids, centroids)
    for start in range(0, n, _CHUNK):
        block = points[start : start + _CHUNK]
        d2 = (
            np.einsum("ij,ij->i", block, block)[:, None]
            - 2.0 * block @ centroids.T
            + c_sq[None, :]
        )
        np.maximum(d2, 0.0, out=d2)
        assignments[start : start + _CHUNK] = np.argmin(d2, axis=1)
        best[start : start + _CHUNK] = np.take_along_axis(
            d2, assignments[start : start + _CHUNK, None], axis=1
        )[:, 0]
    return assignments, best


@pytest.mark.parametrize("n, d, k", [(1, 3, 1), (50, 8, 7), (_CHUNK + 37, 4, 5)])
@pytest.mark.parametrize("seed", range(3))
def test_assign_matches_expression_reference_bitwise(n, d, k, seed):
    rng = np.random.default_rng([seed, n, d, k])
    points = rng.normal(size=(n, d))
    centroids = points[rng.choice(n, size=k, replace=False)].copy()
    if k > 1:
        # near ties: midpoints of two centroids, a few ulps off to either side
        mid = (centroids[0] + centroids[1]) / 2.0
        nudges = rng.integers(-3, 4, size=(min(n, 20), 1)) * np.spacing(np.abs(mid).max())
        points[: len(nudges)] = mid + nudges * (centroids[1] - centroids[0])
    x_sq = np.einsum("ij,ij->i", points, points)
    got = _assign(points, centroids, x_sq)
    expected = expression_assign(points, centroids)
    assert np.array_equal(got[0], expected[0])
    assert got[1].tobytes() == expected[1].tobytes()


def add_at_sums(points, assignments, k):
    """Cluster sums as first written: ``np.add.at`` adds the points one by one."""
    sums = np.zeros((k, points.shape[1]))
    np.add.at(sums, assignments, points)
    return sums


@pytest.mark.parametrize(
    "n, d, k, layout",
    [
        (5000, 1, 7, "random"),
        (5000, 2, 7, "random"),
        (3 * _SUM_ROWS + 5, 1, 4, "one-cluster"),
        (3 * _SUM_ROWS + 5, 2, 4, "one-cluster"),
        (3 * _SUM_ROWS + 5, 33, 1, "one-cluster"),
        (2000, 2, 9, "duplicates"),
        (2000, 64, 9, "duplicates"),
        (2000, 3, 12, "empty-clusters"),
        (2000, 1, 12, "negative-zeros"),
        (2000, 5, 12, "negative-zeros"),
    ],
)
def test_cluster_sums_match_add_at_bitwise(n, d, k, layout):
    rng = np.random.default_rng([n, d, k])
    # magnitudes 1e8 apart, so any change in the order of additions shows in the bits
    points = rng.normal(size=(n, d)) * rng.choice([1e-8, 1.0, 1e8], size=(n, d))
    assignments = rng.integers(0, k, n)
    if layout == "one-cluster":
        assignments[:] = k - 1
    elif layout == "duplicates":
        points = points[rng.integers(0, 50, n)]
    elif layout == "empty-clusters":
        assignments[assignments % 3 == 0] = 1
    elif layout == "negative-zeros":  # add.at starts at +0.0: a cluster of -0.0 rows sums to +0.0
        points[rng.random((n, d)) < 0.5] = -0.0
        assignments[rng.random(n) < 0.5] = 0
        points[assignments == 0] = -0.0
    counts = np.bincount(assignments, minlength=k)
    sums = _cluster_sums(points, assignments, counts)
    assert sums.tobytes() == add_at_sums(points, assignments, k).tobytes()


def test_fixed_seed_is_bitwise_deterministic():
    points = blobs(seed=5, per=20)
    a = kmeans_fit(points, k=4, seed=11)
    b = kmeans_fit(points, k=4, seed=11)
    assert np.array_equal(a.centroids, b.centroids)
    assert np.array_equal(a.assignments, b.assignments)
    assert a.inertia == b.inertia
    assert a.inertia_history == b.inertia_history


def test_inertia_history_non_increasing_random_datasets():
    for trial in range(25):
        rng = np.random.default_rng(trial)
        points = rng.normal(size=(rng.integers(10, 50), rng.integers(2, 6)))
        k = int(rng.integers(2, min(8, len(points))))
        model = kmeans_fit(points, k=k, seed=trial)
        history = model.inertia_history
        assert all(a >= b - 1e-9 for a, b in zip(history, history[1:]))


def test_inertia_matches_recomputation():
    points = blobs(seed=8, per=15)
    model = kmeans_fit(points, k=3, seed=9)
    assert model.inertia == pytest.approx(recompute_inertia(points, model), rel=1e-9)


def test_k_too_large():
    with pytest.raises(KTooLarge):
        kmeans_fit(np.zeros((3, 2)), k=4, seed=0)


def test_k_and_cap_must_be_positive():
    with pytest.raises(ValueError, match="k must be positive"):
        kmeans_fit(np.zeros((3, 2)), k=0, seed=0)
    with pytest.raises(ValueError, match="cap must be positive"):
        cluster_sample(facts_of(2), model_with_assignments([0, 1], k=2), cap=0, seed=0)


def test_degenerate_identical_points():
    points = np.ones((6, 2))
    model = kmeans_fit(points, k=3, seed=0)
    assert model.inertia == pytest.approx(0.0, abs=1e-12)
    assert model.centroids.shape == (3, 2)
    assert np.allclose(model.centroids, 1.0)


def test_an_emptied_cluster_is_reseeded_at_the_farthest_point(monkeypatch):
    # with seed 0, Lloyd's second assignment leaves cluster 1 without a point
    points = np.array([[6, 0], [7, 1], [7, 4], [2, 3], [0, 4], [5, 9]], dtype=np.float64)
    calls = []

    def recording(points, centroids, x_sq):
        assignments, best = _assign(points, centroids, x_sq)
        calls.append((centroids.copy(), assignments, best))
        return assignments, best

    monkeypatch.setattr(sampling, "_assign", recording)
    model = kmeans_fit(points, k=4, seed=0)
    _, assignments, best = calls[1]
    assert np.bincount(assignments, minlength=4)[1] == 0
    assert int(np.argmax(best)) == 4 and np.sum(best == best.max()) == 1
    # the next assignment sees cluster 1's centroid on that point, which it then keeps
    assert calls[2][0][1].tolist() == points[4].tolist()
    assert model.centroids[1].tolist() == points[4].tolist()
    assert np.all(np.bincount(model.assignments, minlength=4) > 0)


# --- cluster sampling ---


def facts_of(n):
    return [FactRecord(id=f"f{i}", text=f"text {i}") for i in range(n)]


def model_with_assignments(assignments, k):
    assignments = np.asarray(assignments)
    return KMeansModel(
        k=k,
        centroids=np.zeros((k, 2)),
        assignments=assignments,
        inertia=0.0,
        inertia_history=(0.0,),
        n_iter=1,
    )


def test_cluster_sample_cap_arithmetic():
    # cluster sizes 5, 2, 0
    model = model_with_assignments([0, 0, 0, 0, 0, 1, 1], k=3)
    sampled = cluster_sample(facts_of(7), model, cap=3, seed=1)
    assert len(sampled) == 5  # 3 + 2 + 0


def test_cluster_sample_noop_when_under_cap():
    model = model_with_assignments([0, 1, 1, 2], k=3)
    facts = facts_of(4)
    sampled = cluster_sample(facts, model, cap=3, seed=1)
    assert {f.id for f in sampled} == {f.id for f in facts}


def test_cluster_sample_sorted_by_cluster_then_index():
    model = model_with_assignments([2, 0, 1, 0, 2, 1], k=3)
    sampled = cluster_sample(facts_of(6), model, cap=3, seed=5)
    order = [f.id for f in sampled]
    assert order == ["f1", "f3", "f2", "f5", "f0", "f4"]


def test_cluster_sample_deterministic():
    model = model_with_assignments([0] * 10 + [1] * 10, k=2)
    facts = facts_of(20)
    a = cluster_sample(facts, model, cap=3, seed=42)
    b = cluster_sample(facts, model, cap=3, seed=42)
    assert [f.id for f in a] == [f.id for f in b]
    c = cluster_sample(facts, model, cap=3, seed=43)
    assert [f.id for f in a] != [f.id for f in c]


def test_cluster_sample_output_size_formula():
    rng = np.random.default_rng(17)
    assignments = rng.integers(0, 7, size=60)
    model = model_with_assignments(assignments, k=7)
    for cap in (1, 2, 3, 5):
        sampled = cluster_sample(facts_of(60), model, cap=cap, seed=2)
        expected = sum(
            min(cap, int((assignments == c).sum())) for c in range(7)
        )
        assert len(sampled) == expected


def test_cluster_sample_alignment_error():
    model = model_with_assignments([0, 1], k=2)
    with pytest.raises(AlignmentError):
        cluster_sample(facts_of(3), model, cap=3, seed=0)


def test_cluster_sample_draws_without_replacement():
    model = model_with_assignments([0] * 8, k=1)
    sampled = cluster_sample(facts_of(8), model, cap=5, seed=9)
    assert len(sampled) == 5
    assert len({f.id for f in sampled}) == 5
