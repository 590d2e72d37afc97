"""Clustering and dedup: exactness oracles, determinism, tie-breaks."""

from __future__ import annotations

import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nova.literature import normalize
from nova.selector import (
    SelectorError,
    cluster_pool,
    kmeans,
    non_duplicate_fraction,
)
from tests.conftest import embedded_idea


def unit_rows(rows):
    return np.asarray([normalize(r) for r in rows])


# ---------------------------------------------------------------------------
# kmeans
# ---------------------------------------------------------------------------


def test_k1_centroid_is_normalized_mean():
    X = unit_rows([[1.0, 0.1], [0.9, 0.2], [1.0, -0.1]])
    result = kmeans(X, 1, seed=0)
    expected = normalize(X.mean(axis=0))
    assert np.allclose(result.centroids[0], expected, atol=1e-12)
    sims = X @ np.asarray(result.centroids[0])
    assert result.representative_ids[0] == str(int(sims.argmax()))
    assert set(result.assignments.values()) == {0}


def test_k_equals_n_each_point_own_cluster():
    rng = np.random.Generator(np.random.PCG64(1))
    X = unit_rows(rng.standard_normal((6, 4)))
    result = kmeans(X, 6, seed=3)
    assert sorted(result.assignments.values()) == list(range(6))
    assert len(set(result.representative_ids)) == 6


def test_two_blob_recovery_matches_brute_force():
    """Planted 2-blob data: enumerate all 2^6 assignments to confirm optimum."""
    blob_a = [[1.0, 0.02], [1.0, -0.02], [0.99, 0.05]]
    blob_b = [[0.02, 1.0], [-0.02, 1.0], [0.05, 0.99]]
    X = unit_rows(blob_a + blob_b)

    def wcss(labels):
        total = 0.0
        for c in (0, 1):
            members = X[[i for i, l in enumerate(labels) if l == c]]
            if len(members) == 0:
                return float("inf")
            mean = members.mean(axis=0)
            norm = np.linalg.norm(mean)
            if norm == 0:
                return float("inf")
            centroid = mean / norm
            total += float((2.0 - 2.0 * members @ centroid).sum())
        return total

    best = min(itertools.product((0, 1), repeat=6), key=wcss)
    blob_pure = {tuple([0] * 3 + [1] * 3), tuple([1] * 3 + [0] * 3)}
    assert tuple(best) in blob_pure  # the true optimum is blob-pure

    result = kmeans(X, 2, seed=7)
    labels = tuple(result.assignments[str(i)] for i in range(6))
    assert labels in blob_pure
    assert abs(wcss(labels) - wcss(best)) < 1e-12


def test_kmeans_deterministic_byte_identical():
    rng = np.random.Generator(np.random.PCG64(5))
    X = unit_rows(rng.standard_normal((40, 8)))
    results = [kmeans(X, 7, seed=123) for _ in range(10)]
    assert all(result == results[0] for result in results)
    assert kmeans(X, 7, seed=124) != results[0]


def test_inertia_history_non_increasing():
    rng = np.random.Generator(np.random.PCG64(9))
    X = unit_rows(rng.standard_normal((60, 6)))
    result = kmeans(X, 5, seed=2)
    history = result.inertia_history
    assert len(history) >= 1
    assert all(b <= a + 1e-9 for a, b in zip(history, history[1:]))


def test_k_clamped_to_vector_count():
    X = unit_rows([[1.0, 0.0], [0.0, 1.0]])
    result = kmeans(X, 100, seed=0)
    assert len(result.centroids) == 2


def test_all_clusters_nonempty_under_duplicates():
    X = unit_rows([[1.0, 0.0]] * 5 + [[0.0, 1.0]] * 5)
    result = kmeans(X, 4, seed=0)
    counts = {c: 0 for c in range(4)}
    for c in result.assignments.values():
        counts[c] += 1
    assert all(v >= 1 for v in counts.values())
    assert len(result.representative_ids) == 4


def test_kmeans_rejects_bad_inputs():
    with pytest.raises(SelectorError):
        kmeans(np.empty((0, 3)), 2, seed=0)
    with pytest.raises(SelectorError):
        kmeans(unit_rows([[1, 0]]), 0, seed=0)


# ---------------------------------------------------------------------------
# cluster_pool representatives
# ---------------------------------------------------------------------------


def _pool_from_rows(rows, **kwargs):
    return [embedded_idea(n, row, **kwargs) for n, row in enumerate(rows)]


def test_representatives_count_and_distinct():
    rng = np.random.Generator(np.random.PCG64(11))
    pool = _pool_from_rows(rng.standard_normal((30, 6)))
    reps = cluster_pool(pool, 10, seed=1).representative_ids
    assert len(reps) == 10
    assert len(set(reps)) == 10
    assert set(reps) <= {i.id for i in pool}


def test_representatives_clamped_when_pool_small():
    rng = np.random.Generator(np.random.PCG64(12))
    pool = _pool_from_rows(rng.standard_normal((4, 6)))
    reps = cluster_pool(pool, 100, seed=1).representative_ids
    assert len(reps) == 4


def test_duplicate_embedding_representative_is_earlier_id():
    shared = normalize([1.0, 0.2, 0.0])
    far = normalize([0.0, 0.0, 1.0])
    pool = _pool_from_rows([shared, shared, far])
    assert pool[0].id < pool[1].id
    rep_ids = set(cluster_pool(pool, 2, seed=5).representative_ids)
    assert pool[0].id in rep_ids  # the earlier of the two identical ideas
    assert pool[1].id not in rep_ids


def test_cluster_pool_assignment_keys_are_idea_ids():
    rng = np.random.Generator(np.random.PCG64(21))
    pool = _pool_from_rows(rng.standard_normal((8, 4)))
    assignment = cluster_pool(pool, 3, seed=2)
    assert set(assignment.assignments) == {i.id for i in pool}


# ---------------------------------------------------------------------------
# non_duplicate_fraction
# ---------------------------------------------------------------------------


def brute_force_retained(pool, threshold):
    """Independent quadratic oracle over the full similarity matrix."""
    ordered = sorted(pool, key=lambda i: i.id)
    X = np.asarray([i.embedding for i in ordered])
    sims = X @ X.T
    kept_idx: list[int] = []
    for i in range(len(ordered)):
        if all(sims[i, j] < threshold for j in kept_idx):
            kept_idx.append(i)
    return [ordered[i].id for i in kept_idx]


def test_all_distinct_fraction_one():
    pool = _pool_from_rows(np.eye(4))
    fraction, retained = non_duplicate_fraction(pool, 0.8)
    assert fraction == 1.0
    assert len(retained) == 4


def test_two_identical_of_three():
    shared = [1.0, 0.0, 0.0]
    pool = _pool_from_rows([shared, shared, [0.0, 1.0, 0.0]])
    fraction, retained = non_duplicate_fraction(pool, 0.8)
    assert fraction == pytest.approx(2 / 3)
    assert brute_force_retained(pool, 0.8) == retained


def test_single_idea_fraction_one():
    pool = _pool_from_rows([[0.3, 0.7]])
    assert non_duplicate_fraction(pool, 0.8)[0] == 1.0


def test_threshold_is_inclusive():
    a = [1.0, 0.0]
    b = [0.8, float(np.sqrt(1 - 0.64))]  # cosine exactly 0.8 with a
    pool = _pool_from_rows([a, b])
    fraction, _ = non_duplicate_fraction(pool, 0.8)
    assert fraction == 0.5  # cosine >= threshold counts as duplicate


def test_empty_pool_rejected():
    with pytest.raises(SelectorError):
        non_duplicate_fraction([], 0.8)


def test_greedy_matches_brute_force_seeded():
    rng = np.random.Generator(np.random.PCG64(77))
    for trial in range(100):
        n = int(rng.integers(1, 51))
        rows = rng.standard_normal((n, 5))
        # plant duplicates by copying rows
        for _ in range(int(rng.integers(0, n // 2 + 1))):
            src, dst = rng.integers(0, n, size=2)
            rows[dst] = rows[src]
        pool = _pool_from_rows(rows)
        threshold = float(rng.uniform(0.2, 0.95))
        _, retained = non_duplicate_fraction(pool, threshold)
        assert retained == brute_force_retained(pool, threshold), trial


@settings(max_examples=40)
@given(st.integers(0, 2**31), st.integers(2, 20), st.floats(0.1, 0.99))
def test_greedy_matches_brute_force_property(seed, n, threshold):
    rng = np.random.Generator(np.random.PCG64(seed))
    pool = _pool_from_rows(rng.standard_normal((n, 4)))
    _, retained = non_duplicate_fraction(pool, threshold)
    assert set(retained) == set(brute_force_retained(pool, threshold))


def stacked_reference(pool, threshold):
    """The scan before the preallocated matrix: re-stacks the retained rows per idea."""
    ordered = sorted(pool, key=lambda i: i.id)
    X = np.asarray([i.embedding for i in ordered], dtype=np.float64)
    retained_ids: list[str] = []
    retained_rows: list[np.ndarray] = []
    for idea, row in zip(ordered, X):
        if retained_rows and bool(np.any(np.stack(retained_rows) @ row >= threshold)):
            continue
        retained_ids.append(idea.id)
        retained_rows.append(row)
    return len(retained_ids) / len(ordered), retained_ids


@settings(max_examples=60, deadline=None)
@given(
    st.integers(0, 2**31),
    st.integers(1, 405),
    st.sampled_from([3, 16, 384]),
    st.integers(0, 100),
    st.data(),
)
def test_dedup_equals_stacked_reference(seed, n, dim, dup_percent, data):
    """Bit-identical verdicts, also at thresholds equal to an observed cosine."""
    rng = np.random.Generator(np.random.PCG64(seed))
    rows = rng.standard_normal((n, dim))
    for dst in range(n):
        if rng.integers(100) < dup_percent:
            rows[dst] = rows[rng.integers(n)]  # exact duplicate embeddings
    pool = _pool_from_rows(rows)
    X = np.asarray([i.embedding for i in pool])
    observed = (X @ X[int(rng.integers(n))]).tolist()
    near = data.draw(st.sampled_from(observed))
    threshold = data.draw(st.sampled_from([
        0.0, 1.0, near, float(np.nextafter(near, 2.0)), float(np.nextafter(near, -2.0)),
    ]))
    threshold = min(max(threshold, 0.0), 1.0)
    assert non_duplicate_fraction(pool, threshold) == stacked_reference(pool, threshold)
