"""Embedding-space selection: clustering to representatives and dedup.

The clustering is seeded k-means++ with Lloyd iterations on unit-norm vectors.
Centroids are re-normalized after every mean update, so Euclidean-nearest
assignment coincides with max-cosine and the within-cluster sum of squared
distances (tracked in `inertia_history`) is non-increasing. Implemented here
rather than delegated to a library because the contract pins seeding,
tie-breaks, empty-cluster handling, and the per-step monotonicity check.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .domain import Idea

logger = logging.getLogger(__name__)

MAX_LLOYD_ITERATIONS = 300

_MONOTONE_TOL = 1e-9


class SelectorError(Exception):
    pass


@dataclass(frozen=True)
class ClusterAssignment:
    """Result of one clustering run.

    assignments maps member id -> cluster index; representative_ids holds, per
    cluster index, the member with max cosine to that cluster's centroid.
    """

    assignments: dict[str, int]
    centroids: tuple[tuple[float, ...], ...]
    representative_ids: tuple[str, ...]
    inertia_history: tuple[float, ...]


def _as_matrix(vectors) -> np.ndarray:
    X = np.asarray(vectors, dtype=np.float64)
    if X.ndim != 2 or X.shape[0] == 0:
        raise SelectorError("vectors must be a nonempty 2-D array")
    return X


def _sq_dists(X: np.ndarray, centers: np.ndarray) -> np.ndarray:
    # All rows unit-norm: |x - c|^2 = 2 - 2 x.c (clamped for float noise).
    d2 = 2.0 - 2.0 * (X @ centers.T)
    return np.maximum(d2, 0.0)


def _plus_plus_init(X: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    n = X.shape[0]
    chosen = [int(rng.integers(n))]
    d2 = _sq_dists(X, X[chosen[-1]][None, :])[:, 0]
    while len(chosen) < k:
        total = float(d2.sum())
        if total <= 0.0:
            # All remaining points coincide with a center; take lowest unchosen index.
            taken = set(chosen)
            nxt = next(i for i in range(n) if i not in taken)
        else:
            nxt = int(rng.choice(n, p=d2 / total))
        chosen.append(nxt)
        d2 = np.minimum(d2, _sq_dists(X, X[nxt][None, :])[:, 0])
    return X[chosen].copy()


def _normalized_means(X: np.ndarray, labels: np.ndarray, centers: np.ndarray) -> np.ndarray:
    out = centers.copy()
    for c in range(centers.shape[0]):
        members = X[labels == c]
        if members.shape[0] == 0:
            continue  # empty clusters keep their previous centroid
        mean = members.mean(axis=0)
        norm = float(np.linalg.norm(mean))
        if norm > 0.0:
            out[c] = mean / norm
    return out


def kmeans(vectors, k: int, seed: int, ids: list[str] | None = None) -> ClusterAssignment:
    """Cluster unit-norm vectors into at most k groups, deterministically.

    k is clamped to the number of vectors. Empty clusters are reseeded with
    the point farthest from its current centroid (ties to the lowest index),
    which keeps every cluster nonempty. Assignment ties go to the lowest
    cluster index; representative ties go to the lowest member index.
    """
    X = _as_matrix(vectors)
    n = X.shape[0]
    if k < 1:
        raise SelectorError("k must be >= 1")
    k = min(k, n)
    if ids is None:
        ids = [str(i) for i in range(n)]
    if len(ids) != n:
        raise SelectorError("ids length must match vectors")

    rng = np.random.Generator(np.random.PCG64(seed))
    centers = _plus_plus_init(X, k, rng)
    labels = np.full(n, -1, dtype=np.int64)
    inertia_history: list[float] = []

    for _ in range(MAX_LLOYD_ITERATIONS):
        d2 = _sq_dists(X, centers)
        new_labels = d2.argmin(axis=1)

        # Reseed empty clusters before scoring so every cluster stays live.
        counts = np.bincount(new_labels, minlength=k)
        for empty in np.flatnonzero(counts == 0):
            member_d2 = d2[np.arange(n), new_labels]
            donor_ok = counts[new_labels] > 1
            candidates = np.where(donor_ok, member_d2, -np.inf)
            farthest = int(candidates.argmax())
            counts[new_labels[farthest]] -= 1
            centers[empty] = X[farthest]
            new_labels[farthest] = empty
            counts[empty] = 1
            d2 = _sq_dists(X, centers)

        inertia = float(d2[np.arange(n), new_labels].sum())
        if inertia_history:
            assert inertia <= inertia_history[-1] + _MONOTONE_TOL, (
                f"inertia increased: {inertia_history[-1]} -> {inertia}"
            )
        inertia_history.append(inertia)

        if np.array_equal(new_labels, labels):
            break
        labels = new_labels
        centers = _normalized_means(X, labels, centers)

    sims = X @ centers.T
    representative_ids = []
    for c in range(k):
        members = np.flatnonzero(labels == c)
        best = members[int(sims[members, c].argmax())]
        representative_ids.append(ids[best])

    return ClusterAssignment(
        assignments={ids[i]: int(labels[i]) for i in range(n)},
        centroids=tuple(tuple(float(v) for v in row) for row in centers),
        representative_ids=tuple(representative_ids),
        inertia_history=tuple(inertia_history),
    )


def _embedded_matrix(pool: list[Idea]) -> np.ndarray:
    return np.asarray([i.embedding for i in pool], dtype=np.float64)


def cluster_pool(pool: list[Idea], k: int, seed: int) -> ClusterAssignment:
    """kmeans over a pool of embedded ideas keyed by idea id.

    `representative_ids` holds at most k ideas, one per cluster, ordered by
    cluster index. The pool is scanned in canonical ID order so duplicate
    embeddings resolve to the earlier idea.
    """
    if not pool:
        raise SelectorError("pool must be nonempty")
    ordered = sorted(pool, key=lambda i: i.id)
    return kmeans(_embedded_matrix(ordered), k, seed, ids=[i.id for i in ordered])


def non_duplicate_fraction(pool: list[Idea], threshold: float) -> tuple[float, list[str]]:
    """Greedy dedup scan in canonical ID order.

    An idea is a duplicate iff its cosine to any previously retained idea is
    >= threshold. Returns (retained/total, retained ids in scan order).

    Retained rows are written into one preallocated matrix, so each test is
    one contiguous matrix-vector product over its first m rows, with no copy.
    """
    if not pool:
        raise SelectorError("pool must be nonempty")
    if not 0.0 <= threshold <= 1.0:
        raise SelectorError("threshold must be in [0, 1]")
    ordered = sorted(pool, key=lambda i: i.id)
    X = _embedded_matrix(ordered)
    retained = np.empty_like(X)
    retained_ids: list[str] = []
    for idea, row in zip(ordered, X):
        m = len(retained_ids)
        if m and bool(np.any(retained[:m] @ row >= threshold)):
            continue
        retained[m] = row
        retained_ids.append(idea.id)
    return len(retained_ids) / len(ordered), retained_ids
