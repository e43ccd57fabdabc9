"""Clustering of per-point estimates and per-class regression refits.

After the fusion solve, the per-point estimates concentrate around the
mixture components; k-means recovers the grouping and a separate
least-squares regression per group estimates each component from the
original measurements.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DataValidationError, UnderdeterminedFitWarning
from .model import Dataset, _frozen_array

__all__ = ["ClusteringResult", "RefitResult", "kmeans", "refit_regression", "match_labels"]

LLOYD_MAX_ITER = 300
_OVERFLOW = "points are too far apart: squared distances overflow"


@dataclass(frozen=True)
class ClusteringResult:
    centers: np.ndarray
    labels: np.ndarray
    inertia: float

    def __post_init__(self):
        object.__setattr__(self, "centers", _frozen_array(self.centers))
        object.__setattr__(self, "labels", _frozen_array(self.labels, np.int64))


@dataclass(frozen=True)
class RefitResult:
    betas_hat: np.ndarray
    per_class_residual: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "betas_hat", _frozen_array(self.betas_hat))
        residual = _frozen_array(self.per_class_residual)
        object.__setattr__(self, "per_class_residual", residual)


def _plusplus_seeds(points: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """Plus-plus seeds of one restart as a ``(k, d)`` array.

    A seeding total that overflows raises, and so does one that vanishes,
    which happens only once every point is at squared distance 0 from a
    center: ``Generator.choice`` never picks a zero-weight row.
    """
    m = points.shape[0]
    centers = np.empty((k, points.shape[1]))
    centers[0] = points[rng.integers(m)]
    with np.errstate(over="ignore"):  # an overflowed sum is refused below
        sq = np.sum((points - centers[0]) ** 2, axis=1)
        for c in range(1, k):
            total = sq.sum()
            if total == np.inf:
                raise DataValidationError(_OVERFLOW)
            if not total > 0:  # every point is a chosen center
                raise DataValidationError(
                    f"cannot form {k} clusters: the points have fewer than "
                    f"{k} distinct rows (rows whose squared distance underflows "
                    "to 0 count as one)"
                )
            centers[c] = points[rng.choice(m, p=sq / total)]
            sq = np.minimum(sq, np.sum((points - centers[c]) ** 2, axis=1))
    return centers


def _assign(points: np.ndarray, centers: np.ndarray):
    """Labels, each point's squared distance to its center, and their sum."""
    with np.errstate(over="ignore"):  # kmeans refuses an inf inertia
        d2 = np.sum((points[:, None, :] - centers[None, :, :]) ** 2, axis=2)
        labels = np.argmin(d2, axis=1)  # argmin ties break toward the lowest index
        dist = d2[np.arange(points.shape[0]), labels]
        return labels, dist, float(dist.sum())


def _lloyd(points: np.ndarray, centers: np.ndarray):
    """Lloyd's iterations of one restart from its ``(k, d)`` seeds; returns
    its centers, labels and inertia.

    Each cluster mean is its members' sum in row order over their count; an
    empty cluster takes the point farthest from its center, never the same
    point twice.  The iterations stop when the labels stop changing or after
    ``LLOYD_MAX_ITER``; a cluster mean that overflows raises.
    """
    labels, dist, inertia = _assign(points, centers)
    for _ in range(LLOYD_MAX_ITER):
        counts = np.bincount(labels, minlength=len(centers))
        sums = np.zeros(centers.shape)
        with np.errstate(over="ignore"):  # an overflowed mean is refused below
            np.add.at(sums, labels, points)
        centers = sums / np.maximum(counts, 1)[:, None]
        if np.isinf(centers).any():  # a cluster's coordinate sum overflowed
            raise DataValidationError("points are too large: a cluster mean overflows")
        for c in np.flatnonzero(counts == 0):
            # repair: the point farthest from its center becomes this one
            far = int(np.argmax(dist))
            centers[c] = points[far]
            dist[far] = -1.0  # not reused by another empty cluster
        old_labels = labels
        labels, dist, inertia = _assign(points, centers)
        if np.array_equal(labels, old_labels):
            break
    return centers, labels, inertia


def kmeans(points, k: int, restarts: int = 20, seed: int = 0) -> ClusteringResult:
    """Lloyd's algorithm with plus-plus seeding and restarts.

    Deterministic for a fixed seed: restart ``r`` draws from its own stream
    keyed by ``(seed, r)``, and the best run is chosen by lowest inertia with
    ties broken toward the lowest restart index.  Every restart is seeded
    before any runs Lloyd's iterations.  Points with fewer than ``k``
    distinct rows, or whose plus-plus seeding total, cluster mean (both in
    any restart) or best inertia overflows, raise
    :class:`DataValidationError` at the first check that fails.
    """
    points = np.asarray(points, dtype=float)
    if points.ndim != 2 or points.shape[0] == 0:
        raise DataValidationError("points must be a nonempty m x d matrix")
    if not np.all(np.isfinite(points)):
        raise DataValidationError("points contain non-finite values")
    m = points.shape[0]
    if not 1 <= k <= m:
        raise DataValidationError(f"k must be in [1, {m}], got {k}")
    if restarts < 1:
        raise DataValidationError("restarts must be at least 1")
    if seed < 0:
        raise DataValidationError("seed must be nonnegative")
    streams = (np.random.SeedSequence(entropy=seed, spawn_key=(r,)) for r in range(restarts))
    seeds = [_plusplus_seeds(points, k, np.random.default_rng(s)) for s in streams]
    # min keeps the first of equal inertias: ties go to the lowest restart
    centers, labels, inertia = min((_lloyd(points, c) for c in seeds), key=lambda run: run[2])
    if inertia == np.inf:
        raise DataValidationError(_OVERFLOW)
    return ClusteringResult(centers=centers, labels=labels, inertia=inertia)


def refit_regression(dataset: Dataset, labels) -> RefitResult:
    """Least-squares fit of one coefficient vector per class.

    Rank-deficient classes get the minimum-norm solution and raise
    :class:`UnderdeterminedFitWarning`.
    """
    labeled = Dataset(dataset.features, dataset.responses, labels)
    k = labeled.num_classes
    betas = np.zeros((k, labeled.d))
    residuals = np.zeros(k)
    for p in range(k):
        members = labeled.class_members(p)
        A, b = labeled.features[members], labeled.responses[members]
        betas[p], _, rank, _ = np.linalg.lstsq(A, b, rcond=None)
        residuals[p] = float(np.max(np.abs(A @ betas[p] - b)))
        if rank < labeled.d:
            warnings.warn(
                f"class {p} is underdetermined (rank {rank} < {labeled.d}); "
                "returning the minimum-norm coefficients",
                UnderdeterminedFitWarning,
            )
    return RefitResult(betas_hat=betas, per_class_residual=residuals)


def match_labels(predicted, truth, k: int) -> tuple[tuple[int, ...], float]:
    """Best relabeling of ``predicted`` against ``truth`` over all
    permutations of ``{0..k-1}``, found as a maximum-weight assignment on
    the k x k confusion matrix.

    Returns ``(perm, accuracy)`` where ``perm[p]`` is the truth class that
    predicted class ``p`` is mapped to.  Every label must lie in ``[0, k)``.
    """
    # imported here: scipy.optimize takes longer to import than all of mixreg,
    # and nothing else in the package needs it
    from scipy.optimize import linear_sum_assignment

    predicted = np.asarray(predicted, dtype=np.int64)
    truth = np.asarray(truth, dtype=np.int64)
    if predicted.shape != truth.shape or predicted.size == 0:
        raise DataValidationError("label lists must be nonempty and of the same length")
    for name, labels in (("predicted", predicted), ("truth", truth)):
        if labels.min() < 0 or labels.max() >= k:
            raise DataValidationError(f"{name} labels must lie in [0, {k})")
    confusion = np.zeros((k, k), dtype=np.int64)
    np.add.at(confusion, (predicted, truth), 1)
    rows, cols = linear_sum_assignment(confusion, maximize=True)
    hits = int(confusion[rows, cols].sum())
    return tuple(int(c) for c in cols), hits / predicted.size
