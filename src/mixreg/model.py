"""Core data model: labeled datasets, mixture models, and
per-point estimate fields, plus the basic evaluation functionals.

Conventions used throughout the package:

* features are stored as an ``m x d`` float64 matrix whose rows are the
  measurement vectors ``a_i``; responses are a length-``m`` vector ``b``;
* class labels are 0-based internally (the CSV layer reads/writes 1-based);
* all containers are frozen and their arrays are marked read-only, so values
  can be shared freely between threads and worker processes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataValidationError, DegenerateModelError

__all__ = [
    "Dataset",
    "MixtureModel",
    "EstimateField",
    "candidate_solution",
    "objective",
    "feasibility_residual",
    "recovery_error",
]


def _frozen_array(x, dtype=float) -> np.ndarray:
    a = np.array(x, dtype=dtype)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class Dataset:
    """An ordered collection of measurements with optional class labels.

    ``labels``, when present, must use every class index in ``0..k-1`` at
    least once, where ``k = max(labels) + 1``.
    """

    features: np.ndarray
    responses: np.ndarray
    labels: np.ndarray | None = None

    def __post_init__(self):
        feats = _frozen_array(self.features)
        resp = _frozen_array(self.responses)
        if feats.ndim != 2 or feats.shape[0] < 1 or feats.shape[1] < 1:
            raise DataValidationError("features must be a nonempty m x d matrix")
        if resp.shape != (feats.shape[0],):
            raise DataValidationError("responses must have one entry per row")
        if not np.all(np.isfinite(feats)) or not np.all(np.isfinite(resp)):
            raise DataValidationError("dataset contains non-finite values")
        zero_rows = np.flatnonzero(~np.any(feats != 0.0, axis=1))
        if zero_rows.size:
            raise DataValidationError(f"zero measurement vector at row {zero_rows[0]}")
        object.__setattr__(self, "features", feats)
        object.__setattr__(self, "responses", resp)
        if self.labels is not None:
            labels = _frozen_array(self.labels, dtype=np.int64)
            if labels.shape != (feats.shape[0],):
                raise DataValidationError("labels must have one entry per row")
            if labels.min() < 0:
                raise DataValidationError("labels must be nonnegative (0-based)")
            k = int(labels.max()) + 1
            present = np.unique(labels)
            if present.size != k:
                missing = sorted(set(range(k)) - set(present.tolist()))
                raise DataValidationError(f"class {missing[0]} has no members")
            object.__setattr__(self, "labels", labels)

    @property
    def m(self) -> int:
        return self.features.shape[0]

    @property
    def d(self) -> int:
        return self.features.shape[1]

    @property
    def num_classes(self) -> int:
        if self.labels is None:
            raise DataValidationError("dataset has no labels")
        return int(self.labels.max()) + 1

    def class_members(self, p: int) -> np.ndarray:
        """Row indices of class ``p`` (0-based)."""
        if self.labels is None:
            raise DataValidationError("dataset has no labels")
        return np.flatnonzero(self.labels == p)

    def class_sizes(self) -> np.ndarray:
        return np.bincount(self.labels, minlength=self.num_classes)


@dataclass(frozen=True)
class MixtureModel:
    """``k`` pairwise-distinct coefficient vectors and their class sizes."""

    betas: np.ndarray
    sizes: np.ndarray

    def __post_init__(self):
        betas = _frozen_array(self.betas)
        if betas.ndim != 2 or betas.shape[0] < 1:
            raise DataValidationError("betas must be a k x d matrix")
        if not np.all(np.isfinite(betas)):
            raise DataValidationError("betas contain non-finite values")
        k = betas.shape[0]
        for p in range(k):
            for q in range(p + 1, k):
                if np.array_equal(betas[p], betas[q]):
                    raise DegenerateModelError(
                        f"mixture components {p} and {q} are identical"
                    )
        object.__setattr__(self, "betas", betas)
        sizes = _frozen_array(self.sizes, dtype=np.int64)
        if sizes.shape != (k,) or sizes.min() < 1:
            raise DataValidationError("sizes must be k positive integers")
        object.__setattr__(self, "sizes", sizes)

    @property
    def k(self) -> int:
        return self.betas.shape[0]

    @property
    def d(self) -> int:
        return self.betas.shape[1]


@dataclass(frozen=True)
class EstimateField:
    """An ``m x d`` matrix holding one coefficient estimate per data point."""

    z: np.ndarray

    def __post_init__(self):
        z = _frozen_array(self.z)
        if z.ndim != 2:
            raise DataValidationError("estimate field must be an m x d matrix")
        if not np.all(np.isfinite(z)):
            raise DataValidationError("estimate field contains non-finite values")
        object.__setattr__(self, "z", z)


def _as_matrix(Z) -> np.ndarray:
    return Z.z if isinstance(Z, EstimateField) else np.asarray(Z, dtype=float)


def candidate_solution(dataset: Dataset, model: MixtureModel) -> EstimateField:
    """Estimate field that assigns each point its own class's coefficients.

    Requires labels; row ``i`` of the result equals ``betas[labels[i]]``.
    """
    if dataset.labels is None:
        raise DataValidationError("candidate solution requires labels")
    if dataset.num_classes > model.k:
        raise DataValidationError(
            f"labels use {dataset.num_classes} classes but model has {model.k}"
        )
    if model.d != dataset.d:
        raise DataValidationError(
            f"model dimension {model.d} does not match dataset dimension {dataset.d}"
        )
    return EstimateField(model.betas[dataset.labels])


def objective(Z) -> float:
    """Sum of ``||z_i - z_j||_2`` over all ordered pairs ``(i, j)``.

    Every unordered pair is counted twice; the value is zero exactly when all
    rows coincide.
    """
    z = _as_matrix(Z)
    diffs = z[:, None, :] - z[None, :, :]
    return 2.0 * float(np.sum(np.triu(np.linalg.norm(diffs, axis=2), k=1)))


def feasibility_residual(Z, dataset: Dataset) -> float:
    """``max_i |a_i^T z_i - b_i|`` for an estimate field on a dataset."""
    z = _as_matrix(Z)
    if z.shape != dataset.features.shape:
        raise DataValidationError("estimate field shape does not match dataset")
    return float(
        np.max(np.abs(np.einsum("ij,ij->i", dataset.features, z) - dataset.responses))
    )


def recovery_error(Z_a, Z_b) -> float:
    """Frobenius distance between two estimate fields, normalized by sqrt(m)."""
    za, zb = _as_matrix(Z_a), _as_matrix(Z_b)
    if za.shape != zb.shape:
        raise DataValidationError("estimate fields have different shapes")
    return float(np.linalg.norm(za - zb) / np.sqrt(za.shape[0]))
