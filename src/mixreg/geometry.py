"""Direction vectors, projectors, and the recovery conditions.

For a mixture with components ``beta_p``, the pair direction is
``v_pq = (beta_p - beta_q) / ||beta_p - beta_q||`` and the weighted direction
``v_p`` is the class-size-weighted average of ``v_pq`` over ``q != p``.
Recovery of a labeled instance is governed by three checks:

* well-separation: for every point, the orthogonal-to-parallel projection
  ratio against its class direction stays below half the smallest class
  fraction;
* balance: the signed, normalized sum of orthogonal components of each class
  vanishes; its norm divided by the class size is the residual ``tau_p``;
* span: every class's measurement vectors must span the full space.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DataValidationError, DegenerateModelError
from .model import Dataset, MixtureModel, _frozen_array

__all__ = [
    "ConditionReport",
    "weighted_directions",
    "orthonormal_complement_bases",
    "check_conditions",
]

# Relative singular-value cutoff for the numerical span/rank check.
RANK_RTOL = 1e-10
# A projection norm below this fraction of ||a|| counts as orthogonal; dot
# products of truly orthogonal vectors land at rounding level, not 0.0.
ORTHO_RTOL = 1e-14


def _json_float(x) -> float | str:
    """``x`` as a float, or ``"inf"``: strict JSON has no infinity."""
    x = float(x)
    return x if math.isfinite(x) else "inf"


@dataclass(frozen=True)
class ConditionReport:
    """Outcome of the three condition checks on a labeled instance."""

    separation_lhs: float
    separation_rhs: float
    balance_residuals: np.ndarray
    span_ok: np.ndarray

    def __post_init__(self):
        taus = _frozen_array(self.balance_residuals)
        object.__setattr__(self, "balance_residuals", taus)
        object.__setattr__(self, "span_ok", _frozen_array(self.span_ok, bool))

    @property
    def well_separated(self) -> bool:
        return bool(self.separation_lhs < self.separation_rhs)

    def to_dict(self) -> dict:
        return {
            "separation_lhs": _json_float(self.separation_lhs),
            "separation_rhs": self.separation_rhs,
            "well_separated": self.well_separated,
            "balance_residuals": [_json_float(t) for t in self.balance_residuals],
            "span_ok": [bool(s) for s in self.span_ok],
        }


def weighted_directions(model: MixtureModel) -> np.ndarray:
    """Weighted class directions, one row per component: ``(k, d)``.

    Row ``p`` is the class-size-weighted average over ``q != p`` of the unit
    vectors from ``beta_q`` toward ``beta_p``.  Undefined for k = 1, for a
    pair whose difference has zero norm (subnormal betas can underflow) and
    when a row is zero, as for betas ``0, e1, -e1`` with equal sizes: that
    class has no direction to project onto.
    """
    if model.k < 2:
        raise DegenerateModelError("weighted direction undefined for k = 1")
    diffs = model.betas[:, None, :] - model.betas[None, :, :]
    norms = np.linalg.norm(diffs, axis=2)
    np.fill_diagonal(norms, 1.0)  # the q = p term is a zero vector, not 0/0
    if np.any(norms == 0.0):
        raise DegenerateModelError("direction between identical components")
    sizes = model.sizes.astype(float)
    acc = (sizes[None, :, None] * (diffs / norms[:, :, None])).sum(axis=1)
    directions = acc / (sizes.sum() - sizes)[:, None]
    zero = np.flatnonzero(np.linalg.norm(directions, axis=1) == 0.0)
    if zero.size:
        raise DegenerateModelError(
            f"weighted direction of component {int(zero[0])} is zero"
        )
    return directions


def orthonormal_complement_bases(vs: np.ndarray) -> np.ndarray:
    """Deterministic orthonormal bases of the complements of the rows of
    ``vs``: ``(m, d) -> (m, d, d-1)``.

    Entry ``[i]`` is built from the Householder reflector that maps the unit
    vector along row ``i`` to a signed first basis vector; columns 2..d of
    the reflector span the complement.  For d = 1 each basis has zero
    columns.
    """
    vs = np.asarray(vs, dtype=float)
    norms = np.linalg.norm(vs, axis=1)
    if np.any(norms == 0.0):
        raise DegenerateModelError("cannot build a complement basis for v = 0")
    u = vs / norms[:, None]
    u[:, 0] += np.where(u[:, 0] >= 0.0, 1.0, -1.0)  # stable choice: never cancels
    coef = 2.0 / np.einsum("ij,ij->i", u, u)
    d = vs.shape[1]
    return np.eye(d)[:, 1:] - coef[:, None, None] * (u[:, :, None] * u[:, None, 1:])


def _targets(dataset: Dataset, model: MixtureModel) -> np.ndarray:
    """Per-row targets of a labeled instance: ``(m, d)``, row ``i`` equal to
    ``c_i = (m - n_p) v_p`` for point ``i``'s class ``p``."""
    if dataset.labels is None:
        raise DataValidationError("condition checks require labels")
    if model.k < 2:
        raise DegenerateModelError("condition checks require k >= 2")
    if dataset.num_classes != model.k:
        raise DataValidationError(
            f"labels describe {dataset.num_classes} classes, model has {model.k}"
        )
    if model.d != dataset.d:
        raise DataValidationError(
            f"model dimension {model.d} does not match dataset dimension {dataset.d}"
        )
    counts = dataset.class_sizes()
    if not np.array_equal(counts, model.sizes):
        raise DataValidationError(
            f"label counts {counts.tolist()} disagree with model sizes "
            f"{model.sizes.tolist()}"
        )
    return _row_targets(model, dataset.labels)


def _row_targets(model: MixtureModel, labels: np.ndarray) -> np.ndarray:
    """:func:`_targets` on raw labels whose class counts are ``model.sizes``."""
    return ((labels.size - model.sizes)[:, None] * weighted_directions(model))[labels]


def _split_rows(A: np.ndarray, targets: np.ndarray):
    """Split each row ``a_i`` of ``A`` along its target ``c_i`` and the
    complement.

    Returns ``(coef, ortho, orthogonal)``: ``coef_i = a_i . c_i / ||c_i||``,
    the ``P_perp`` part ``a_i - coef_i c_i / ||c_i||`` of each row, and a
    mask of rows whose coefficient is at rounding level.
    """
    chat = targets / np.linalg.norm(targets, axis=1)[:, None]
    coef = np.einsum("ij,ij->i", A, chat)
    ortho = A - coef[:, None] * chat
    orthogonal = np.abs(coef) <= ORTHO_RTOL * np.linalg.norm(A, axis=1)
    return coef, ortho, orthogonal


def _full_rank(svals: np.ndarray, d: int, rtol: float = RANK_RTOL) -> bool:
    """The span rule: singular values ``svals`` of a d-column matrix give
    rank d, with values below ``rtol`` times the largest counted as zero."""
    return int(np.sum(svals > rtol * svals[0])) == d


def _class_spans(dataset: Dataset, k: int) -> np.ndarray:
    """Whether each class's rows span the full space (:func:`_full_rank`);
    class sizes differ, so one SVD per class."""
    svals = (np.linalg.svd(dataset.features[dataset.labels == p], compute_uv=False)
             for p in range(k))
    return np.array([_full_rank(s, dataset.d) for s in svals])


def check_conditions(dataset: Dataset, model: MixtureModel) -> ConditionReport:
    """Evaluate well-separation, balance, and span for a labeled instance.

    A point with no component along its class direction makes the separation
    ratio and its class's balance residual infinite; that is reported
    (lhs = inf, well_separated = False) rather than raised.
    """
    coef, ortho, orthogonal = _split_rows(dataset.features, _targets(dataset, model))
    labels = dataset.labels
    coef = np.where(orthogonal, 1.0, coef)  # orthogonal rows are reported as inf
    ratios = np.linalg.norm(ortho, axis=1) / np.abs(coef)
    lhs = math.inf if np.any(orthogonal) else float(np.max(ratios))
    sums = np.zeros((model.k, dataset.d))
    np.add.at(sums, labels, (1.0 / coef)[:, None] * ortho)
    taus = np.linalg.norm(sums, axis=1) / model.sizes
    taus[labels[orthogonal]] = math.inf
    rhs = 0.5 * float(model.sizes.min()) / dataset.m
    return ConditionReport(
        separation_lhs=lhs,
        separation_rhs=rhs,
        balance_residuals=taus,
        span_ok=_class_spans(dataset, model.k),
    )
