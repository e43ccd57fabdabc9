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


def _resolve_directions(dataset: Dataset, model: MixtureModel) -> np.ndarray:
    if dataset.labels is None:
        raise DataValidationError("condition checks require labels")
    if model.k < 2:
        raise DegenerateModelError("condition checks require k >= 2")
    if dataset.num_classes != model.k:
        raise DataValidationError(
            f"labels describe {dataset.num_classes} classes, model has {model.k}"
        )
    if model.d != dataset.d:
        raise DataValidationError("model dimension does not match dataset")
    counts = dataset.class_sizes()
    if not np.array_equal(counts, model.sizes):
        raise DataValidationError(
            f"label counts {counts.tolist()} disagree with model sizes "
            f"{model.sizes.tolist()}"
        )
    return weighted_directions(model)


def _project_class(A: np.ndarray, v: np.ndarray):
    """Split the rows of ``A`` along ``v`` and its orthogonal complement.

    Returns ``(signs, par_norm, ortho, orthogonal)``: the sign of each row's
    coefficient along ``v`` (sign(0) := +1), the norm of its projection onto
    span{v}, the ``P_perp`` part of each row, and a mask of rows whose
    projection onto span{v} is at rounding level.
    """
    vhat = v / np.linalg.norm(v)
    coef = A @ vhat
    par_norm = np.abs(coef)
    ortho = A - np.outer(coef, vhat)
    orthogonal = par_norm <= ORTHO_RTOL * np.linalg.norm(A, axis=1)
    return np.where(coef >= 0.0, 1.0, -1.0), par_norm, ortho, orthogonal


def _spans(A: np.ndarray, rtol: float = RANK_RTOL) -> bool:
    """Whether the rows of ``A`` span the full space: numerical rank d, with
    singular values below ``rtol`` times the largest counted as zero."""
    svals = np.linalg.svd(A, compute_uv=False)
    return int(np.sum(svals > rtol * svals[0])) == A.shape[1]


def check_conditions(dataset: Dataset, model: MixtureModel) -> ConditionReport:
    """Evaluate well-separation, balance, and span for a labeled instance.

    A point with no component along its class direction makes the separation
    ratio infinite; that is reported (lhs = inf, well_separated = False)
    rather than raised.
    """
    weighted = _resolve_directions(dataset, model)
    k = model.k
    lhs = 0.0
    taus = np.zeros(k)
    span_ok = np.zeros(k, dtype=bool)
    for p in range(k):
        A = dataset.features[dataset.class_members(p)]
        signs, par_norm, ortho, orthogonal = _project_class(A, weighted[p])
        if np.any(orthogonal):
            lhs = math.inf
            taus[p] = math.inf
        else:
            lhs = max(lhs, float(np.max(np.linalg.norm(ortho, axis=1) / par_norm)))
            total = (signs / par_norm)[:, None] * ortho
            taus[p] = float(np.linalg.norm(total.sum(axis=0)) / A.shape[0])
        span_ok[p] = _spans(A)
    rhs = 0.5 * float(model.sizes.min()) / dataset.m
    return ConditionReport(
        separation_lhs=lhs,
        separation_rhs=rhs,
        balance_residuals=taus,
        span_ok=span_ok,
    )
