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

from .errors import DataValidationError, DegenerateModelError, OrthogonalPointError
from .model import Dataset, MixtureModel

__all__ = [
    "DirectionSet",
    "ConditionReport",
    "direction_between",
    "weighted_direction",
    "direction_set",
    "separation_ratio",
    "orthonormal_complement_basis",
    "orthonormal_complement_bases",
    "check_conditions",
]

# Relative singular-value cutoff for the numerical span/rank check.
RANK_RTOL = 1e-10
# A projection norm below this fraction of ||a|| counts as orthogonal; dot
# products of truly orthogonal vectors land at rounding level, not 0.0.
ORTHO_RTOL = 1e-14


@dataclass(frozen=True)
class DirectionSet:
    """All pair directions (k x k x d, zero on the diagonal) and the k
    weighted directions (k x d)."""

    pairwise: np.ndarray
    weighted: np.ndarray

    def __post_init__(self):
        for name in ("pairwise", "weighted"):
            a = np.asarray(getattr(self, name), dtype=float)
            a.setflags(write=False)
            object.__setattr__(self, name, a)


@dataclass(frozen=True)
class ConditionReport:
    """Outcome of the three condition checks on a labeled instance."""

    separation_lhs: float
    separation_rhs: float
    well_separated: bool
    balance_residuals: np.ndarray
    span_ok: np.ndarray

    def __post_init__(self):
        br = np.asarray(self.balance_residuals, dtype=float)
        br.setflags(write=False)
        object.__setattr__(self, "balance_residuals", br)
        ok = np.asarray(self.span_ok, dtype=bool)
        ok.setflags(write=False)
        object.__setattr__(self, "span_ok", ok)

    def to_dict(self) -> dict:
        lhs = self.separation_lhs
        return {
            "separation_lhs": lhs if math.isfinite(lhs) else "inf",
            "separation_rhs": self.separation_rhs,
            "well_separated": self.well_separated,
            "balance_residuals": [float(t) for t in self.balance_residuals],
            "span_ok": [bool(s) for s in self.span_ok],
        }


def direction_between(beta_p: np.ndarray, beta_q: np.ndarray) -> np.ndarray:
    """Unit vector from ``beta_q`` toward ``beta_p``."""
    diff = np.asarray(beta_p, dtype=float) - np.asarray(beta_q, dtype=float)
    norm = np.linalg.norm(diff)
    if norm == 0.0:
        raise DegenerateModelError("direction between identical components")
    return diff / norm


def weighted_direction(p: int, model: MixtureModel) -> np.ndarray:
    """Class-size-weighted average of the directions from the other
    components toward component ``p``.  Undefined for k = 1."""
    if model.k < 2:
        raise DegenerateModelError("weighted direction undefined for k = 1")
    total = 0.0
    acc = np.zeros(model.d)
    for q in range(model.k):
        if q == p:
            continue
        n_q = float(model.sizes[q])
        acc += n_q * direction_between(model.betas[p], model.betas[q])
        total += n_q
    return acc / total


def direction_set(model: MixtureModel) -> DirectionSet:
    k, d = model.k, model.d
    pairwise = np.zeros((k, k, d))
    for p in range(k):
        for q in range(k):
            if p != q:
                pairwise[p, q] = direction_between(model.betas[p], model.betas[q])
    weighted = np.stack([weighted_direction(p, model) for p in range(k)])
    return DirectionSet(pairwise, weighted)


def separation_ratio(a: np.ndarray, v: np.ndarray) -> float:
    """``||P_perp a|| / ||P_v a||`` where ``P_v`` projects onto span{v}.

    Zero when ``a`` is parallel to ``v``; raises when ``a`` has no component
    along ``v`` at all.
    """
    a = np.asarray(a, dtype=float)
    v = np.asarray(v, dtype=float)
    vnorm = np.linalg.norm(v)
    if vnorm == 0.0:
        raise DegenerateModelError("separation ratio requires a nonzero direction")
    vhat = v / vnorm
    coef = float(vhat @ a)
    par = coef * vhat
    par_norm = abs(coef)
    if par_norm <= ORTHO_RTOL * np.linalg.norm(a):
        raise OrthogonalPointError("measurement orthogonal to class direction")
    return float(np.linalg.norm(a - par) / par_norm)


def orthonormal_complement_basis(v: np.ndarray) -> np.ndarray:
    """Deterministic ``d x (d-1)`` orthonormal basis of the complement of v.

    Built from the Householder reflector that maps the unit vector along v to
    a signed first basis vector; columns 2..d of the reflector span the
    complement.  For d = 1 the result has zero columns.
    """
    v = np.asarray(v, dtype=float)
    norm = np.linalg.norm(v)
    if norm == 0.0:
        raise DegenerateModelError("cannot build a complement basis for v = 0")
    d = v.size
    if d == 1:
        return np.zeros((1, 0))
    vhat = v / norm
    sign = 1.0 if vhat[0] >= 0.0 else -1.0
    u = vhat.copy()
    u[0] += sign  # stable choice: never cancels
    H = np.eye(d) - (2.0 / (u @ u)) * np.outer(u, u)
    return H[:, 1:]


def orthonormal_complement_bases(vs: np.ndarray) -> np.ndarray:
    """Row-wise :func:`orthonormal_complement_basis`: ``(m, d) -> (m, d, d-1)``.

    Entry ``[i]`` is the same Householder construction applied to row ``i``,
    built for all rows at once.
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
    return np.stack([weighted_direction(p, model) for p in range(model.k)])


def check_conditions(dataset: Dataset, model: MixtureModel) -> ConditionReport:
    """Evaluate well-separation, balance, and span for a labeled instance.

    A point with no component along its class direction makes the separation
    ratio infinite; that is reported (lhs = inf, well_separated = False)
    rather than raised.
    """
    weighted = _resolve_directions(dataset, model)
    k, d = model.k, model.d
    lhs = 0.0
    taus = np.zeros(k)
    span_ok = np.zeros(k, dtype=bool)
    for p in range(k):
        members = dataset.class_members(p)
        A = dataset.features[members]
        v = weighted[p]
        vhat = v / np.linalg.norm(v)
        coef = A @ vhat
        par_norm = np.abs(coef)
        ortho = A - np.outer(coef, vhat)
        if np.any(par_norm <= ORTHO_RTOL * np.linalg.norm(A, axis=1)):
            lhs = math.inf
            taus[p] = math.inf
        else:
            lhs = max(lhs, float(np.max(np.linalg.norm(ortho, axis=1) / par_norm)))
            # sign(0) := +1 by convention; true zeros were handled above
            signs = np.where(coef >= 0.0, 1.0, -1.0)
            total = (signs / par_norm)[:, None] * ortho
            taus[p] = float(np.linalg.norm(total.sum(axis=0)) / members.size)
        svals = np.linalg.svd(A, compute_uv=False)
        span_ok[p] = int(np.sum(svals > RANK_RTOL * svals[0])) == d
    rhs = 0.5 * float(model.sizes.min()) / dataset.m
    return ConditionReport(
        separation_lhs=lhs,
        separation_rhs=rhs,
        well_separated=bool(lhs < rhs),
        balance_residuals=taus,
        span_ok=span_ok,
    )
