"""Iteratively reweighted least squares for the pairwise-fusion program.

The target problem is

    minimize   sum_{i,j} ||z_i - z_j||_2   subject to  a_i^T z_i = b_i,

solved by alternating two steps from uniform initial weights:

1. an equality-constrained weighted least-squares subproblem
   ``argmin sum_{i,j} w_ij ||z_i - z_j||^2  s.t.  a_i^T z_i = b_i``;
2. the weight update ``w_ij = (||z_i - z_j||^2 + DELTA)^(-1/2)``, with the
   fixed smoothing constant ``DELTA = 1e-16``.

Each subproblem is solved exactly, by one order of solves chosen only by
whether the subproblem is unique and what the solves observe:

* **Reduced solve, first for a unique subproblem.**  The stationarity
  condition ``2 L Z = diag(lam) A_rows``, with ``L`` the weighted graph
  Laplacian, is eliminated through the Laplacian pseudoinverse, leaving an
  (m + d) saddle-point system in the multipliers plus the free mean
  translation.  ``L^+`` comes from one Cholesky factor of
  ``L + (s/m) 11^T``.  The multiplier block ``S11 = (1/2) (L^+ o G)``, with
  ``G`` the Gram matrix of the measurement vectors, is positive definite
  whenever the vectors span the space, because every weight is positive and
  the graph complete (Schur product theorem: no ``x != 0`` makes every
  ``x_i a_i`` the same vector),
  so the bordered system is solved through Cholesky factors of ``S11`` and
  of its d x d Schur complement ``U^T S11^-1 U``, each checked against the
  condition-estimate floor ``RCOND_MIN = 1e-14``, and refined once
  (Nocedal & Wright, *Numerical Optimization*, §16.2; Higham, *Accuracy and
  Stability of Numerical Algorithms*, ch. 12).  The border ``U`` comes from
  the thin SVD ``A = U S V^T``, taken once per solve, and ``V S^-1`` maps
  the translation back: bordered with ``A`` itself, the Schur complement
  would carry the square of the features' condition number and break down
  on near-flat features.
* **Null-space solve.**  It answers every subproblem the reduced solve does
  not: a unique one whose reduced solve breaks down or misses the
  stationarity guard (fused points put weights near ``DELTA**-0.5`` beside
  O(1) ones and ``L^+`` loses accuracy), and every non-unique one.  Each row
  is written as ``z_i = z0_i + B_i y_i`` with ``B_i`` an orthonormal basis
  of the complement of ``a_i``.  For a unique subproblem the ``m (d-1)``
  system in ``y`` is positive definite and is factored by Cholesky, checked
  against the same floor and refined once; otherwise it is singular and its
  least-squares solve gives the minimum-norm minimizer.

Every result is re-projected onto the constraint hyperplanes and must pass
the same per-row KKT stationarity guard and the feasibility guard; a
null-space result that misses them raises :class:`NumericalError`.  With
d = 1, ``S11`` is singular, the floor rejects it and the null-space solve
pins each row.

Every pair weight is positive, so every weight graph is complete and the
one degenerate case is measurement vectors that do not span the full space.
Such a subproblem has multiple minimizers; it goes straight to the
null-space solve, which returns the minimum-norm one, along with a
:class:`NonUniqueSolutionWarning`.

The alternation S (reweight from a field, then solve the subproblem) is a
majorize-minimize map that converges linearly, and the loop accelerates it
with monotone SQUAREM (Varadhan & Roland, *Scand. J. Statist.* 35, 2008).
Each cycle takes two IRLS steps ``F1 = S(x)`` and ``F2 = S(F1)`` from an
anchor ``x`` and extrapolates to ``x' = x - 2 alpha r + alpha^2 v`` with
``r = F1 - x``, ``v = F2 - 2 F1 + x`` and ``alpha = min(-1, -||r||/||v||)``.
The coefficients of ``x``, ``F1`` and ``F2`` in ``x'`` sum to one, so ``x'``
satisfies every row constraint up to rounding, which one projection removes.
``x'`` becomes the next anchor only if its smoothed objective is finite and
no larger than ``F2``'s, and the next solve cannot raise it (the subproblem
majorizes the objective), so the history of solve objectives never
increases; otherwise the cycle continues from ``F2``.  Only subproblem
solutions are returned or recorded, and the step rule compares each solve
with the field whose weights it used.

When the caller knows the number of classes ``k``, the loop also tries a
certified exit once, after the first solve: it clusters that field into
``k`` groups, refits one regression per group, and returns the refit field
``z_i = beta_hat[label_i]`` if it is feasible and the closed-form dual
certificate proves it the program's unique minimizer.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import os
import warnings
from dataclasses import dataclass
from numbers import Integral
from typing import NamedTuple

import numpy as np
import scipy

from . import certificate
from .cluster import kmeans
from .errors import (
    DataValidationError,
    MixregError,
    NonUniqueSolutionWarning,
    NumericalError,
)
from .geometry import _full_rank, _row_targets, orthonormal_complement_bases
from .model import (
    Dataset,
    EstimateField,
    MixtureModel,
    _as_matrix,
)


def _load_lapack():
    # importing scipy.linalg costs a mixreg process 0.2-0.3 s (its array-API shim loads
    # numpy.f2py and numpy.testing); load the wrappers scipy.linalg.lapack re-exports directly
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        for root in scipy.__path__:
            path = os.path.join(root, "linalg", "_flapack" + suffix)
            if os.path.isfile(path):
                spec = importlib.util.spec_from_file_location("scipy.linalg._flapack", path)
                module = importlib.util.module_from_spec(spec)
                spec.loader.exec_module(module)
                return module
    from scipy.linalg import lapack

    return lapack


lapack = _load_lapack()

__all__ = [
    "SolverOptions",
    "SolveTrace",
    "WeightMatrix",
    "update_weights",
    "weighted_ls_step",
    "irls_solve",
    "smoothed_objective",
]

# Condition-estimate floor: reciprocal condition numbers below this raise.
RCOND_MIN = 1e-14
# KKT stationarity guard on every subproblem solve (relative, per row).
SUBPROBLEM_TOL = 1e-10
# Relative singular-value cutoff of the feature-span test.
SPAN_RTOL = 1e-12
# Smoothing constant of the weight update.
DELTA = 1e-16
_TOO_FAR = "estimates are too far apart: squared distances overflow"


@dataclass(frozen=True)
class SolverOptions:
    """Iteration cap and relative step stopping tolerance."""

    max_iter: int = 150
    stop_tol: float = 1e-5

    def __post_init__(self):
        if not isinstance(self.max_iter, Integral) or self.max_iter < 1:
            raise DataValidationError("max_iter must be at least 1 and an integer")
        if not self.stop_tol > 0:
            raise DataValidationError("stop_tol must be positive")


@dataclass
class SolveTrace:
    """Per-solve diagnostics.

    ``objective_history`` holds one entry per subproblem solve, and
    ``iterations``, the number of solves, is derived from it.
    ``stop_reason`` is ``"certified"`` (the returned field carries a dual
    certificate), ``"step"`` (``||Z_t - X_t||_F <= stop_tol ||X_t||_F``) or
    ``"cap"`` (``max_iter`` subproblems were solved); the solve converged
    unless it hit the cap.  ``final_step_norm`` is the last step's
    ``||Z_t - X_t||_F / sqrt(m)``.  ``extrapolations`` counts the
    accepted SQUAREM extrapolations.
    """

    objective_history: list[float]
    final_step_norm: float | None
    max_feasibility_residual: float
    stop_reason: str
    extrapolations: int

    @property
    def iterations(self) -> int:
        return len(self.objective_history)

    @property
    def converged(self) -> bool:
        return self.stop_reason != "cap"

    def to_dict(self) -> dict:
        return {
            "iterations": self.iterations,
            "objective_history": self.objective_history,
            "final_step_norm": self.final_step_norm,
            "converged": self.converged,
            "max_feasibility_residual": self.max_feasibility_residual,
            "stop_reason": self.stop_reason,
            "extrapolations": self.extrapolations,
        }


@dataclass(frozen=True)
class WeightMatrix:
    """Symmetric pair weights, positive off a zero diagonal: every pair of
    points is coupled, as in the program's objective."""

    w: np.ndarray

    def __post_init__(self):
        w = np.array(self.w, dtype=float)
        if w.ndim != 2 or w.shape[0] != w.shape[1]:
            raise DataValidationError("weights must be a square matrix")
        if not np.all(np.isfinite(w)):
            raise DataValidationError("weights contain non-finite values")
        if not np.array_equal(w, w.T):
            raise DataValidationError("weights must be symmetric")
        if np.any(np.diag(w) != 0.0):
            raise DataValidationError("weight diagonal must be zero")
        if np.count_nonzero(w > 0) != w.size - w.shape[0]:
            raise DataValidationError("weights must be positive off the diagonal")
        w.setflags(write=False)
        object.__setattr__(self, "w", w)

    @property
    def m(self) -> int:
        return self.w.shape[0]


def _pairwise_sq_dists(z: np.ndarray) -> np.ndarray:
    """``||z_i - z_j||^2`` for every pair, exactly symmetric with a zero
    diagonal; the differences are taken one coordinate at a time."""
    zt = np.ascontiguousarray(z.T)
    diffs = zt[:, :, None] - zt[:, None, :]
    np.square(diffs, out=diffs)
    return diffs.sum(axis=0)


def _reweight(z: np.ndarray, delta: float) -> tuple[np.ndarray, float]:
    """Next weights and smoothed objective from one distance pass.

    With ``r_ij = sqrt(||z_i - z_j||^2 + delta)``, the weights are
    ``1 / r_ij`` and the objective is ``sum_{i != j} r_ij``; self-pairs get
    weight 0 and are excluded from the sum.
    """
    with np.errstate(over="ignore"):  # the loop refuses an inf objective
        r = _pairwise_sq_dists(z)
        r += delta
        np.sqrt(r, out=r)
        np.fill_diagonal(r, 0.0)
        objective = float(r.sum())
    np.fill_diagonal(r, 1.0)  # no 1/0 on the diagonal
    np.reciprocal(r, out=r)
    np.fill_diagonal(r, 0.0)
    return r, objective


def update_weights(Z, delta: float) -> WeightMatrix:
    """``w_ij = (||z_i - z_j||^2 + delta)^(-1/2)`` with a zero diagonal."""
    if not delta > 0:
        raise DataValidationError("delta must be positive")
    return WeightMatrix(_reweight(_as_matrix(Z), delta)[0])


def smoothed_objective(Z, delta: float) -> float:
    """``sum_{i != j} sqrt(||z_i - z_j||^2 + delta)`` (self-pairs excluded)."""
    return _reweight(_as_matrix(Z), delta)[1]


def _cholesky_solver(M: np.ndarray, name: str):
    """``solve(r)`` for the positive definite ``M`` from one Cholesky factor.

    ``r`` may hold one right-hand side or one per column.  A factorization
    breakdown, a reciprocal condition estimate below ``RCOND_MIN`` or a
    failed solve raises :class:`NumericalError`.
    """
    c, info = lapack.dpotrf(M, lower=1)
    if info != 0:
        raise NumericalError(f"{name} Cholesky factorization failed (info={info})")
    rcond, info = lapack.dpocon(c, np.linalg.norm(M, 1), uplo="L")
    if info != 0 or not np.isfinite(rcond) or rcond < RCOND_MIN:
        raise NumericalError(
            f"{name} system too ill-conditioned (rcond estimate {rcond:.2e})"
        )

    def solve(r: np.ndarray) -> np.ndarray:
        x, bad = lapack.dpotrs(c, r if r.ndim == 2 else r[:, None], lower=1)
        if bad != 0:
            raise NumericalError(f"Cholesky solve failed (info={bad})")
        return x if r.ndim == 2 else x[:, 0]

    return solve


def _bordered_solver(S11: np.ndarray, A: np.ndarray):
    """``resolve(top, bottom)`` solving the bordered system
    ``[[S11, A], [A^T, 0]] [x, y] = [top, bottom]``.

    ``S11`` (m x m) must be positive definite and ``A`` (m x d) of full
    column rank, so the Schur complement ``T = A^T S11^-1 A`` is positive
    definite too; both are factored by :func:`_cholesky_solver`.  Then
    ``y = T^-1 (A^T S11^-1 top - bottom)`` and ``x = S11^-1 (top - A y)``.
    """
    s11 = _cholesky_solver(S11, "reduced KKT")
    X = s11(A)  # S11^-1 A
    schur = _cholesky_solver(A.T @ X, "Schur complement")

    def resolve(top: np.ndarray, bottom: np.ndarray):
        u = s11(top)
        y = schur(A.T @ u - bottom)
        return u - X @ y, y

    return resolve


def _laplacian(w: np.ndarray) -> np.ndarray:
    L = np.negative(w)
    np.fill_diagonal(L, w.sum(axis=1))
    return L


class _Rows(NamedTuple):
    """A dataset's per-solve constants, computed once by :func:`_rows`."""

    features: np.ndarray
    responses: np.ndarray
    sq_norms: np.ndarray  # ||a_i||^2
    norms: np.ndarray  # ||a_i||
    gram: np.ndarray  # features @ features.T
    span_full: bool  # whether the features span the space
    # with the thin SVD features = U S V^T, when the features span: the
    # reduced solve's border U and its map V S^-1 back to the translation
    border: np.ndarray | None
    unborder: np.ndarray | None


def _rows(dataset: Dataset) -> _Rows:
    features = dataset.features
    border, svals, vt = np.linalg.svd(features, full_matrices=False)
    span_full = _full_rank(svals, dataset.d, SPAN_RTOL)
    return _Rows(
        features,
        dataset.responses,
        np.einsum("ij,ij->i", features, features),
        np.linalg.norm(features, axis=1),
        features @ features.T,
        span_full,
        border if span_full else None,
        vt.T / svals if span_full else None,
    )


def _project_rows(z: np.ndarray, rows: _Rows):
    """Exactly restore per-row feasibility a_i^T z_i = b_i."""
    gap = np.einsum("ij,ij->i", rows.features, z) - rows.responses
    return z - (gap / rows.sq_norms)[:, None] * rows.features


def _laplacian_pinv(L: np.ndarray) -> np.ndarray:
    """``L^+`` of a connected graph's Laplacian from one Cholesky factor.

    ``K = L + (s/m) 11^T`` with ``s = trace(L)/m`` moves the nullspace
    eigenvalue of ``L`` to ``s`` and keeps the rest, so
    ``L^+ = K^-1 - 11^T / (s m)``.  A factorization breakdown raises.
    """
    m = L.shape[0]
    s = np.trace(L) / m
    # K is symmetric, so its Fortran-ordered transpose is K and LAPACK
    # factors and inverts it in place
    c, info = lapack.dpotrf((L + s / m).T, lower=1, overwrite_a=1)
    if info != 0:
        raise NumericalError(f"Laplacian Cholesky factorization failed (info={info})")
    inv, info = lapack.dpotri(c, lower=1, overwrite_c=1)
    if info != 0:
        raise NumericalError(f"Laplacian inverse failed (info={info})")
    # inv holds the lower triangle and zeros above it (dpotrf cleaned them):
    # adding the transpose doubles only the diagonal, halved exactly here
    inv += inv.T
    inv.flat[:: m + 1] *= 0.5
    inv -= 1.0 / (s * m)
    return inv


def _solve_reduced_kkt(rows: _Rows, L):
    """Solve in (m + d) unknowns via the Laplacian pseudoinverse.

    With ``lam`` the stationarity multipliers (2 L Z = diag(lam) A_rows) and
    ``c`` the free translation along the Laplacian nullspace,

        [[(1/2) (L^+ o G), A_rows], [A_rows^T, 0]] [lam, c] = [b, 0]

    where ``G`` is the Gram matrix of the measurement vectors and ``o`` the
    elementwise product.  With the thin SVD ``A_rows = U S V^T`` the border
    is taken as ``U`` and the translation as ``c = V S^-1 c'``, an
    equivalent system whose Schur complement does not inherit the
    conditioning of near-flat features.  It is solved by
    :func:`_bordered_solver` and refined once against the full KKT residual.
    Returns ``(z, nu)`` with ``nu = -lam``.
    """
    features, U = rows.features, rows.border
    Lp = _laplacian_pinv(L)
    resolve = _bordered_solver(0.5 * (Lp * rows.gram), U)
    lam, c = resolve(rows.responses, np.zeros(U.shape[1]))
    z = 0.5 * (Lp @ (lam[:, None] * features)) + (rows.unborder @ c)[None, :]

    stat_res = lam[:, None] * features - 2.0 * (L @ z)
    feas_res = rows.responses - np.einsum("ij,ij->i", features, z)
    top = feas_res - 0.5 * np.einsum("ij,ij->i", Lp @ stat_res, features)
    dlam, dc = resolve(top, -U.T @ lam)
    z += 0.5 * (Lp @ ((dlam[:, None] * features) + stat_res)) + (rows.unborder @ dc)[None, :]
    return z, -(lam + dlam)


def _solve_null_space(rows: _Rows, L):
    """Null-space solve of the subproblem (Nocedal & Wright, §16.2).

    Each row is written as ``z_i = z0_i + B_i y_i``, with ``z0_i`` the point
    of hyperplane i closest to the origin and ``B_i`` an orthonormal basis of
    the complement of ``a_i``, so every ``y`` is feasible and the objective
    ``2 tr(Z^T L Z)`` becomes ``(1/2) y^T H y + g^T y + const`` with
    ``H = 4 [L_ij B_i^T B_j]`` and ``g_i = 4 B_i^T (L z0)_i``.  When the
    features span the space (``rows.span_full``) ``H`` is positive definite;
    it is factored by Cholesky, checked against ``RCOND_MIN`` and refined
    once.  Otherwise ``H`` is singular and its least-squares solve picks the
    minimum-norm minimizer.  For d = 1 each constraint pins its row:
    ``z = z0``.
    """
    features = rows.features
    m, d = features.shape
    z0 = (rows.responses / rows.sq_norms)[:, None] * features
    if d == 1:
        return z0
    nd = d - 1
    B = orthonormal_complement_bases(features)
    flat = B.transpose(1, 0, 2).reshape(d, m * nd)  # [B_1, ..., B_m]
    H = flat.T @ flat
    blocks = H.reshape(m, nd, m, nd)
    blocks *= 4.0 * L[:, None, :, None]
    g = 4.0 * np.einsum("ijk,ij->ik", B, L @ z0).ravel()
    if rows.span_full:
        solve = _cholesky_solver(H, "null-space")
        y = solve(-g)
        y = y + solve(-g - H @ y)  # one refinement step
    else:
        y = np.linalg.lstsq(H, -g, rcond=None)[0]
    return z0 + np.einsum("ijk,ik->ij", B, y.reshape(m, nd))


def _stationarity_defect(L, z, nu, rows: _Rows) -> float:
    """Largest per-row residual of ``2 (L z)_i + nu_i a_i = 0``.

    Backward-style check: the residual is compared per row against the
    magnitude of the terms that produced it, which is the sharpest scale at
    which it can be evaluated in floating point.  Row norms that overflow
    make it NaN, which the guards read as a failure.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        stat = 2.0 * (L @ z) + nu[:, None] * rows.features
        znorm = np.linalg.norm(z, axis=1)
        # |L| = 2 diag(L) - L: the diagonal is nonnegative, the rest nonpositive
        abs_L_znorm = 2.0 * np.diagonal(L) * znorm - L @ znorm
        row_scale = np.maximum(
            2.0 * abs_L_znorm + np.abs(nu) * rows.norms,
            1.0,
        )
        return float(np.max(np.linalg.norm(stat, axis=1) / row_scale))


def _refuse_overflow(z: np.ndarray) -> None:
    """Raise :class:`DataValidationError` when the squared distances or the
    squared row norms of ``z`` overflow."""
    with np.errstate(over="ignore"):
        if np.isinf(_pairwise_sq_dists(z)).any():
            raise DataValidationError(_TOO_FAR)
        if np.isinf(np.einsum("ij,ij->i", z, z)).any():
            raise DataValidationError("estimates are too large: squared row norms overflow")


def weighted_ls_step(dataset: Dataset, weights: WeightMatrix) -> EstimateField:
    """Exact minimizer of the weighted quadratic under the row constraints.

    The subproblem is non-unique exactly when the measurement vectors do not
    span the full space; it then returns the minimum-norm minimizer and
    emits :class:`NonUniqueSolutionWarning`.
    """
    if weights.m != dataset.m:
        raise DataValidationError("weight matrix size does not match dataset")
    return EstimateField(_weighted_ls(_rows(dataset), weights.w)[0])


def _weighted_ls(rows: _Rows, w) -> tuple[np.ndarray, float]:
    """:func:`weighted_ls_step` on raw arrays: ``w`` is a valid weight matrix
    of matching size, supplied by the caller.  Returns the minimizer and its
    largest constraint gap ``max_i |a_i^T z_i - b_i|``."""
    L = _laplacian(w)
    z = None
    if rows.span_full:  # the reduced solve first, kept if it passes the guard
        try:
            z, nu = _solve_reduced_kkt(rows, L)
        except NumericalError:
            pass
        else:
            z = _project_rows(z, rows)
            if not _stationarity_defect(L, z, nu, rows) <= SUBPROBLEM_TOL:
                z = None
    else:
        warnings.warn(
            "measurement vectors do not span the full space; subproblem is "
            "non-unique, returning the minimum-norm minimizer",
            NonUniqueSolutionWarning,
        )
    if z is None:
        z = _project_rows(_solve_null_space(rows, L), rows)
        nu = -np.einsum("ij,ij->i", rows.features, 2.0 * (L @ z)) / rows.sq_norms
        defect = _stationarity_defect(L, z, nu, rows)
        if not np.isfinite(defect):
            _refuse_overflow(z)
        if not defect <= SUBPROBLEM_TOL:
            raise NumericalError("KKT stationarity residual above tolerance")

    gap = _feasibility_gap(rows, z)
    if gap is None:
        raise NumericalError("constraint residual above tolerance after solve")
    return z, gap


def _feasibility_gap(rows: _Rows, z) -> float | None:
    """``max_i |a_i^T z_i - b_i|``, computed as
    :func:`~mixreg.model.feasibility_residual` computes it, if every gap is
    within 1e-12 of its row's own scale; ``None`` otherwise."""
    gaps = np.abs(np.einsum("ij,ij->i", rows.features, z) - rows.responses)
    bounds = 1e-12 * (
        np.abs(rows.responses) + rows.norms * np.linalg.norm(z, axis=1)
    ) + 1e-12
    return None if np.any(gaps > bounds) else float(np.max(gaps))


def _certified_field(rows: _Rows, z: np.ndarray, k: int) -> tuple[np.ndarray, float] | None:
    """``beta_hat[labels]`` from k-means on ``z`` and one refit per group,
    made without warnings, with its largest constraint gap, if that field
    is feasible and ``verify_certificate(build_certificate(...)).certifies``
    for its labeling; ``None`` otherwise.  One pass on raw arrays checks each
    group's span on its refit's singular values, then feasibility,
    stationarity and ``gamma < 1``; pair differences are formed only when
    :func:`~mixreg.certificate._stationarity`'s bound on gamma is not
    below ``1 - GAMMA_BORDERLINE``."""
    features, d = rows.features, rows.features.shape[1]
    try:
        labels = kmeans(z, k, restarts=1, seed=0).labels
        sizes = np.bincount(labels)
        if not sizes.all():  # a group below the last is empty
            return None
        betas = np.empty((sizes.size, d))
        for p in range(sizes.size):
            members = labels == p
            A, b = features[members], rows.responses[members]
            betas[p], _, _, svals = np.linalg.lstsq(A, b, rcond=None)
            if not _full_rank(svals, d):  # the certificate's span condition
                return None
        snapped = betas[labels]
        gap = _feasibility_gap(rows, snapped)
        if gap is None:
            return None
        model = MixtureModel(betas, sizes)
        targets = _row_targets(model, labels)
        nu, cert_rows = certificate._closed_form(features, targets)
        s1_residual, s1_scale, bound = certificate._stationarity(
            features, targets, nu, cert_rows, labels, sizes
        )
    except MixregError:
        return None
    if not s1_residual <= certificate.DEFAULT_S1_TOL * s1_scale:
        return None
    bounded = bound < 1.0 - certificate.GAMMA_BORDERLINE  # gamma < 1 whatever the rounding
    strict = bounded or certificate.Certificate(nu, cert_rows, labels).gamma < 1.0
    return (snapped, gap) if strict else None


def _squarem_point(x: np.ndarray, f1: np.ndarray, f2: np.ndarray, rows: _Rows):
    """The SQUAREM extrapolation of the IRLS cycle ``x -> f1 -> f2``,
    projected back onto the row constraints, or ``None`` when it would be
    ``f2`` itself (step length -1) or is undefined (``v = 0``)."""
    r = f1 - x
    v = f2 - f1 - r
    v_norm = np.linalg.norm(v)
    if v_norm == 0.0:
        return None
    alpha = min(-1.0, -float(np.linalg.norm(r) / v_norm))
    if alpha == -1.0:
        return None
    # an affine combination of feasible fields: feasible up to rounding
    return _project_rows(x - 2.0 * alpha * r + alpha * alpha * v, rows)


def irls_solve(
    dataset: Dataset, opts: SolverOptions = SolverOptions(), *, k: int | None = None
) -> tuple[EstimateField, SolveTrace]:
    """Run monotone SQUAREM-accelerated IRLS until a solve's step is small
    relative to the field it started from, ``||Z_t - X_t||_F <= opts.stop_tol
    ||X_t||_F``, or ``opts.max_iter`` subproblems have been solved.

    The IRLS map S reweights from a field and solves the weighted
    subproblem.  The first solve uses uniform weights and its result is the
    first anchor ``x``.  Each cycle then solves ``F1 = S(x)`` and
    ``F2 = S(F1)`` and extrapolates (Varadhan & Roland, *Scand. J. Statist.*
    35, 2008): with ``r = F1 - x``, ``v = F2 - 2 F1 + x`` and
    ``alpha = min(-1, -||r|| / ||v||)``, ``x' = x - 2 alpha r + alpha^2 v``,
    projected onto the row constraints (the coefficients sum to one, so only
    rounding is removed).  One distance pass on ``x'`` gives its smoothed
    objective and weights; ``x'`` becomes the next anchor only if that
    objective is finite and no larger than ``F2``'s, so the objective
    history still never increases, and otherwise the cycle goes on from
    ``F2``.  ``alpha = -1`` (``x' = F2``) skips the pass.  Every returned
    field and history entry is a subproblem solution; the step is the
    distance from a solve's result to the field whose weights it used.

    With ``k >= 2`` the first solve, and only it, is also clustered into
    ``k`` groups and refit; a refit field that the closed-form dual
    certificate proves optimal is returned at once.  Without ``k`` (or with
    ``k = 1``) only the step rule and the cap stop the loop; a ``k`` outside
    ``[1, m]`` raises :class:`DataValidationError` before any solve.

    The feature span, Gram matrix, row norms and reduced-solve border are
    computed once per solve, and each solve makes one distance pass that
    yields both its objective and the next weights; the weights, built
    here, skip :class:`WeightMatrix` validation.

    Non-convergence is reported through ``trace.converged``, not raised.
    A solve whose squared distances or squared row norms overflow
    (estimates near +-1e200) raises :class:`DataValidationError`.
    """
    if k is not None and not 1 <= k <= dataset.m:
        raise DataValidationError(f"k must be in [1, {dataset.m}], got {k}")
    rows = _rows(dataset)  # the features never change
    w = np.ones((dataset.m, dataset.m)) - np.eye(dataset.m)  # uniform weights
    base: np.ndarray | None = None  # the field whose weights w are
    cycle: list[np.ndarray] = []  # the current cycle's anchor, then F1
    history: list[float] = []
    step: float | None = None
    stop_reason = "cap"
    max_feas = 0.0
    extrapolations = 0
    for t in range(1, opts.max_iter + 1):
        z, gap = _weighted_ls(rows, w)
        w, objective = _reweight(z, DELTA)  # next weights, this objective
        if objective == np.inf:
            raise DataValidationError(_TOO_FAR)
        history.append(objective)
        max_feas = max(max_feas, gap)
        if base is not None:
            step_norm = np.linalg.norm(z - base)
            step = float(step_norm / np.sqrt(dataset.m))
        if t == 1 and k is not None and k >= 2:
            certified = _certified_field(rows, z, k)
            if certified is not None:
                z, certified_gap = certified
                max_feas = max(max_feas, certified_gap)
                stop_reason = "certified"
                break
        # relative to the field, so the stop does not depend on the units of b
        if base is not None and step_norm <= opts.stop_tol * np.linalg.norm(base):
            stop_reason = "step"
            break
        base = z
        cycle.append(base)
        if len(cycle) == 3:
            x_new = _squarem_point(*cycle, rows)
            if x_new is not None:
                w_new, f_new = _reweight(x_new, DELTA)
                if np.isfinite(f_new) and f_new <= objective:
                    base, w = x_new, w_new
                    extrapolations += 1
            cycle = [base]
    trace = SolveTrace(
        objective_history=history,
        final_step_norm=step,
        max_feasibility_residual=max_feas,
        stop_reason=stop_reason,
        extrapolations=extrapolations,
    )
    return EstimateField(z), trace
