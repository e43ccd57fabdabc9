"""Iteratively reweighted least squares for the pairwise-fusion program.

The target problem is

    minimize   sum_{i,j} ||z_i - z_j||_2   subject to  a_i^T z_i = b_i,

solved by alternating two steps from uniform initial weights:

1. an equality-constrained weighted least-squares subproblem
   ``argmin sum_{i,j} w_ij ||z_i - z_j||^2  s.t.  a_i^T z_i = b_i``;
2. the weight update ``w_ij = (||z_i - z_j||^2 + delta)^(-1/2)``.

Each subproblem is solved exactly, by one order of solves chosen only by
what the solves observe:

* **Reduced solve, always first.**  The stationarity condition
  ``2 L Z = diag(lam) A_rows``, with ``L`` the weighted graph Laplacian, is
  eliminated through the Laplacian pseudoinverse, leaving an (m + d)
  symmetric-indefinite system in the multipliers plus the free mean
  translation.  ``L^+`` comes from one Cholesky factor of
  ``L + (s/m) 11^T``; the bordered system is factored by Bunch-Kaufman with
  a condition-estimate floor and refined twice.
* **Null-space fallback.**  When the reduced solve breaks down, or its
  result misses the stationarity guard (fused points put weights near
  ``delta**-0.5`` beside O(1) ones and ``L^+`` loses accuracy), each row is
  written as ``z_i = z0_i + B_i y_i`` with ``B_i`` an orthonormal basis of
  the complement of ``a_i``.  The positive definite ``m (d-1)`` system in
  ``y`` is factored by Cholesky, checked against the same floor and refined
  once (Nocedal & Wright, *Numerical Optimization*, §16.2).

Both results are re-projected onto the constraint hyperplanes and must pass
the KKT stationarity and feasibility guards; a null-space result that
misses them raises :class:`NumericalError`.

Degenerate subproblems (disconnected weight graph, or measurement vectors
that do not span the full space) have multiple minimizers; the minimum-norm
one, the least-squares solution of the same null-space system, is returned
along with a :class:`NonUniqueSolutionWarning`.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy.linalg import lapack

from .errors import (
    DataValidationError,
    NonUniqueSolutionWarning,
    NumericalError,
)
from .geometry import orthonormal_complement_bases
from .model import Dataset, EstimateField, recovery_error

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


@dataclass(frozen=True)
class SolverOptions:
    """Solver parameters.

    ``delta`` is the smoothing constant in the weight update and stays fixed
    by default.  Setting ``delta_init`` enables a geometric annealing
    schedule ``delta_t = max(delta, delta_init * delta_decay**(t-1))``.
    """

    delta: float = 1e-16
    max_iter: int = 150
    stop_tol: float = 1e-5
    subproblem_tol: float = 1e-10
    delta_init: float | None = None
    delta_decay: float = 0.5

    def __post_init__(self):
        if not self.delta > 0:
            raise DataValidationError("delta must be positive")
        if self.max_iter < 1:
            raise DataValidationError("max_iter must be at least 1")
        if not (self.stop_tol > 0 and self.subproblem_tol > 0):
            raise DataValidationError("tolerances must be positive")
        if self.delta_init is not None and not self.delta_init > 0:
            raise DataValidationError("delta_init must be positive")
        if not 0 < self.delta_decay <= 1:
            raise DataValidationError("delta_decay must be in (0, 1]")

    def delta_at(self, iteration: int) -> float:
        """Smoothing value for a 1-based iteration index."""
        if self.delta_init is None:
            return self.delta
        return max(self.delta, self.delta_init * self.delta_decay ** (iteration - 1))


@dataclass
class SolveTrace:
    """Per-solve diagnostics."""

    iterations: int
    objective_history: list[float]
    final_step_norm: float | None
    converged: bool
    max_feasibility_residual: float

    def to_dict(self) -> dict:
        return {
            "iterations": self.iterations,
            "objective_history": self.objective_history,
            "final_step_norm": self.final_step_norm,
            "converged": self.converged,
            "max_feasibility_residual": self.max_feasibility_residual,
        }


@dataclass(frozen=True)
class WeightMatrix:
    """Symmetric nonnegative pair weights with a zero diagonal."""

    w: np.ndarray

    def __post_init__(self):
        w = np.array(self.w, dtype=float)
        if w.ndim != 2 or w.shape[0] != w.shape[1]:
            raise DataValidationError("weights must be a square matrix")
        if not np.all(np.isfinite(w)):
            raise DataValidationError("weights contain non-finite values")
        if np.any(w < 0):
            raise DataValidationError("weights must be nonnegative")
        if not np.array_equal(w, w.T):
            raise DataValidationError("weights must be symmetric")
        if np.any(np.diag(w) != 0.0):
            raise DataValidationError("weight diagonal must be zero")
        w.setflags(write=False)
        object.__setattr__(self, "w", w)

    @property
    def m(self) -> int:
        return self.w.shape[0]

    @classmethod
    def uniform(cls, m: int) -> "WeightMatrix":
        w = np.ones((m, m)) - np.eye(m)
        return cls(w)


def _pairwise_sq_dists(z: np.ndarray) -> np.ndarray:
    diffs = z[:, None, :] - z[None, :, :]
    return np.einsum("ijk,ijk->ij", diffs, diffs)


def update_weights(Z, delta: float) -> WeightMatrix:
    """``w_ij = (||z_i - z_j||^2 + delta)^(-1/2)`` with a zero diagonal."""
    if not delta > 0:
        raise DataValidationError("delta must be positive")
    z = Z.z if isinstance(Z, EstimateField) else np.asarray(Z, dtype=float)
    w = 1.0 / np.sqrt(_pairwise_sq_dists(z) + delta)
    np.fill_diagonal(w, 0.0)
    return WeightMatrix(w)


def smoothed_objective(Z, delta: float) -> float:
    """``sum_{i != j} sqrt(||z_i - z_j||^2 + delta)`` (self-pairs excluded)."""
    z = Z.z if isinstance(Z, EstimateField) else np.asarray(Z, dtype=float)
    sq = _pairwise_sq_dists(z)
    vals = np.sqrt(sq + delta)
    np.fill_diagonal(vals, 0.0)
    return float(vals.sum())


def _connected(w: np.ndarray) -> bool:
    m = w.shape[0]
    if np.count_nonzero(w) == m * (m - 1):  # complete, as every IRLS weight graph is
        return True
    seen = np.zeros(m, dtype=bool)
    stack = [0]
    seen[0] = True
    while stack:
        i = stack.pop()
        for j in np.flatnonzero(w[i] > 0.0):
            if not seen[j]:
                seen[j] = True
                stack.append(int(j))
    return bool(seen.all())


def _features_span_full(features: np.ndarray) -> bool:
    svals = np.linalg.svd(features, compute_uv=False)
    return svals.size == features.shape[1] and bool(
        np.sum(svals > 1e-12 * svals[0]) == features.shape[1]
    )


def _sym_solve(M: np.ndarray, rhs: np.ndarray):
    """Solve a symmetric indefinite system; returns (solution, factors).

    Uses the Bunch-Kaufman factorization and raises if the reciprocal
    condition estimate falls below ``RCOND_MIN``.
    """
    anorm = np.linalg.norm(M, 1)
    ldu, ipiv, info = lapack.dsytrf(M, lower=1)
    if info != 0:
        raise NumericalError(f"symmetric factorization failed (info={info})")
    rcond, _ = lapack.dsycon(ldu, ipiv, anorm, lower=1)
    if not np.isfinite(rcond) or rcond < RCOND_MIN:
        raise NumericalError(
            f"KKT system too ill-conditioned (rcond estimate {rcond:.2e})"
        )
    x, info = lapack.dsytrs(ldu, ipiv, rhs[:, None], lower=1)
    if info != 0:
        raise NumericalError(f"symmetric solve failed (info={info})")

    def resolve(r: np.ndarray) -> np.ndarray:
        y, bad = lapack.dsytrs(ldu, ipiv, r[:, None], lower=1)
        if bad != 0:
            raise NumericalError(f"symmetric solve failed (info={bad})")
        return y[:, 0]

    return x[:, 0], resolve


def _laplacian(w: np.ndarray) -> np.ndarray:
    L = -w.copy()
    L[np.diag_indices_from(L)] = w.sum(axis=1)
    return L


def _project_rows(z: np.ndarray, features: np.ndarray, responses: np.ndarray):
    """Exactly restore per-row feasibility a_i^T z_i = b_i."""
    sq = np.einsum("ij,ij->i", features, features)
    gap = np.einsum("ij,ij->i", features, z) - responses
    return z - (gap / sq)[:, None] * features


def _laplacian_pinv(L: np.ndarray) -> np.ndarray:
    """``L^+`` of a connected graph's Laplacian from one Cholesky factor.

    ``K = L + (s/m) 11^T`` with ``s = trace(L)/m`` moves the nullspace
    eigenvalue of ``L`` to ``s`` and keeps the rest, so
    ``L^+ = K^-1 - 11^T / (s m)``.  A factorization breakdown raises.
    """
    m = L.shape[0]
    s = np.trace(L) / m
    c, info = lapack.dpotrf(L + s / m, lower=1)
    if info != 0:
        raise NumericalError(f"Laplacian Cholesky factorization failed (info={info})")
    inv, info = lapack.dpotri(c, lower=1)  # lower triangle; dpotrf zeroed the upper
    if info != 0:
        raise NumericalError(f"Laplacian inverse failed (info={info})")
    inv += np.tril(inv, -1).T
    return inv - 1.0 / (s * m)


def _solve_reduced_kkt(features, responses, L):
    """Solve in (m + d) unknowns via the Laplacian pseudoinverse.

    With ``lam`` the stationarity multipliers (2 L Z = diag(lam) A_rows) and
    ``c`` the free translation along the Laplacian nullspace,

        [[(1/2) (L^+ o G), A_rows], [A_rows^T, 0]] [lam, c] = [b, 0]

    where ``G`` is the Gram matrix of the measurement vectors and ``o`` the
    elementwise product.  Refinement is run against the full KKT residual.
    Returns ``(z, nu)`` with ``nu = -lam``.
    """
    m, d = features.shape
    Lp = _laplacian_pinv(L)

    gram = features @ features.T
    S = np.zeros((m + d, m + d))
    S[:m, :m] = 0.5 * (Lp * gram)
    S[:m, m:] = features
    S[m:, :m] = features.T
    rhs = np.concatenate([responses, np.zeros(d)])
    sol, resolve = _sym_solve(S, rhs)
    lam, c = sol[:m], sol[m:]
    z = 0.5 * (Lp @ (lam[:, None] * features)) + c[None, :]

    for _ in range(2):
        stat_res = lam[:, None] * features - 2.0 * (L @ z)
        feas_res = responses - np.einsum("ij,ij->i", features, z)
        orth_res = -features.T @ lam
        top = feas_res - 0.5 * np.einsum("ij,ij->i", Lp @ stat_res, features)
        corr = resolve(np.concatenate([top, orth_res]))
        dlam, dc = corr[:m], corr[m:]
        z = z + 0.5 * (Lp @ ((dlam[:, None] * features) + stat_res)) + dc[None, :]
        lam = lam + dlam
        c = c + dc
    return z, -lam


def _null_space_system(features, responses, L):
    """The subproblem in null-space coordinates ``z_i = z0_i + B_i y_i``.

    ``z0_i`` is the point of hyperplane i closest to the origin and ``B_i``
    an orthonormal basis of the complement of ``a_i``, so every ``y`` is
    feasible and the objective ``2 tr(Z^T L Z)`` becomes
    ``(1/2) y^T H y + g^T y + const`` with ``H = 4 [L_ij B_i^T B_j]`` and
    ``g_i = 4 B_i^T (L z0)_i``.  Returns ``(z0, B, H, g)``; for d = 1 the
    system is empty.
    """
    m, d = features.shape
    nd = d - 1
    sq = np.einsum("ij,ij->i", features, features)
    z0 = (responses / sq)[:, None] * features
    B = orthonormal_complement_bases(features)
    flat = B.transpose(1, 0, 2).reshape(d, m * nd)  # [B_1, ..., B_m]
    H = flat.T @ flat
    blocks = H.reshape(m, nd, m, nd)
    blocks *= 4.0 * L[:, None, :, None]
    g = 4.0 * np.einsum("ijk,ij->ik", B, L @ z0).ravel()
    return z0, B, H, g


def _from_null_space(z0, B, y):
    return z0 + np.einsum("ijk,ik->ij", B, y.reshape(B.shape[0], B.shape[2]))


def _solve_null_space(features, responses, L):
    """Null-space solve of a unique subproblem (Nocedal & Wright, §16.2).

    ``H`` is positive definite when the graph is connected and the
    measurement vectors span the space; it is factored by Cholesky, checked
    against ``RCOND_MIN`` and refined once.
    """
    z0, B, H, g = _null_space_system(features, responses, L)
    if H.size == 0:  # d = 1: each constraint pins its row
        return z0
    c, info = lapack.dpotrf(H, lower=1)
    if info != 0:
        raise NumericalError(f"null-space Cholesky factorization failed (info={info})")
    rcond, info = lapack.dpocon(c, np.linalg.norm(H, 1), uplo="L")
    if info != 0 or not np.isfinite(rcond) or rcond < RCOND_MIN:
        raise NumericalError(
            f"null-space system too ill-conditioned (rcond estimate {rcond:.2e})"
        )

    def solve(r: np.ndarray) -> np.ndarray:
        x, bad = lapack.dpotrs(c, r[:, None], lower=1)
        if bad != 0:
            raise NumericalError(f"Cholesky solve failed (info={bad})")
        return x[:, 0]

    y = solve(-g)
    y = y + solve(-g - H @ y)  # one refinement step
    return _from_null_space(z0, B, y)


def _solve_min_norm(features, responses, L, tol):
    """Minimum-norm minimizer of a non-unique subproblem.

    The null-space system is singular here; its least-squares solve picks
    the minimum-norm stationary point.
    """
    z0, B, H, g = _null_space_system(features, responses, L)
    y, *_ = np.linalg.lstsq(H, -g, rcond=None)
    H_norm = np.abs(H).sum(axis=1).max(initial=0.0)
    scale = max(1.0, H_norm * np.abs(y).max(initial=0.0))
    if float(np.max(np.abs(H @ y + g), initial=0.0)) > tol * scale:
        raise NumericalError("null-space normal equations are inconsistent")
    return _from_null_space(z0, B, y)


def _stationarity_defect(L, z, nu, features) -> float:
    """Largest per-row residual of ``2 (L z)_i + nu_i a_i = 0``.

    Backward-style check: the residual is compared per row against the
    magnitude of the terms that produced it, which is the sharpest scale at
    which it can be evaluated in floating point.
    """
    stat = 2.0 * (L @ z) + nu[:, None] * features
    row_scale = np.maximum(
        2.0 * (np.abs(L) @ np.linalg.norm(z, axis=1))
        + np.abs(nu) * np.linalg.norm(features, axis=1),
        1.0,
    )
    return float(np.max(np.linalg.norm(stat, axis=1) / row_scale))


def _solve_unique(features, responses, L, tol):
    """Reduced solve first; the null-space solve when it breaks down or its
    projected result misses the stationarity guard."""
    try:
        z, nu = _solve_reduced_kkt(features, responses, L)
    except NumericalError:
        pass
    else:
        z = _project_rows(z, features, responses)
        if _stationarity_defect(L, z, nu, features) <= tol:
            return z
    z = _project_rows(_solve_null_space(features, responses, L), features, responses)
    sq = np.einsum("ij,ij->i", features, features)
    nu = -np.einsum("ij,ij->i", features, 2.0 * (L @ z)) / sq
    if _stationarity_defect(L, z, nu, features) > tol:
        raise NumericalError("KKT stationarity residual above tolerance")
    return z


def weighted_ls_step(
    dataset: Dataset,
    weights: WeightMatrix,
    *,
    subproblem_tol: float = 1e-10,
) -> EstimateField:
    """Exact minimizer of the weighted quadratic under the row constraints.

    Non-unique subproblems (disconnected weight graph or rank-deficient
    measurement span) return the minimum-norm minimizer and emit
    :class:`NonUniqueSolutionWarning`.
    """
    if weights.m != dataset.m:
        raise DataValidationError("weight matrix size does not match dataset")
    features = dataset.features
    responses = dataset.responses
    L = _laplacian(weights.w)

    degenerate = None
    if not _connected(weights.w):
        degenerate = "weight graph is disconnected; returning the minimum-norm minimizer"
    elif not _features_span_full(features):
        degenerate = (
            "measurement vectors do not span the full space; subproblem is "
            "non-unique, returning the minimum-norm minimizer"
        )
    if degenerate is None:
        z = _solve_unique(features, responses, L, subproblem_tol)
    else:
        warnings.warn(degenerate, NonUniqueSolutionWarning)
        z = _solve_min_norm(features, responses, L, subproblem_tol)
        z = _project_rows(z, features, responses)

    gaps = np.abs(np.einsum("ij,ij->i", features, z) - responses)
    bounds = 1e-12 * (
        np.abs(responses)
        + np.linalg.norm(features, axis=1) * np.linalg.norm(z, axis=1)
    ) + 1e-12
    if np.any(gaps > bounds):
        raise NumericalError("constraint residual above tolerance after solve")
    return EstimateField(z)


def irls_solve(
    dataset: Dataset, opts: SolverOptions = SolverOptions()
) -> tuple[EstimateField, SolveTrace]:
    """Run the reweighting loop until the normalized step norm drops below
    ``opts.stop_tol`` or ``opts.max_iter`` subproblems have been solved.

    Non-convergence is reported through ``trace.converged``, not raised.
    """
    weights = WeightMatrix.uniform(dataset.m)
    history: list[float] = []
    prev: EstimateField | None = None
    step: float | None = None
    converged = False
    max_feas = 0.0
    iterations = 0
    for t in range(1, opts.max_iter + 1):
        iterations = t
        delta_t = opts.delta_at(t)
        Z = weighted_ls_step(dataset, weights, subproblem_tol=opts.subproblem_tol)
        history.append(smoothed_objective(Z, delta_t))
        max_feas = max(max_feas, float(np.max(np.abs(
            np.einsum("ij,ij->i", dataset.features, Z.z) - dataset.responses
        ))))
        if prev is not None:
            step = recovery_error(Z, prev)
            if step < opts.stop_tol:
                converged = True
                prev = Z
                break
        prev = Z
        weights = update_weights(Z, delta_t)
    trace = SolveTrace(
        iterations=iterations,
        objective_history=history,
        final_step_norm=step,
        converged=converged,
        max_feasibility_residual=max_feas,
    )
    return prev, trace
