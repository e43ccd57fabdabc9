"""Closed-form dual certificate for exact recovery of a labeled instance.

Point ``i`` of class ``p`` (weighted direction ``v_p``, size ``n_p``) has
the target ``c_i = (m - n_p) v_p``, and the multipliers are

    nu_i   = ||c_i|| / (a_i . c_i / ||c_i||)
    xi_ij  = (nu_i * P_perp a_i - nu_j * P_perp a_j) / n_p

where ``P_perp`` projects onto the complement of ``span{c_i}``.
The certificate proves the candidate solution (each point assigned its own
class's coefficients) is the unique minimizer of the pairwise-fusion program
when three conditions hold:

* stationarity: ``nu_i a_i = sum_{j in class, j != i} xi_ij + c_i``
  for every point;
* strict bound: ``gamma = max ||xi_ij|| < 1``;
* antisymmetry: ``xi_ij = -xi_ji`` (structural here: only the m x d rows
  ``nu_i * P_perp a_i`` are stored, and each ``xi_ij`` is the difference of
  two of them over ``n_p``).

Stationarity holds exactly when the instance is balanced; the verdict reports
the worst-case stationarity defect so imbalanced data fails cleanly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CertificateUndefinedError, DataValidationError
from .geometry import _class_spans, _split_rows, _targets
from .model import Dataset, MixtureModel, _frozen_array

__all__ = ["Certificate", "CertificateVerdict", "build_certificate", "verify_certificate"]

DEFAULT_S1_TOL = 1e-8
GAMMA_BORDERLINE = 1e-9


@dataclass(frozen=True)
class Certificate:
    """Multipliers (nu, xi) for one labeled instance.

    ``rows`` is the m x d matrix with row ``i`` equal to ``nu_i * P_perp a_i``.
    The multipliers ``xi_ij = (rows[i] - rows[j]) / n_p`` for ``i, j`` in one
    class are not stored; they are antisymmetric exactly (IEEE subtraction
    is antisymmetric).
    """

    nu: np.ndarray
    rows: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        for name, dtype in (("nu", float), ("rows", float), ("labels", np.int64)):
            object.__setattr__(self, name, _frozen_array(getattr(self, name), dtype))

    @property
    def gamma(self) -> float:
        """``max ||xi_ij||`` over every within-class pair."""
        gamma = 0.0
        for p in np.unique(self.labels):
            R = self.rows[self.labels == p]
            # direct row differences: a Gram-matrix form loses the digits
            # the borderline flag needs
            diffs = R[:, None, :] - R[None, :, :]
            gamma = max(gamma, float(np.max(np.linalg.norm(diffs, axis=2))) / R.shape[0])
        return gamma


@dataclass(frozen=True)
class CertificateVerdict:
    """Result of checking the certificate conditions.

    ``certifies`` is true exactly when the stationarity defect is within
    ``tol * s1_scale``, ``gamma`` is strictly below one, and every class
    spans the full space.
    """

    s1_residual: float
    s1_scale: float
    gamma: float
    spans_ok: bool

    @property
    def tol(self) -> float:
        return DEFAULT_S1_TOL

    @property
    def strict_gamma(self) -> bool:
        return self.gamma < 1.0

    @property
    def borderline_gamma(self) -> bool:
        return self.strict_gamma and self.gamma >= 1.0 - GAMMA_BORDERLINE

    @property
    def certifies(self) -> bool:
        stationary = self.s1_residual <= self.tol * self.s1_scale
        return stationary and self.strict_gamma and self.spans_ok

    def to_dict(self) -> dict:
        return {
            "s1_residual": self.s1_residual,
            "s1_scale": self.s1_scale,
            "tol": self.tol,
            "gamma": self.gamma,
            "strict_gamma": self.strict_gamma,
            "borderline_gamma": self.borderline_gamma,
            "spans_ok": self.spans_ok,
            "certifies": self.certifies,
        }


def build_certificate(dataset: Dataset, model: MixtureModel) -> Certificate:
    """Construct the closed-form multipliers for a labeled instance.

    Raises :class:`CertificateUndefinedError` naming the first measurement
    that is exactly orthogonal to its class direction (the formulas divide
    by that projection).
    """
    nu, rows = _closed_form(dataset.features, _targets(dataset, model))
    return Certificate(nu=nu, rows=rows, labels=dataset.labels)


def _closed_form(features: np.ndarray, targets: np.ndarray):
    """:func:`build_certificate`'s ``(nu, rows)`` on raw arrays, unchecked."""
    coef, ortho, orthogonal = _split_rows(features, targets)
    if np.any(orthogonal):
        row = int(np.argmax(orthogonal))
        raise CertificateUndefinedError(
            f"certificate undefined: measurement row {row} is orthogonal "
            f"to its class direction",
            row_index=row,
        )
    nu = np.linalg.norm(targets, axis=1) / coef
    # the P_perp form: nu_i a_i - c_i cancels at small apertures
    return nu, nu[:, None] * ortho


def verify_certificate(
    cert: Certificate, dataset: Dataset, model: MixtureModel
) -> CertificateVerdict:
    """Check stationarity, the strict gamma bound, and the span condition.

    The targets are recomputed from ``(dataset, model)``.  The stationarity
    defect is compared against the relative bound
    ``DEFAULT_S1_TOL * max_i ||nu_i a_i||``.  The gamma test is strict (no
    slack); values within 1e-9 below one are flagged as borderline.
    """
    targets = _targets(dataset, model)
    if not np.array_equal(cert.labels, dataset.labels):
        raise DataValidationError("certificate was built for different labels")
    if cert.nu.shape != (dataset.m,) or cert.rows.shape != dataset.features.shape:
        raise DataValidationError("certificate size does not match dataset")

    s1_residual, s1_scale, _ = _stationarity(dataset.features, targets, cert.nu, cert.rows,
                                             dataset.labels, model.sizes)
    return CertificateVerdict(
        s1_residual=s1_residual,
        s1_scale=s1_scale,
        gamma=cert.gamma,
        spans_ok=bool(np.all(_class_spans(dataset, model.k))),
    )


def _stationarity(features, targets, nu, rows, labels, sizes):
    """:func:`verify_certificate`'s stationarity defect and scale on raw arrays,
    unchecked, and ``2 max_i ||rows_i - mean_p|| / n_p >= gamma`` from the
    same deviations ``rows_i - mean_p = sum_{j != i} xi_ij``."""
    means = np.zeros((sizes.size, features.shape[1]))
    np.add.at(means, labels, rows)
    means /= sizes[:, None]
    deviation = rows - means[labels]
    defect = nu[:, None] * features - deviation - targets
    scale = float(np.max(np.abs(nu) * np.linalg.norm(features, axis=1)))
    bound = 2.0 * float(np.max(np.linalg.norm(deviation, axis=1) / sizes[labels]))
    return float(np.max(np.linalg.norm(defect, axis=1))), scale, bound
