"""End-to-end fitting: fusion solve, clustering of the per-point estimates,
and per-class regression refits."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cluster import RefitResult, kmeans, refit_regression
from .model import Dataset, EstimateField
from .solver import SolveTrace, SolverOptions, irls_solve

__all__ = ["FitReport", "fit_pipeline"]


@dataclass
class FitReport:
    """One fit's refit coefficients and labels; ``k``, the number of
    classes, is the number of rows of ``betas_hat``."""

    betas_hat: np.ndarray
    labels: np.ndarray
    per_class_residual: np.ndarray
    inertia: float
    trace: SolveTrace

    @property
    def k(self) -> int:
        return self.betas_hat.shape[0]

    def to_dict(self) -> dict:
        return {
            "k": self.k,
            "betas_hat": self.betas_hat.tolist(),
            "labels": [int(v) + 1 for v in self.labels],  # 1-based for I/O
            "per_class_residual": self.per_class_residual.tolist(),
            "inertia": self.inertia,
            "trace": self.trace.to_dict(),
        }


def fit_pipeline(
    dataset: Dataset,
    k: int,
    opts: SolverOptions = SolverOptions(),
) -> tuple[FitReport, EstimateField]:
    """Solve, cluster into ``k`` groups, and refit one model per group.

    The solve is given ``k``, so it may end early on a certified optimum
    (see :func:`mixreg.solver.irls_solve`); the labels then come from the
    distinct rows of the certified field, one per class, with inertia 0.
    Otherwise they come from :func:`mixreg.cluster.kmeans` with its own
    default restarts and seed.
    """
    estimates, trace = irls_solve(dataset, opts, k=k)
    if trace.stop_reason == "certified":
        # one distinct row per class; numpy 2.0.0 returned the inverse as 2-D
        _, inverse = np.unique(estimates.z, axis=0, return_inverse=True)
        labels, inertia = inverse.reshape(-1), 0.0
    else:
        clustering = kmeans(estimates.z, k)
        labels, inertia = clustering.labels, clustering.inertia
    refit: RefitResult = refit_regression(dataset, labels)
    report = FitReport(
        betas_hat=refit.betas_hat,
        labels=labels,
        per_class_residual=refit.per_class_residual,
        inertia=inertia,
        trace=trace,
    )
    return report, estimates
