"""Phase-diagram experiment runner.

A phase sweep measures the empirical recovery fraction of the fusion program
over a grid of (dimension, sweep value) cells.  In *aperture* mode the sweep
value is the aperture of the balanced three-class ensemble (16 points per
class, so m = 48); in *imbalance* mode it is the class-three shift of the
``n_p = 4 d`` ensemble.  A trial succeeds when the normalized Frobenius
distance between the solver output and the candidate solution is below the
success tolerance.

Each trial's seed is a pure function of (base_seed, d, sweep index, trial
index), so cells can run in any order or in parallel and reproduce exactly.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import DataValidationError, MixregError
from .model import candidate_solution, recovery_error
from .solver import SolverOptions, irls_solve
from .synth import SIM2_TAU_MAX, Sim1Config, Sim2Config, gen_sim1, gen_sim2

__all__ = [
    "PhaseConfig",
    "TrialRecord",
    "PhaseGrid",
    "trial_seed",
    "run_phase",
    "default_sweep",
    "write_grid_csv",
    "write_grid_pgm",
]

APERTURE_RANGE = (0.0, 0.75)
IMBALANCE_RANGE = (0.0, SIM2_TAU_MAX)
DEFAULT_SWEEP_POINTS = 16
DEFAULT_D_VALUES = tuple(range(3, 16))


def default_sweep(mode: str, points: int = DEFAULT_SWEEP_POINTS) -> tuple[float, ...]:
    lo, hi = APERTURE_RANGE if mode == "aperture" else IMBALANCE_RANGE
    return tuple(float(v) for v in np.linspace(lo, hi, points))


@dataclass(frozen=True)
class PhaseConfig:
    mode: str
    d_values: tuple[int, ...] = DEFAULT_D_VALUES
    sweep_values: tuple[float, ...] = ()
    trials: int = 10
    success_tol: float = 1e-5
    base_seed: int = 0
    solver: SolverOptions = field(default_factory=SolverOptions)
    unsafe: bool = False

    def __post_init__(self):
        if self.mode not in ("aperture", "imbalance"):
            raise DataValidationError("mode must be 'aperture' or 'imbalance'")
        object.__setattr__(self, "d_values", tuple(int(d) for d in self.d_values))
        sweep = self.sweep_values or default_sweep(self.mode)
        object.__setattr__(self, "sweep_values", tuple(float(v) for v in sweep))
        if self.trials < 1:
            raise DataValidationError("trials must be at least 1")
        if not self.success_tol > 0:
            raise DataValidationError("success_tol must be positive")
        if not self.unsafe:
            lo, hi = APERTURE_RANGE if self.mode == "aperture" else IMBALANCE_RANGE
            bad = [v for v in self.sweep_values if not lo <= v <= hi]
            if bad:
                raise DataValidationError(
                    f"sweep value {bad[0]} outside [{lo}, {hi}] "
                    "(pass unsafe=True to override)"
                )
        if any(d < 3 for d in self.d_values):
            raise DataValidationError("three-class ensembles require d >= 3")


@dataclass(frozen=True)
class TrialRecord:
    seed: int
    recovery_error: float | None
    iterations: int
    converged: bool
    failed: bool
    success: bool
    error: str | None = None  # "<ErrorClass>: <message>" when failed

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "recovery_error": self.recovery_error,
            "iterations": self.iterations,
            "converged": self.converged,
            "failed": self.failed,
            "success": self.success,
            "error": self.error,
        }


@dataclass(frozen=True)
class PhaseGrid:
    mode: str
    d_values: tuple[int, ...]
    sweep_values: tuple[float, ...]
    trials: int
    success_tol: float
    base_seed: int
    fractions: np.ndarray  # shape (len(d_values), len(sweep_values))
    records: tuple  # records[d_index][sweep_index] -> tuple[TrialRecord, ...]

    def __post_init__(self):
        f = np.asarray(self.fractions, dtype=float)
        f.setflags(write=False)
        object.__setattr__(self, "fractions", f)

    def fraction(self, d: int, value: float) -> float:
        di = self.d_values.index(d)
        si = self.sweep_values.index(value)
        return float(self.fractions[di, si])

    def to_dict(self) -> dict:
        return {
            "mode": self.mode,
            "d_values": list(self.d_values),
            "sweep_values": list(self.sweep_values),
            "trials": self.trials,
            "success_tol": self.success_tol,
            "base_seed": self.base_seed,
            "fractions": self.fractions.tolist(),
            "cells": [
                {
                    "d": d,
                    "value": v,
                    "successes": int(round(self.fractions[di, si] * self.trials)),
                    "records": [r.to_dict() for r in self.records[di][si]],
                }
                for di, d in enumerate(self.d_values)
                for si, v in enumerate(self.sweep_values)
            ],
        }


def trial_seed(base_seed: int, d: int, sweep_index: int, trial_index: int) -> int:
    """Deterministic per-trial seed; depends only on its arguments."""
    ss = np.random.SeedSequence([base_seed, d, sweep_index, trial_index])
    return int(ss.generate_state(1, np.uint64)[0])


def _run_trial(cfg: PhaseConfig, d: int, sweep_index: int, trial_index: int) -> TrialRecord:
    seed = trial_seed(cfg.base_seed, d, sweep_index, trial_index)
    value = cfg.sweep_values[sweep_index]
    try:
        if cfg.mode == "aperture":
            dataset, model = gen_sim1(
                Sim1Config(k=3, d=d, n_per_class=16, alpha=value, seed=seed)
            )
        else:
            dataset, model = gen_sim2(Sim2Config(d=d, tau=value, seed=seed))
        estimate, trace = irls_solve(dataset, cfg.solver)
        err = recovery_error(estimate, candidate_solution(dataset, model))
        return TrialRecord(
            seed=seed,
            recovery_error=err,
            iterations=trace.iterations,
            converged=trace.converged,
            failed=False,
            success=bool(err < cfg.success_tol),
        )
    except MixregError as exc:
        return TrialRecord(
            seed=seed,
            recovery_error=None,
            iterations=0,
            converged=False,
            failed=True,
            success=False,
            error=f"{type(exc).__name__}: {exc}",
        )


def _run_cell(args) -> tuple[int, int, tuple[TrialRecord, ...]]:
    cfg, di, si = args
    d = cfg.d_values[di]
    recs = tuple(_run_trial(cfg, d, si, t) for t in range(cfg.trials))
    return di, si, recs


def run_phase(cfg: PhaseConfig, workers: int = 1) -> PhaseGrid:
    """Run every (d, sweep value, trial) cell; failures never abort the sweep."""
    tasks = [
        (cfg, di, si)
        for di in range(len(cfg.d_values))
        for si in range(len(cfg.sweep_values))
    ]
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_run_cell, tasks))
    else:
        results = [_run_cell(t) for t in tasks]
    n_d, n_s = len(cfg.d_values), len(cfg.sweep_values)
    fractions = np.zeros((n_d, n_s))
    records = [[None] * n_s for _ in range(n_d)]
    for di, si, recs in results:
        records[di][si] = recs
        fractions[di, si] = sum(r.success for r in recs) / cfg.trials
    return PhaseGrid(
        mode=cfg.mode,
        d_values=cfg.d_values,
        sweep_values=cfg.sweep_values,
        trials=cfg.trials,
        success_tol=cfg.success_tol,
        base_seed=cfg.base_seed,
        fractions=fractions,
        records=tuple(tuple(row) for row in records),
    )


def write_grid_csv(grid: PhaseGrid, path) -> None:
    value_name = "alpha" if grid.mode == "aperture" else "tau"
    lines = [f"d,{value_name},fraction,successes,trials"]
    for di, d in enumerate(grid.d_values):
        for si, v in enumerate(grid.sweep_values):
            frac = float(grid.fractions[di, si])
            lines.append(
                f"{d},{float(v)!r},{frac!r},{int(round(frac * grid.trials))},{grid.trials}"
            )
    Path(path).write_text("\n".join(lines) + "\n")


def write_grid_pgm(grid: PhaseGrid, path) -> None:
    """Plain (P2) grayscale image: one pixel per cell, white = fraction 1.

    Rows are sweep values (top row = first value), columns are dimensions.
    """
    height = len(grid.sweep_values)
    width = len(grid.d_values)
    rows = []
    for si in range(height):
        rows.append(
            " ".join(str(int(round(255 * grid.fractions[di, si]))) for di in range(width))
        )
    Path(path).write_text(f"P2\n{width} {height}\n255\n" + "\n".join(rows) + "\n")
