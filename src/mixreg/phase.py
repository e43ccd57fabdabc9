"""Phase-diagram experiment runner.

A phase sweep measures the empirical recovery fraction of the fusion program
over a grid of (dimension, sweep value) cells.  In *aperture* mode the sweep
value is the aperture of the balanced three-class ensemble (16 points per
class, so m = 48); in *imbalance* mode it is the class-three shift of the
``n_p = 4 d`` ensemble.  A trial succeeds when the normalized Frobenius
distance between the solver output and the candidate solution is below the
fixed threshold ``SUCCESS_TOL = 1e-5``.

Each trial's seed is a pure function of (base_seed, d, sweep index, trial
index), so trials can run in any order and in any process and the grid
reproduces exactly.  ``run_phase`` hands trials out one at a time from one
shared counter to the calling process and to ``workers - 1`` child
processes, so one worker runs every trial here, through the same counter.
"""

from __future__ import annotations

import itertools
import multiprocessing
from dataclasses import dataclass, field
from numbers import Integral
from pathlib import Path

import numpy as np

from .errors import DataValidationError, MixregError
from .model import candidate_solution, recovery_error
from .solver import SolverOptions, irls_solve
from .synth import SIM1_ALPHA_MAX, SIM2_TAU_MAX, Sim1Config, Sim2Config, gen_sim1, gen_sim2

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

_RANGES = {"aperture": (0.0, SIM1_ALPHA_MAX), "imbalance": (0.0, SIM2_TAU_MAX)}
DEFAULT_SWEEP_POINTS = 16
DEFAULT_D_VALUES = tuple(range(3, 16))
# A trial succeeds when its normalized recovery error is below this.
SUCCESS_TOL = 1e-5


def _sweep_range(mode: str) -> tuple[float, float]:
    if mode not in _RANGES:
        raise DataValidationError("mode must be 'aperture' or 'imbalance'")
    return _RANGES[mode]


def default_sweep(mode: str) -> tuple[float, ...]:
    lo, hi = _sweep_range(mode)
    return tuple(float(v) for v in np.linspace(lo, hi, DEFAULT_SWEEP_POINTS))


@dataclass(frozen=True)
class PhaseConfig:
    mode: str
    d_values: tuple[int, ...] = DEFAULT_D_VALUES
    sweep_values: tuple[float, ...] = ()
    trials: int = 10
    base_seed: int = 0
    solver: SolverOptions = field(default_factory=SolverOptions)

    def __post_init__(self):
        lo, hi = _sweep_range(self.mode)
        if not all(isinstance(d, Integral) for d in self.d_values):
            raise DataValidationError("d_values must be integers")
        object.__setattr__(self, "d_values", tuple(int(d) for d in self.d_values))
        sweep = self.sweep_values or default_sweep(self.mode)
        object.__setattr__(self, "sweep_values", tuple(float(v) for v in sweep))
        if not self.d_values:
            raise DataValidationError("d_values must name at least one dimension")
        if not isinstance(self.trials, Integral) or self.trials < 1:
            raise DataValidationError("trials must be at least 1 and an integer")
        if not isinstance(self.base_seed, Integral) or self.base_seed < 0:
            raise DataValidationError("base_seed must be nonnegative and an integer")
        # numpy integers are accepted; the grid's JSON needs Python ints
        object.__setattr__(self, "trials", int(self.trials))
        object.__setattr__(self, "base_seed", int(self.base_seed))
        bad = [v for v in self.sweep_values if not lo <= v <= hi]
        if bad:
            raise DataValidationError(f"sweep value {bad[0]} outside [{lo}, {hi}]")
        if any(d < 3 for d in self.d_values):
            raise DataValidationError("three-class ensembles require d >= 3")


@dataclass(frozen=True)
class TrialRecord:
    seed: int
    recovery_error: float | None
    iterations: int
    error: str | None = None  # "<ErrorClass>: <message>" when failed
    stop_reason: str | None = None  # the solve's SolveTrace.stop_reason

    @property
    def success(self) -> bool:
        return self.recovery_error is not None and self.recovery_error < SUCCESS_TOL

    @property
    def converged(self) -> bool:
        return self.stop_reason not in (None, "cap")

    @property
    def failed(self) -> bool:
        return self.error is not None

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "recovery_error": self.recovery_error,
            "iterations": self.iterations,
            "converged": self.converged,
            "failed": self.failed,
            "success": self.success,
            "error": self.error,
            "stop_reason": self.stop_reason,
        }


@dataclass(frozen=True)
class PhaseGrid:
    config: PhaseConfig
    records: tuple  # records[d_index][sweep_index] -> tuple[TrialRecord, ...]

    @property
    def successes(self) -> np.ndarray:
        """Successful trials per cell, shape (len(d_values), len(sweep_values))."""
        counts = [[sum(r.success for r in cell) for cell in row] for row in self.records]
        shape = (len(self.config.d_values), len(self.config.sweep_values))
        return np.array(counts, dtype=int).reshape(shape)

    @property
    def fractions(self) -> np.ndarray:
        return self.successes / self.config.trials

    def to_dict(self) -> dict:
        cfg = self.config
        successes = self.successes
        return {
            "mode": cfg.mode,
            "d_values": list(cfg.d_values),
            "sweep_values": list(cfg.sweep_values),
            "trials": cfg.trials,
            "success_tol": SUCCESS_TOL,
            "base_seed": cfg.base_seed,
            "fractions": self.fractions.tolist(),
            "cells": [
                {
                    "d": d,
                    "value": v,
                    "successes": int(successes[di, si]),
                    "records": [r.to_dict() for r in self.records[di][si]],
                }
                for di, d in enumerate(cfg.d_values)
                for si, v in enumerate(cfg.sweep_values)
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
        estimate, trace = irls_solve(dataset, cfg.solver, k=model.k)
        err = recovery_error(estimate, candidate_solution(dataset, model))
        return TrialRecord(
            seed=seed,
            recovery_error=err,
            iterations=trace.iterations,
            stop_reason=trace.stop_reason,
        )
    except MixregError as exc:
        return TrialRecord(
            seed=seed,
            recovery_error=None,
            iterations=0,
            error=f"{type(exc).__name__}: {exc}",
        )


def _run_share(cfg: PhaseConfig, trials: list, counter) -> dict[int, TrialRecord]:
    """Run ``trials[i]`` for each index taken from ``counter``, until one is
    past the end; this process's share of the grid, keyed by index."""
    done = {}
    while True:
        with counter.get_lock():
            i = counter.value
            counter.value = i + 1
        if i >= len(trials):
            return done
        di, si, t = trials[i]
        done[i] = _run_trial(cfg, cfg.d_values[di], si, t)


def _child(cfg: PhaseConfig, trials: list, counter, send) -> None:
    """A child process's loop: sends its share, or the exception that ended
    it, back once."""
    try:
        result = _run_share(cfg, trials, counter)
    except Exception as exc:
        with counter.get_lock():
            counter.value = len(trials)  # the others stop after their trial
        result = exc
    send.send(result)
    send.close()


def _run_shared(cfg: PhaseConfig, trials: list, workers: int) -> dict[int, TrialRecord]:
    """Run ``trials`` in this process and ``workers - 1`` children."""
    ctx = multiprocessing.get_context()
    counter = ctx.Value("q", 0)
    children = []
    try:
        for _ in range(workers - 1):
            receive, send = ctx.Pipe(duplex=False)
            child = ctx.Process(target=_child, args=(cfg, trials, counter, send), daemon=True)
            child.start()
            send.close()  # the child holds the only write end: its exit means EOF
            children.append((child, receive))
        done = _run_share(cfg, trials, counter)
        for child, receive in children:
            try:
                result = receive.recv()
            except EOFError:
                child.join()
                raise RuntimeError(
                    f"phase worker exited with code {child.exitcode} before "
                    "sending its trials"
                ) from None
            if isinstance(result, BaseException):
                raise result
            done.update(result)
    except BaseException:
        for child, _ in children:
            child.terminate()  # one blocked on a full pipe would never join
        raise
    finally:
        for child, receive in children:
            child.join()
            receive.close()
    return done


def run_phase(cfg: PhaseConfig, workers: int = 1) -> PhaseGrid:
    """Run every (d, sweep value, trial) of the grid; trial failures are
    recorded, never raised.

    ``workers`` counts the processes that run trials, this one included: it
    must be at least 1 and is capped at the number of cells, and
    ``workers - 1`` children are started.  Trials are handed out one at a
    time from one shared counter, so a process that finishes early takes
    the next one.  With one process no child is started, and this process
    takes every trial from the same counter.  Any other exception, in this
    process or a child, is re-raised here, and no child outlives the call.
    """
    if workers < 1:
        raise DataValidationError("workers must be at least 1")
    n_d, n_s, n_t = len(cfg.d_values), len(cfg.sweep_values), cfg.trials
    trials = list(itertools.product(range(n_d), range(n_s), range(n_t)))
    done = _run_shared(cfg, trials, min(workers, n_d * n_s))
    # trials are in (d, sweep value, trial) order: n_t per cell, n_s cells per d
    cells = [tuple(done[i] for i in range(j, j + n_t)) for j in range(0, len(trials), n_t)]
    records = tuple(tuple(cells[i : i + n_s]) for i in range(0, len(cells), n_s))
    return PhaseGrid(config=cfg, records=records)


def write_grid_csv(grid: PhaseGrid, path) -> None:
    cfg = grid.config
    value_name = "alpha" if cfg.mode == "aperture" else "tau"
    lines = [f"d,{value_name},fraction,successes,trials"]
    successes = grid.successes
    for di, d in enumerate(cfg.d_values):
        for si, v in enumerate(cfg.sweep_values):
            n = int(successes[di, si])
            lines.append(f"{d},{float(v)!r},{n / cfg.trials!r},{n},{cfg.trials}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_grid_pgm(grid: PhaseGrid, path) -> None:
    """Plain (P2) grayscale image: one pixel per cell, white = fraction 1.

    Rows are sweep values (top row = first value), columns are dimensions.
    """
    fractions = grid.fractions
    width, height = fractions.shape
    rows = []
    for si in range(height):
        rows.append(
            " ".join(str(int(round(255 * fractions[di, si]))) for di in range(width))
        )
    Path(path).write_text(
        f"P2\n{width} {height}\n255\n" + "\n".join(rows) + "\n", encoding="utf-8"
    )
