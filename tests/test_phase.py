import multiprocessing
import os
import time

import numpy as np
import pytest

import mixreg.phase as phase_mod
from mixreg.errors import DataValidationError, NumericalError
from mixreg.phase import (
    SUCCESS_TOL,
    PhaseConfig,
    default_sweep,
    run_phase,
    trial_seed,
    write_grid_csv,
    write_grid_pgm,
)
from mixreg.solver import SolverOptions
from mixreg.synth import Sim1Config, gen_sim1


def _tiny_cfg(**kwargs):
    defaults = dict(
        mode="aperture",
        d_values=(3,),
        sweep_values=(0.1,),
        trials=3,
        base_seed=7,
    )
    defaults.update(kwargs)
    return PhaseConfig(**defaults)


def test_trial_seed_is_pure():
    a = trial_seed(0, 5, 2, 9)
    b = trial_seed(0, 5, 2, 9)
    assert a == b
    assert trial_seed(0, 5, 2, 8) != a
    assert trial_seed(1, 5, 2, 9) != a


def test_default_sweeps():
    alphas = default_sweep("aperture")
    assert len(alphas) == 16
    assert alphas[0] == 0.0 and alphas[-1] == 0.75
    taus = default_sweep("imbalance")
    assert taus[0] == 0.0 and taus[-1] == pytest.approx(0.062)


def test_config_validation():
    with pytest.raises(DataValidationError):
        PhaseConfig(mode="nope")
    with pytest.raises(DataValidationError):
        _tiny_cfg(sweep_values=(0.9,))
    with pytest.raises(DataValidationError):
        _tiny_cfg(trials=0)
    with pytest.raises(DataValidationError):
        _tiny_cfg(d_values=(2,))


def test_small_grid_recovers():
    grid = run_phase(_tiny_cfg())
    assert grid.fractions.shape == (1, 1)
    assert grid.fractions[0, 0] == 1.0
    recs = grid.records[0][0]
    assert len(recs) == 3
    assert all(r.success and not r.failed and r.error is None for r in recs)
    assert all(r.recovery_error < 1e-5 for r in recs)


def test_grid_reproducible_and_worker_independent():
    cfg = _tiny_cfg(d_values=(3, 4), sweep_values=(0.1, 0.4), trials=2)
    a = run_phase(cfg, workers=1)
    b = run_phase(cfg, workers=1)
    c = run_phase(cfg, workers=2)
    assert np.array_equal(a.fractions, b.fractions)
    assert np.array_equal(a.fractions, c.fractions)
    for da, dc in zip(a.records, c.records):
        for ra, rc in zip(da, dc):
            assert [r.to_dict() for r in ra] == [r.to_dict() for r in rc]


def test_solver_failure_recorded_not_raised(monkeypatch):
    def boom(dataset, opts, k=None):
        raise NumericalError("forced failure")

    monkeypatch.setattr(phase_mod, "irls_solve", boom)
    grid = run_phase(_tiny_cfg())
    assert grid.fractions[0, 0] == 0.0
    assert all(r.failed and not r.success for r in grid.records[0][0])
    assert all(
        r.to_dict()["error"] == "NumericalError: forced failure"
        for r in grid.records[0][0]
    )


def test_trial_records_carry_stop_reason(monkeypatch):
    grid = run_phase(_tiny_cfg(trials=2))
    assert all(r.converged and not r.failed for r in grid.records[0][0])
    records = grid.to_dict()["cells"][0]["records"]
    assert [r["stop_reason"] for r in records] == ["certified", "certified"]
    assert all(r["iterations"] == 1 and r["success"] for r in records)
    assert all(r["converged"] is True and r["failed"] is False for r in records)

    # an imbalanced cell cannot certify, and two subproblems stop at the cap
    capped = run_phase(_tiny_cfg(
        mode="imbalance", sweep_values=(0.02,), trials=1,
        solver=SolverOptions(max_iter=2),
    ))
    rec = capped.records[0][0][0]
    assert rec.stop_reason == "cap" and not rec.converged and not rec.failed
    assert rec.to_dict()["converged"] is False

    def boom(dataset, opts, k=None):
        raise NumericalError("forced failure")

    monkeypatch.setattr(phase_mod, "irls_solve", boom)
    failed_grid = run_phase(_tiny_cfg(trials=1))
    rec = failed_grid.records[0][0][0]
    assert rec.failed and not rec.converged and rec.error is not None
    failed = failed_grid.to_dict()["cells"][0]["records"]
    assert failed[0]["stop_reason"] is None
    assert failed[0]["failed"] is True and failed[0]["converged"] is False


def test_grid_outputs(tmp_path):
    cfg = _tiny_cfg(d_values=(3, 4), sweep_values=(0.1, 0.5), trials=2)
    grid = run_phase(cfg)
    csv_path = tmp_path / "grid.csv"
    pgm_path = tmp_path / "grid.pgm"
    write_grid_csv(grid, csv_path)
    write_grid_pgm(grid, pgm_path)

    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "d,alpha,fraction,successes,trials"
    assert len(lines) == 5
    first = lines[1].split(",")
    assert int(first[0]) == 3
    assert float(first[2]) == grid.fractions[0, 0]
    assert int(first[3]) == round(grid.fractions[0, 0] * 2)

    pgm = pgm_path.read_text().splitlines()
    assert pgm[0] == "P2"
    assert pgm[1] == "2 2"  # width = #dims, height = #sweep values
    assert pgm[2] == "255"
    pixels = [int(v) for row in pgm[3:] for v in row.split()]
    expected = [
        int(round(255 * grid.fractions[di, si]))
        for si in range(2)
        for di in range(2)
    ]
    assert pixels == expected

    payload = grid.to_dict()
    assert grid.config is cfg
    assert payload["mode"] == "aperture"
    assert payload["success_tol"] == SUCCESS_TOL == 1e-5
    assert len(payload["cells"]) == 4
    assert [c["successes"] for c in payload["cells"]] == grid.successes.ravel().tolist()
    assert np.array_equal(grid.fractions, grid.successes / 2)
    assert all({"d", "value", "successes", "records"} <= set(c) for c in payload["cells"])


def test_grid_with_custom_solver_options():
    cfg = _tiny_cfg(trials=1, solver=SolverOptions(max_iter=2))
    grid = run_phase(cfg)
    assert grid.records[0][0][0].iterations <= 2


_CONTEXT = multiprocessing.get_context()
fork_only = pytest.mark.skipif(
    _CONTEXT.get_start_method() != "fork",
    reason="children see this process's monkeypatches only when forked",
)


class _CountingProcess(_CONTEXT.Process):
    """The default context's process class, counting the children started."""

    started = 0

    def start(self):
        type(self).started += 1
        super().start()


def test_workers_validated_and_capped_at_cell_count(monkeypatch):
    monkeypatch.setattr(_CountingProcess, "started", 0)
    monkeypatch.setattr(_CONTEXT, "Process", _CountingProcess)
    for workers in (0, -3):
        with pytest.raises(DataValidationError, match="workers must be at least 1"):
            run_phase(_tiny_cfg(trials=1), workers=workers)
    assert _CountingProcess.started == 0
    one_cell = run_phase(_tiny_cfg(trials=1), workers=5000)
    assert _CountingProcess.started == 0  # a single cell runs in this process
    two_cells = run_phase(_tiny_cfg(sweep_values=(0.1, 0.2), trials=1), workers=5000)
    assert _CountingProcess.started == 1  # this process and one child
    assert one_cell.fractions.tolist() == [[1.0]]
    assert two_cells.fractions.tolist() == [[1.0, 1.0]]
    assert multiprocessing.active_children() == []


@fork_only
def test_grid_identical_for_every_worker_count(monkeypatch):
    cfg = _tiny_cfg(d_values=(3, 4), sweep_values=(0.1, 0.2), trials=3)
    # the (d = 4, alpha = 0.2) cell's instances, recognized by their responses
    failing = {
        gen_sim1(Sim1Config(k=3, d=4, n_per_class=16, alpha=0.2,
                            seed=trial_seed(cfg.base_seed, 4, 1, t)))[0].responses.tobytes()
        for t in range(cfg.trials)
    }
    solve = phase_mod.irls_solve

    def fail_one_cell(dataset, opts, k=None):
        if dataset.responses.tobytes() in failing:
            raise NumericalError("forced failure")
        return solve(dataset, opts, k=k)

    monkeypatch.setattr(phase_mod, "irls_solve", fail_one_cell)
    grids = [run_phase(cfg, workers=w).to_dict() for w in (1, 2, 3)]
    assert grids[1] == grids[0] and grids[2] == grids[0]
    assert [[r["failed"] for r in c["records"]] for c in grids[0]["cells"]] == [
        [False] * 3, [False] * 3, [False] * 3, [True] * 3,
    ]
    assert grids[0]["fractions"] == [[1.0, 1.0], [1.0, 0.0]]


@fork_only
def test_exceptions_propagate_and_no_child_survives(monkeypatch):
    cfg = _tiny_cfg(sweep_values=(0.1, 0.2), trials=3)
    run_trial = phase_mod._run_trial
    parent = os.getpid()

    def raise_on_one_trial(cfg, d, si, t):
        if (si, t) == (1, 1):
            raise RuntimeError("trial boom")
        return run_trial(cfg, d, si, t)

    def raise_in_child(cfg, d, si, t):
        if os.getpid() != parent:
            raise RuntimeError("child boom")
        time.sleep(0.05)  # leave trials for the child to take
        return run_trial(cfg, d, si, t)

    def child_dies(cfg, d, si, t):
        if os.getpid() != parent:
            os._exit(7)
        return run_trial(cfg, d, si, t)

    for patch, message in [
        (raise_on_one_trial, "trial boom"),
        (raise_in_child, "child boom"),
        (child_dies, "exited with code 7"),
    ]:
        monkeypatch.setattr(phase_mod, "_run_trial", patch)
        with pytest.raises(RuntimeError, match=message):
            run_phase(cfg, workers=2)
        assert multiprocessing.active_children() == []


@fork_only
def test_each_trial_runs_once_under_contention(monkeypatch):
    # instant trials and more processes than cores keep the shared counter
    # contended; a lost update would run some trial twice
    calls = _CONTEXT.Value("q", 0)

    def count(cfg, d, si, t):
        with calls.get_lock():
            calls.value += 1
        return phase_mod.TrialRecord(seed=t, recovery_error=0.0, iterations=si)

    monkeypatch.setattr(phase_mod, "_run_trial", count)
    cfg = _tiny_cfg(d_values=(3, 4), sweep_values=(0.1, 0.2), trials=500)
    grid = run_phase(cfg, workers=4)
    assert calls.value == 2 * 2 * 500
    got = [[[(r.seed, r.iterations) for r in cell] for cell in row] for row in grid.records]
    assert got == [[[(t, si) for t in range(500)] for si in range(2)] for _ in range(2)]
    assert multiprocessing.active_children() == []
