import numpy as np
import pytest

import mixreg.phase as phase_mod
from mixreg.errors import DataValidationError, NumericalError
from mixreg.phase import (
    PhaseConfig,
    default_sweep,
    run_phase,
    trial_seed,
    write_grid_csv,
    write_grid_pgm,
)
from mixreg.solver import SolverOptions


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
    _tiny_cfg(sweep_values=(0.9,), unsafe=True)  # override allowed
    with pytest.raises(DataValidationError):
        _tiny_cfg(trials=0)
    with pytest.raises(DataValidationError):
        _tiny_cfg(d_values=(2,))


def test_small_grid_recovers():
    grid = run_phase(_tiny_cfg())
    assert grid.fractions.shape == (1, 1)
    assert grid.fraction(3, 0.1) == 1.0
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
    def boom(dataset, opts):
        raise NumericalError("forced failure")

    monkeypatch.setattr(phase_mod, "irls_solve", boom)
    grid = run_phase(_tiny_cfg())
    assert grid.fractions[0, 0] == 0.0
    assert all(r.failed and not r.success for r in grid.records[0][0])
    assert all(
        r.to_dict()["error"] == "NumericalError: forced failure"
        for r in grid.records[0][0]
    )


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
    assert payload["mode"] == "aperture"
    assert len(payload["cells"]) == 4
    assert all({"d", "value", "successes", "records"} <= set(c) for c in payload["cells"])


def test_grid_with_custom_solver_options():
    cfg = _tiny_cfg(trials=1, solver=SolverOptions(max_iter=2))
    grid = run_phase(cfg)
    assert grid.records[0][0][0].iterations <= 2
