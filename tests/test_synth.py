import numpy as np
import pytest
from scipy import stats

from mixreg.errors import DataValidationError
from mixreg.geometry import check_conditions, weighted_directions
from mixreg.model import candidate_solution, feasibility_residual
from mixreg.synth import (
    Sim1Config,
    Sim2Config,
    gen_sim1,
    gen_sim2,
    sample_ball,
    sample_sphere,
)
from oracles import sample_ball_reference, sample_sphere_reference


def test_sample_ball_basics():
    rng = np.random.default_rng(0)
    assert np.array_equal(sample_ball(3, 0.0, rng), np.zeros(3))
    assert sample_ball(0, 1.0, rng).shape == (0,)
    for dim, radius in ((-1, 1.0), (3, -0.1)):
        with pytest.raises(DataValidationError, match="must be nonnegative"):
            sample_ball(dim, radius, rng)
    samples = np.stack([sample_ball(4, 0.3, rng) for _ in range(1000)])
    assert np.all(np.linalg.norm(samples, axis=1) <= 0.3 + 1e-15)


def test_sample_ball_radial_distribution():
    rng = np.random.default_rng(1)
    samples = np.stack([sample_ball(2, 1.0, rng) for _ in range(10_000)])
    frac = float(np.mean(np.linalg.norm(samples, axis=1) <= 0.5))
    assert frac == pytest.approx(0.25, abs=0.02)


def test_sample_sphere_basics():
    rng = np.random.default_rng(2)
    assert np.array_equal(sample_sphere(3, 0.0, rng), np.zeros(3))
    for _ in range(100):
        w = sample_sphere(5, 0.7, rng)
        assert np.linalg.norm(w) == pytest.approx(0.7, abs=1e-12)
    with pytest.raises(DataValidationError):
        sample_sphere(0, 1.0, rng)
    with pytest.raises(DataValidationError, match="radius must be nonnegative"):
        sample_sphere(3, -0.1, rng)


def test_sample_sphere_angle_uniformity():
    rng = np.random.default_rng(3)
    angles = []
    for _ in range(10_000):
        w = sample_sphere(2, 1.0, rng)
        angles.append(np.arctan2(w[1], w[0]))
    hist, _ = np.histogram(angles, bins=16, range=(-np.pi, np.pi))
    _, p = stats.chisquare(hist)
    assert p > 0.001


def test_samplers_match_the_norm_based_reference():
    # the same draws and the same bits as np.linalg.norm and rng.uniform,
    # checked against the reference on this machine rather than stored
    # digests, since dot-product kernels may round differently elsewhere
    for seed in range(200):
        for dim in range(1, 13):
            radius = 0.05 * (1 + seed % 7)
            ours, ref = np.random.default_rng([seed, dim]), np.random.default_rng([seed, dim])
            for _ in range(3):
                assert np.array_equal(
                    sample_ball(dim, radius, ours), sample_ball_reference(dim, radius, ref)
                )
                assert np.array_equal(
                    sample_sphere(dim, radius, ours), sample_sphere_reference(dim, radius, ref)
                )
            assert ours.random() == ref.random()


def test_gen_sim1_zero_aperture():
    dataset, model = gen_sim1(Sim1Config(k=3, d=4, n_per_class=4, alpha=0.0, seed=0))
    for p, v in enumerate(weighted_directions(model)):
        vhat = v / np.linalg.norm(v)
        assert np.allclose(dataset.features[dataset.class_members(p)], vhat)
    report = check_conditions(dataset, model)
    assert report.separation_lhs == pytest.approx(0.0, abs=1e-14)


def test_gen_sim1_contracts():
    for seed in range(5):
        cfg = Sim1Config(k=3, d=5, n_per_class=16, alpha=0.1, seed=seed)
        dataset, model = gen_sim1(cfg)
        assert dataset.m == 48 and dataset.d == 5
        report = check_conditions(dataset, model)
        assert report.well_separated  # rhs is 1/6 > alpha
        assert report.separation_lhs <= cfg.alpha
        assert np.all(report.balance_residuals <= 1e-12)
        assert feasibility_residual(candidate_solution(dataset, model), dataset) == 0.0


def test_gen_sim1_deterministic():
    cfg = Sim1Config(k=2, d=3, n_per_class=10, alpha=0.2, seed=123)
    a, _ = gen_sim1(cfg)
    b, _ = gen_sim1(cfg)
    assert np.array_equal(a.features, b.features)
    assert np.array_equal(a.responses, b.responses)
    assert np.array_equal(a.labels, b.labels)


def test_gen_sim1_validation():
    with pytest.raises(DataValidationError):
        Sim1Config(k=3, d=2, n_per_class=4, alpha=0.1, seed=0)  # d < k
    with pytest.raises(DataValidationError):
        Sim1Config(k=2, d=3, n_per_class=5, alpha=0.1, seed=0)  # odd n
    with pytest.raises(DataValidationError):
        Sim1Config(k=2, d=3, n_per_class=4, alpha=0.8, seed=0)  # alpha range
    with pytest.raises(DataValidationError):
        Sim1Config(k=1, d=3, n_per_class=4, alpha=0.1, seed=0)
    with pytest.raises(DataValidationError, match="seed must be nonnegative"):
        Sim1Config(k=3, d=4, n_per_class=4, alpha=0.1, seed=-1)


def test_gen_sim2_contracts():
    cfg = Sim2Config(d=5, tau=0.05, seed=7)
    dataset, model = gen_sim2(cfg)
    assert dataset.m == 3 * 4 * 5
    report = check_conditions(dataset, model)
    assert report.balance_residuals[2] == pytest.approx(0.05, abs=1e-10)
    assert np.all(report.balance_residuals[:2] <= 1e-12)
    assert feasibility_residual(candidate_solution(dataset, model), dataset) == 0.0

    balanced, _ = gen_sim2(Sim2Config(d=5, tau=0.0, seed=7))
    rep0 = check_conditions(balanced, model)
    assert np.all(rep0.balance_residuals <= 1e-12)


def test_gen_sim2_deterministic():
    cfg = Sim2Config(d=4, tau=0.02, seed=9)
    a, _ = gen_sim2(cfg)
    b, _ = gen_sim2(cfg)
    assert np.array_equal(a.features, b.features)
    assert np.array_equal(a.responses, b.responses)


def test_gen_sim2_validation():
    with pytest.raises(DataValidationError):
        Sim2Config(d=2, tau=0.0, seed=0)
    with pytest.raises(DataValidationError):
        Sim2Config(d=5, tau=0.07, seed=0)
    with pytest.raises(DataValidationError, match="seed must be nonnegative"):
        Sim2Config(d=4, tau=0.0, seed=-1)
