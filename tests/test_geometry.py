import math

import numpy as np
import pytest

from mixreg.errors import (
    DataValidationError,
    DegenerateModelError,
    OrthogonalPointError,
)
from mixreg.geometry import (
    check_conditions,
    direction_between,
    orthonormal_complement_bases,
    orthonormal_complement_basis,
    separation_ratio,
    weighted_direction,
)
from mixreg.model import Dataset, MixtureModel
from mixreg.synth import Sim2Config, gen_sim2


def test_direction_between_basic():
    v = direction_between(np.array([1.0, 0.0]), np.array([-1.0, 0.0]))
    assert np.allclose(v, [1.0, 0.0])
    v = direction_between(np.eye(3)[0], np.eye(3)[1])
    assert np.allclose(v, np.array([1.0, -1.0, 0.0]) / np.sqrt(2))


def test_direction_between_antisymmetry_exact():
    rng = np.random.default_rng(0)
    for _ in range(20):
        bp, bq = rng.standard_normal((2, 4))
        fwd = direction_between(bp, bq)
        bwd = direction_between(bq, bp)
        assert np.array_equal(fwd, -bwd)


def test_direction_between_degenerate():
    with pytest.raises(DegenerateModelError):
        direction_between(np.ones(2), np.ones(2))


def test_weighted_direction_two_classes():
    model = MixtureModel(np.eye(2), np.array([5, 3]))
    v = weighted_direction(0, model)
    assert np.allclose(v, direction_between(model.betas[0], model.betas[1]))


def test_weighted_direction_three_equal_classes():
    model = MixtureModel(np.eye(3), np.array([16, 16, 16]))
    v = weighted_direction(0, model)
    expected = np.array([2.0, -1.0, -1.0]) / (2.0 * np.sqrt(2))
    assert np.allclose(v, expected, atol=1e-14)
    assert np.linalg.norm(v) == pytest.approx(np.sqrt(3) / 2, rel=1e-14)


def test_weighted_direction_rejects_k1():
    model = MixtureModel(np.array([[1.0, 0.0]]), np.array([4]))
    with pytest.raises(DegenerateModelError):
        weighted_direction(0, model)


def test_separation_ratio_cases():
    assert separation_ratio(np.array([2.0, 0.0]), np.array([5.0, 0.0])) == 0.0
    assert separation_ratio(np.array([1.0, 1.0]), np.array([1.0, 0.0])) == pytest.approx(1.0)
    for t in (0.25, -3.0):
        a = np.array([1.0, t, 0.0])
        assert separation_ratio(a, np.eye(3)[0]) == pytest.approx(abs(t))
    with pytest.raises(OrthogonalPointError):
        separation_ratio(np.array([0.0, 1.0]), np.array([1.0, 0.0]))
    with pytest.raises(DegenerateModelError):
        separation_ratio(np.array([1.0, 0.0]), np.zeros(2))


def test_separation_ratio_pythagoras():
    rng = np.random.default_rng(1)
    for _ in range(50):
        a = rng.standard_normal(5)
        v = rng.standard_normal(5)
        vhat = v / np.linalg.norm(v)
        par = abs(float(vhat @ a))
        if par < 1e-9:
            continue
        ratio = separation_ratio(a, v)
        lhs = ratio**2 * par**2
        rhs = float(a @ a) - par**2
        assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-12)


def test_complement_basis_standard():
    Q = orthonormal_complement_basis(np.eye(3)[0])
    assert Q.shape == (3, 2)
    assert np.allclose(Q.T @ Q, np.eye(2), atol=1e-14)
    assert np.allclose(Q.T @ np.eye(3)[0], 0.0, atol=1e-14)
    # columns span exactly {e2, e3}
    assert np.allclose(np.abs(Q[1:, :]), np.eye(2), atol=1e-14)
    assert np.allclose(Q[0, :], 0.0, atol=1e-14)


def test_complement_basis_properties():
    rng = np.random.default_rng(2)
    for _ in range(25):
        v = rng.standard_normal(6)
        Q = orthonormal_complement_basis(v)
        assert Q.shape == (6, 5)
        assert np.allclose(Q.T @ Q, np.eye(5), atol=1e-12)
        assert np.max(np.abs(Q.T @ v)) <= 1e-12 * np.linalg.norm(v)
        again = orthonormal_complement_basis(v)
        assert np.array_equal(Q, again)


def test_complement_basis_edge_cases():
    assert orthonormal_complement_basis(np.array([3.0])).shape == (1, 0)
    with pytest.raises(DegenerateModelError):
        orthonormal_complement_basis(np.zeros(3))


def test_complement_bases_match_rowwise():
    rng = np.random.default_rng(4)
    for d in (1, 2, 5):
        vs = rng.standard_normal((7, d))
        vs[0] = -np.abs(vs[0])  # both signs of the leading entry
        Bs = orthonormal_complement_bases(vs)
        assert Bs.shape == (7, d, d - 1)
        for v, B in zip(vs, Bs):
            assert np.array_equal(B, orthonormal_complement_basis(v))
    with pytest.raises(DegenerateModelError):
        orthonormal_complement_bases(np.array([[1.0, 0.0], [0.0, 0.0]]))


def test_check_conditions_sim1(sim1_instance):
    dataset, model = sim1_instance
    report = check_conditions(dataset, model)
    assert report.separation_rhs == pytest.approx(1.0 / 6.0)
    assert report.separation_lhs <= 0.1
    assert report.well_separated
    assert np.all(report.balance_residuals <= 1e-12)
    assert np.all(report.span_ok)
    payload = report.to_dict()
    assert set(payload) == {
        "separation_lhs", "separation_rhs", "well_separated",
        "balance_residuals", "span_ok",
    }


def test_check_conditions_sim2_imbalance():
    dataset, model = gen_sim2(Sim2Config(d=5, tau=0.05, seed=11))
    report = check_conditions(dataset, model)
    assert report.balance_residuals[2] == pytest.approx(0.05, abs=1e-10)
    assert np.all(report.balance_residuals[:2] <= 1e-12)


def test_balance_residual_scale_invariant():
    dataset, model = gen_sim2(Sim2Config(d=4, tau=0.03, seed=5))
    before = check_conditions(dataset, model).balance_residuals
    feats = dataset.features.copy()
    members = dataset.class_members(2)
    feats[members] *= 7.5
    resp = dataset.responses.copy()
    resp[members] *= 7.5
    scaled = Dataset(feats, resp, dataset.labels)
    after = check_conditions(scaled, model).balance_residuals
    assert after[2] == pytest.approx(before[2], rel=1e-10)


def test_span_flag_false_when_class_too_small():
    feats = np.array([
        [1.0, 0.0, 0.0],
        [1.0, 0.1, 0.0],
        [0.0, 1.0, 0.0],
        [0.0, 1.0, 0.1],
        [0.1, 1.0, 0.0],
    ])
    labels = np.array([0, 0, 1, 1, 1])
    betas = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    resp = np.einsum("ij,ij->i", feats, betas[labels])
    dataset = Dataset(feats, resp, labels)
    model = MixtureModel(betas, np.array([2, 3]))
    report = check_conditions(dataset, model)
    assert not report.span_ok[0]  # 2 points cannot span R^3


def test_check_conditions_orthogonal_point_reported():
    # second class-one point is orthogonal to v_1 = (e1 - e2)/sqrt(2)
    q = np.array([1.0, 1.0]) / np.sqrt(2)
    v1 = np.array([1.0, -1.0]) / np.sqrt(2)
    feats = np.vstack([v1, q, -v1, -v1 + 0.1 * q])
    labels = np.array([0, 0, 1, 1])
    betas = np.eye(2)
    resp = np.einsum("ij,ij->i", feats, betas[labels])
    dataset = Dataset(feats, resp, labels)
    model = MixtureModel(betas, np.array([2, 2]))
    report = check_conditions(dataset, model)
    assert math.isinf(report.separation_lhs)
    assert not report.well_separated


def test_check_conditions_input_errors(sim1_instance):
    dataset, model = sim1_instance
    with pytest.raises(DataValidationError):
        check_conditions(Dataset(dataset.features, dataset.responses), model)
    single = MixtureModel(np.array([[1.0] + [0.0] * 4]), np.array([48]))
    with pytest.raises(DegenerateModelError):
        check_conditions(
            Dataset(dataset.features, dataset.responses, np.zeros(48, dtype=int)),
            single,
        )
    wrong_sizes = MixtureModel(model.betas, np.array([15, 17, 16]))
    with pytest.raises(DataValidationError):
        check_conditions(dataset, wrong_sizes)
