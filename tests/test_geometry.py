import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mixreg.errors import DataValidationError, DegenerateModelError
from mixreg.geometry import (
    _split_rows,
    check_conditions,
    orthonormal_complement_bases,
    weighted_directions,
)
from mixreg.model import Dataset, MixtureModel
from mixreg.synth import Sim2Config, gen_sim2


def _ratio(a, v):
    """One point's separation ratio ``||P_perp a|| / ||P_v a||``, or ``inf``
    when ``_split_rows`` marks it orthogonal to ``v``."""
    coef, ortho, orthogonal = _split_rows(np.asarray(a, float)[None], v[None])
    return math.inf if orthogonal[0] else float(np.linalg.norm(ortho[0]) / abs(coef[0]))


def test_direction_between_basic():
    # with two classes each direction is the pair direction between the betas
    V = weighted_directions(MixtureModel(np.array([[1.0, 0.0], [-1.0, 0.0]]), [5, 3]))
    assert np.allclose(V, [[1.0, 0.0], [-1.0, 0.0]])
    V = weighted_directions(MixtureModel(np.eye(3)[:2], [5, 3]))
    assert np.allclose(V[0], np.array([1.0, -1.0, 0.0]) / np.sqrt(2))


def test_direction_between_antisymmetry_exact():
    # equal sizes: the two pair directions are exact negatives
    rng = np.random.default_rng(0)
    for _ in range(20):
        V = weighted_directions(MixtureModel(rng.standard_normal((2, 4)), [7, 7]))
        assert np.array_equal(V[0], -V[1])


def test_direction_between_degenerate():
    # distinct subnormal components whose difference has zero norm
    tiny = MixtureModel(np.array([[5e-324, 0.0], [0.0, 0.0]]), np.array([2, 2]))
    with pytest.raises(DegenerateModelError):
        weighted_directions(tiny)


def test_weighted_direction_two_classes():
    model = MixtureModel(np.eye(2), np.array([5, 3]))
    V = weighted_directions(model)
    diff = model.betas[0] - model.betas[1]
    assert np.allclose(V[0], diff / np.linalg.norm(diff))
    assert np.allclose(V[1], -diff / np.linalg.norm(diff))


def test_weighted_direction_three_equal_classes():
    model = MixtureModel(np.eye(3), np.array([16, 16, 16]))
    v = weighted_directions(model)[0]
    expected = np.array([2.0, -1.0, -1.0]) / (2.0 * np.sqrt(2))
    assert np.allclose(v, expected, atol=1e-14)
    assert np.linalg.norm(v) == pytest.approx(np.sqrt(3) / 2, rel=1e-14)


def test_weighted_direction_rejects_k1():
    model = MixtureModel(np.array([[1.0, 0.0]]), np.array([4]))
    with pytest.raises(DegenerateModelError):
        weighted_directions(model)


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 5), st.integers(1, 6), st.integers(0, 2**32 - 1))
# betas 1.924, 1.245, 1.355 with sizes 8, 8, 7: class 2's direction is
# (-8 + 8) / 16 = 0 exactly
@example(k=3, d=1, seed=161)
# betas 1.79, -1.63, 0.32 with sizes 3, 3, 23: class 2's direction is
# (-3 + 3) / 6 = 0 exactly, which the reference's unit vectors reproduce
@example(k=3, d=1, seed=4101929)
def test_weighted_directions_match_pairwise_sum(k, d, seed):
    rng = np.random.default_rng(seed)
    model = MixtureModel(rng.standard_normal((k, d)), rng.integers(1, 30, size=k))
    expected = np.zeros((k, d))
    for p in range(k):
        for q in range(k):
            if q != p:
                diff = model.betas[p] - model.betas[q]
                expected[p] += model.sizes[q] * (diff / np.linalg.norm(diff))
        expected[p] /= model.sizes.sum() - model.sizes[p]
    if not np.all(np.any(expected != 0.0, axis=1)):
        with pytest.raises(DegenerateModelError, match="is zero"):
            weighted_directions(model)
        return
    V = weighted_directions(model)
    assert V.shape == (k, d)
    np.testing.assert_allclose(V, expected, rtol=1e-14, atol=1e-14)


def test_separation_ratio_cases():
    assert _ratio([2.0, 0.0], np.array([5.0, 0.0])) == 0.0
    assert _ratio([1.0, 1.0], np.array([1.0, 0.0])) == pytest.approx(1.0)
    for t in (0.25, -3.0):
        assert _ratio([1.0, t, 0.0], np.eye(3)[0]) == pytest.approx(abs(t))
    assert math.isinf(_ratio([0.0, 1.0], np.array([1.0, 0.0])))
    # a projection at rounding level counts as orthogonal too
    assert math.isinf(_ratio([1e-15, 1.0], np.array([1.0, 0.0])))


def test_separation_ratio_pythagoras():
    rng = np.random.default_rng(1)
    for _ in range(50):
        a = rng.standard_normal(5)
        v = rng.standard_normal(5)
        vhat = v / np.linalg.norm(v)
        par = abs(float(vhat @ a))
        if par < 1e-9:
            continue
        ratio = _ratio(a, v)
        lhs = ratio**2 * par**2
        rhs = float(a @ a) - par**2
        assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-12)


def test_complement_basis_standard():
    Q = orthonormal_complement_bases(np.eye(3)[:1])[0]
    assert Q.shape == (3, 2)
    assert np.allclose(Q.T @ Q, np.eye(2), atol=1e-14)
    assert np.allclose(Q.T @ np.eye(3)[0], 0.0, atol=1e-14)
    # columns span exactly {e2, e3}
    assert np.allclose(np.abs(Q[1:, :]), np.eye(2), atol=1e-14)
    assert np.allclose(Q[0, :], 0.0, atol=1e-14)


def test_complement_basis_properties():
    rng = np.random.default_rng(2)
    vs = rng.standard_normal((25, 6))
    Qs = orthonormal_complement_bases(vs)
    assert Qs.shape == (25, 6, 5)
    for v, Q in zip(vs, Qs):
        assert np.allclose(Q.T @ Q, np.eye(5), atol=1e-12)
        assert np.max(np.abs(Q.T @ v)) <= 1e-12 * np.linalg.norm(v)
    assert np.array_equal(Qs, orthonormal_complement_bases(vs))


def test_complement_basis_edge_cases():
    assert orthonormal_complement_bases(np.array([[3.0]])).shape == (1, 1, 0)
    with pytest.raises(DegenerateModelError):
        orthonormal_complement_bases(np.zeros((1, 3)))


def test_complement_bases_match_rowwise():
    rng = np.random.default_rng(4)
    for d in (1, 2, 5):
        vs = rng.standard_normal((7, d))
        vs[0] = -np.abs(vs[0])  # both signs of the leading entry
        Bs = orthonormal_complement_bases(vs)
        assert Bs.shape == (7, d, d - 1)
        for v, B in zip(vs, Bs):  # a row's basis does not depend on the others
            assert np.array_equal(B, orthonormal_complement_bases(v[None])[0])
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


def test_check_conditions_interleaved_orthogonal_rows():
    # v_p is proportional to 3 e_p - (1, 1, 1): row 3 (class 0) and row 8
    # (class 2) are orthogonal to their class directions, class 1 has none
    labels = np.array([2, 0, 1, 0, 2, 1, 0, 1, 2])
    feats = np.eye(3)[labels] + 0.1 * np.random.default_rng(0).standard_normal((9, 3))
    feats[3] = [0.0, 1.0, -1.0]
    feats[8] = [1.0, -1.0, 0.0]
    betas = np.eye(3)
    dataset = Dataset(feats, np.einsum("ij,ij->i", feats, betas[labels]), labels)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no division by the zero coefficients
        report = check_conditions(dataset, MixtureModel(betas, np.array([3, 3, 3])))
    assert math.isinf(report.separation_lhs)
    assert not report.well_separated
    assert np.array_equal(np.isinf(report.balance_residuals), [True, False, True])


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
    two_classes = MixtureModel(model.betas[:2], np.array([16, 16]))
    with pytest.raises(DataValidationError, match="model has 2"):
        check_conditions(dataset, two_classes)
    wider = MixtureModel(np.hstack([model.betas, np.zeros((3, 1))]), model.sizes)
    with pytest.raises(
        DataValidationError,
        match=f"model dimension {dataset.d + 1} does not match dataset dimension {dataset.d}",
    ):
        check_conditions(dataset, wider)
