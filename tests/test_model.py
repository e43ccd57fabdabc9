import numpy as np
import pytest

from mixreg.errors import DataValidationError, DegenerateModelError
from mixreg.model import (
    Dataset,
    EstimateField,
    MixtureModel,
    candidate_solution,
    feasibility_residual,
    objective,
    recovery_error,
)
from oracles import brute_force_objective


def test_dataset_validation():
    with pytest.raises(DataValidationError):
        Dataset(np.array([[1.0, 0.0], [0.0, 0.0]]), np.array([1.0, 1.0]))
    with pytest.raises(DataValidationError):
        Dataset(np.array([[1.0, np.inf]]), np.array([1.0]))
    with pytest.raises(DataValidationError):
        Dataset(np.array([[1.0, 0.0]]), np.array([1.0, 2.0]))
    with pytest.raises(DataValidationError, match="m x d matrix"):
        Dataset(np.array([1.0, 2.0]), np.array([1.0, 1.0]))
    with pytest.raises(DataValidationError, match="one entry per row"):
        Dataset(np.array([[1.0, 0.0], [0.0, 1.0]]), np.array([1.0, 1.0]), np.array([0]))
    unlabeled = Dataset(np.array([[1.0, 0.0]]), np.array([1.0]))
    with pytest.raises(DataValidationError, match="no labels"):
        unlabeled.num_classes
    with pytest.raises(DataValidationError, match="no labels"):
        unlabeled.class_members(0)
    # labels must cover every class up to their maximum
    with pytest.raises(DataValidationError):
        Dataset(
            np.array([[1.0, 0.0], [0.0, 1.0]]),
            np.array([1.0, 1.0]),
            np.array([0, 2]),
        )


def test_dataset_is_immutable(sim1_instance):
    dataset, _ = sim1_instance
    with pytest.raises(ValueError):
        dataset.features[0, 0] = 5.0


def test_mixture_model_validation():
    with pytest.raises(DegenerateModelError):
        MixtureModel(np.array([[1.0, 0.0], [1.0, 0.0]]), np.array([2, 2]))
    with pytest.raises(DataValidationError):
        MixtureModel(np.array([[1.0, 0.0], [0.0, 1.0]]), np.array([2, 0]))
    with pytest.raises(DataValidationError, match="k x d matrix"):
        MixtureModel(np.array([1.0, 0.0]), np.array([2]))
    with pytest.raises(DataValidationError, match="non-finite"):
        MixtureModel(np.array([[1.0, np.nan], [0.0, 1.0]]), np.array([2, 2]))


def test_candidate_solution_single_class():
    ds = Dataset(
        np.array([[1.0, 0.0], [0.0, 2.0], [1.0, 1.0]]),
        np.array([2.0, 6.0, 5.0]),
        np.array([0, 0, 0]),
    )
    model = MixtureModel(np.array([[2.0, 3.0]]), np.array([3]))
    Z = candidate_solution(ds, model)
    assert np.array_equal(Z.z, np.tile([2.0, 3.0], (3, 1)))
    assert feasibility_residual(Z, ds) <= 1e-12


def test_candidate_solution_two_classes():
    ds = Dataset(
        np.array([[1.0, 0.0], [0.0, 1.0]]),
        np.array([1.0, 1.0]),
        np.array([0, 1]),
    )
    model = MixtureModel(np.eye(2), np.array([1, 1]))
    Z = candidate_solution(ds, model)
    assert np.array_equal(Z.z, np.eye(2))


def test_candidate_solution_on_generated_data(sim1_instance):
    dataset, model = sim1_instance
    Z = candidate_solution(dataset, model)
    assert feasibility_residual(Z, dataset) <= 1e-12


def test_candidate_solution_errors(sim1_instance):
    dataset, model = sim1_instance
    unlabeled = Dataset(dataset.features, dataset.responses)
    with pytest.raises(DataValidationError):
        candidate_solution(unlabeled, model)
    small_model = MixtureModel(model.betas[:2], model.sizes[:2])
    with pytest.raises(DataValidationError):
        candidate_solution(dataset, small_model)
    narrow_model = MixtureModel(model.betas[:, :-1], model.sizes)
    with pytest.raises(
        DataValidationError,
        match=f"model dimension {dataset.d - 1} does not match dataset dimension {dataset.d}",
    ):
        candidate_solution(dataset, narrow_model)


def test_objective_trivial_cases():
    assert objective(np.ones((4, 3))) == 0.0
    z = np.array([[0.0, 0.0], [3.0, 4.0]])
    assert objective(z) == pytest.approx(10.0, abs=1e-14)


def test_objective_matches_brute_force():
    rng = np.random.default_rng(3)
    z = rng.standard_normal((5, 3))
    assert objective(z) == pytest.approx(brute_force_objective(z), rel=1e-12)


def test_objective_permutation_invariant():
    rng = np.random.default_rng(4)
    z = rng.standard_normal((7, 2))
    perm = rng.permutation(7)
    assert objective(z) == pytest.approx(objective(z[perm]), rel=1e-12)


def test_feasibility_residual_cases():
    ds = Dataset(np.array([[1.0, 0.0], [0.0, 1.0]]), np.array([1.0, 1.0]))
    assert feasibility_residual(np.zeros((2, 2)), ds) == 1.0
    with pytest.raises(DataValidationError):
        feasibility_residual(np.zeros((3, 2)), ds)


def test_recovery_error_cases():
    z = np.arange(8.0).reshape(4, 2)
    assert recovery_error(z, z) == 0.0
    one = np.zeros((1, 3))
    other = np.zeros((1, 3))
    other[0, 0] = 0.7
    assert recovery_error(one, other) == pytest.approx(0.7, rel=1e-14)
    base = np.zeros((4, 2))
    shifted = np.full((4, 2), 1.0 / np.sqrt(2))  # every row has norm 1
    assert recovery_error(base, shifted) == pytest.approx(1.0, rel=1e-14)
    assert recovery_error(base, shifted) == recovery_error(shifted, base)
    with pytest.raises(DataValidationError):
        recovery_error(np.zeros((2, 2)), np.zeros((3, 2)))


def test_estimate_field_validation():
    with pytest.raises(DataValidationError):
        EstimateField(np.array([1.0, 2.0]))
    with pytest.raises(DataValidationError):
        EstimateField(np.array([[np.nan, 0.0]]))
