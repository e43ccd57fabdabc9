import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mixreg.errors import (
    DataValidationError,
    NonUniqueSolutionWarning,
    NumericalError,
)
from mixreg.model import (
    Dataset,
    candidate_solution,
    feasibility_residual,
    objective,
    recovery_error,
)
from mixreg.solver import (
    SolverOptions,
    WeightMatrix,
    _laplacian,
    _project_rows,
    _solve_reduced_kkt,
    _stationarity_defect,
    irls_solve,
    smoothed_objective,
    update_weights,
    weighted_ls_step,
)
from mixreg.synth import Sim1Config, gen_sim1
from oracles import fusion_quadratic, solve_eqp


def _random_instance(rng, m, d):
    feats = rng.standard_normal((m, d))
    resp = rng.standard_normal(m)
    return Dataset(feats, resp)


def _random_weights(rng, m):
    w = rng.uniform(0.1, 2.0, (m, m))
    w = (w + w.T) / 2.0
    np.fill_diagonal(w, 0.0)
    return WeightMatrix(w)


def test_solver_options_validation():
    with pytest.raises(DataValidationError):
        SolverOptions(delta=0.0)
    with pytest.raises(DataValidationError):
        SolverOptions(max_iter=0)
    with pytest.raises(DataValidationError):
        SolverOptions(stop_tol=-1.0)
    with pytest.raises(DataValidationError):
        SolverOptions(delta_decay=0.0)
    opts = SolverOptions(delta_init=1e-2, delta_decay=0.1)
    assert opts.delta_at(1) == 1e-2
    assert opts.delta_at(2) == pytest.approx(1e-3)
    assert opts.delta_at(30) == 1e-16  # floors at delta


def test_weight_matrix_validation():
    with pytest.raises(DataValidationError):
        WeightMatrix(np.array([[0.0, 1.0], [2.0, 0.0]]))
    with pytest.raises(DataValidationError):
        WeightMatrix(np.array([[0.0, -1.0], [-1.0, 0.0]]))
    with pytest.raises(DataValidationError):
        WeightMatrix(np.array([[1.0, 1.0], [1.0, 1.0]]))
    uniform = WeightMatrix.uniform(3)
    assert np.array_equal(uniform.w, np.ones((3, 3)) - np.eye(3))


def test_update_weights_values():
    z = np.zeros((2, 2))
    w = update_weights(z, 1e-16)
    assert w.w[0, 1] == pytest.approx(1e8, rel=1e-9)
    assert w.w[0, 0] == 0.0
    z = np.array([[0.0, 0.0], [1.0, 0.0]])
    assert update_weights(z, 1e-30).w[0, 1] == pytest.approx(1.0, rel=1e-12)
    z = np.array([[0.0, 0.0], [3.0, 0.0]])
    assert update_weights(z, 1e-16).w[0, 1] == pytest.approx(1.0 / 3.0, rel=1e-12)
    with pytest.raises(DataValidationError):
        update_weights(z, 0.0)


def test_smoothed_objective_limits():
    rng = np.random.default_rng(0)
    z = rng.standard_normal((6, 2))
    assert smoothed_objective(z, 1e-18) == pytest.approx(objective(z), rel=1e-12)
    z_equal = np.ones((4, 3))
    # self-pairs excluded: 4*3 ordered pairs each contributing sqrt(delta)
    assert smoothed_objective(z_equal, 1e-8) == pytest.approx(12 * 1e-4, rel=1e-12)


def test_weighted_ls_step_concurrent_lines():
    ds = Dataset(
        np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]),
        np.array([1.0, 1.0, 2.0]),
    )
    Z = weighted_ls_step(ds, WeightMatrix.uniform(3))
    assert np.allclose(Z.z, 1.0, atol=1e-10)
    assert objective(Z) <= 1e-9


def test_weighted_ls_step_d1_forced():
    rng = np.random.default_rng(5)
    feats = rng.uniform(0.5, 2.0, (6, 1))
    resp = rng.standard_normal(6)
    ds = Dataset(feats, resp)
    Z = weighted_ls_step(ds, _random_weights(rng, 6))
    assert np.allclose(Z.z[:, 0], resp / feats[:, 0], rtol=1e-12)


def test_weighted_ls_step_two_orthogonal_lines():
    # the two constraint lines intersect at (1, 1): the quadratic reaches
    # zero there, so the minimizer fuses both points at the intersection
    # (derived with the generic equality-constrained quadratic oracle)
    ds = Dataset(np.array([[1.0, 0.0], [0.0, 1.0]]), np.array([1.0, 1.0]))
    w = WeightMatrix(np.array([[0.0, 1.0], [1.0, 0.0]]))
    Z = weighted_ls_step(ds, w)
    G, A = fusion_quadratic(ds.features, w.w)
    expected = solve_eqp(G, A, ds.responses).reshape(2, 2)
    assert np.allclose(Z.z, expected, atol=1e-10)
    assert np.allclose(Z.z, np.ones((2, 2)), atol=1e-10)


def _assert_matches_eqp(ds, w):
    Z = weighted_ls_step(ds, w)
    G, A = fusion_quadratic(ds.features, w.w)
    expected = solve_eqp(G, A, ds.responses).reshape(ds.m, ds.d)
    rel = np.linalg.norm(Z.z - expected) / (1.0 + np.linalg.norm(expected))
    assert rel <= 1e-8
    assert feasibility_residual(Z, ds) <= 1e-12 * max(
        1.0, np.max(np.abs(ds.responses))
    ) + 1e-12


# Full KKT size m*d + m at which the solver once switched from a dense
# Kronecker KKT solve to the reduced one; the single route must be exact on
# both sides of it.
_FORMER_SWITCH = 600


@pytest.mark.parametrize("regime", ["dense", "reduced"])
def test_weighted_ls_step_matches_generic_eqp(regime):
    rng = np.random.default_rng(17)
    sizes = [
        (int(rng.integers(4, 12)), int(rng.integers(2, 5))) for _ in range(5)
    ] + [(30, 4), (70, 9)]  # full KKT systems of 150 and 700 unknowns
    checked = 0
    for m, d in sizes:
        ds, w = _random_instance(rng, m, d), _random_weights(rng, m)
        if (m * d + m <= _FORMER_SWITCH) == (regime == "dense"):
            _assert_matches_eqp(ds, w)
            checked += 1
    assert checked > 0


def _criterion7_instance(index):
    """The index-th instance of acceptance criterion 7 (m in 2..6, d = 2)."""
    rng = np.random.default_rng(77)
    sizes = [2, 2, 2, 2, 3, 3, 3, 3, 4, 4, 4, 4, 5, 5, 5, 5, 6, 6, 6, 6]
    for m in sizes[: index + 1]:
        angles = rng.uniform(0, np.pi, m)
        feats = np.column_stack([np.cos(angles), np.sin(angles)])
        resp = rng.uniform(-1.5, 1.5, m)
    return Dataset(feats, resp)


def test_weighted_ls_step_fused_points_fallback():
    # subproblem 18 of criterion-7 instance 13: points have fused, so weights
    # near 1e8 sit beside O(1) ones and the reduced solve alone misses the
    # stationarity guard; the null-space solve must meet it
    ds = _criterion7_instance(13)
    Z, trace = irls_solve(ds, SolverOptions(stop_tol=1e-10, max_iter=17))
    assert trace.iterations == 17
    w = update_weights(Z, SolverOptions().delta)
    assert w.w.max() > 1e7
    L = _laplacian(w.w)
    z, nu = _solve_reduced_kkt(ds.features, ds.responses, L)
    z = _project_rows(z, ds.features, ds.responses)
    assert _stationarity_defect(L, z, nu, ds.features) > SolverOptions().subproblem_tol
    _assert_matches_eqp(ds, w)


@st.composite
def _instances(draw):
    d = draw(st.integers(2, 6))
    m = draw(st.integers(max(3, d), 40))  # m >= d: features span, minimizer unique
    seed = draw(st.integers(0, 2**32 - 1))
    scale = draw(st.floats(1e-3, 1e3))
    return m, d, seed, scale


@settings(max_examples=40, deadline=None)
@given(_instances())
def test_weighted_ls_step_permutation_and_weight_scale_invariance(instance):
    m, d, seed, scale = instance
    rng = np.random.default_rng(seed)
    ds = _random_instance(rng, m, d)
    w = _random_weights(rng, m)
    Z = weighted_ls_step(ds, w).z
    tol = 1e-9 * (1.0 + np.linalg.norm(Z))

    perm = rng.permutation(m)
    permuted = weighted_ls_step(
        Dataset(ds.features[perm], ds.responses[perm]),
        WeightMatrix(w.w[np.ix_(perm, perm)]),
    ).z
    assert np.linalg.norm(permuted - Z[perm]) <= tol

    scaled = weighted_ls_step(ds, WeightMatrix(scale * w.w)).z
    assert np.linalg.norm(scaled - Z) <= tol


def test_weighted_ls_step_disconnected_graph_min_norm():
    ds = Dataset(np.array([[1.0, 0.0], [0.0, 1.0]]), np.array([1.0, 1.0]))
    w = WeightMatrix(np.zeros((2, 2)))
    with pytest.warns(NonUniqueSolutionWarning):
        Z = weighted_ls_step(ds, w)
    # with no coupling, each row is the closest point to the origin
    assert np.allclose(Z.z, np.eye(2), atol=1e-12)


def test_weighted_ls_step_span_deficient_min_norm():
    # both constraints share the same normal: translations orthogonal to it
    # are unpenalized, so the minimum-norm minimizer is returned
    ds = Dataset(np.array([[1.0, 0.0], [1.0, 0.0]]), np.array([1.0, 3.0]))
    with pytest.warns(NonUniqueSolutionWarning):
        Z = weighted_ls_step(ds, WeightMatrix.uniform(2))
    assert np.allclose(Z.z, np.array([[1.0, 0.0], [3.0, 0.0]]), atol=1e-12)


def test_weighted_ls_step_extreme_conditioning_raises():
    rng = np.random.default_rng(3)
    ds = _random_instance(rng, 4, 2)
    w = np.full((4, 4), 1e-9)
    w[0, 1] = w[1, 0] = 1e18
    np.fill_diagonal(w, 0.0)
    with pytest.raises(NumericalError):
        weighted_ls_step(ds, WeightMatrix(w))


def test_weighted_ls_step_shape_checks(sim1_instance):
    dataset, _ = sim1_instance
    with pytest.raises(DataValidationError):
        weighted_ls_step(dataset, WeightMatrix.uniform(3))


def test_irls_recovers_separated_instance(sim1_instance):
    dataset, model = sim1_instance
    estimate, trace = irls_solve(dataset)
    assert trace.converged
    assert recovery_error(estimate, candidate_solution(dataset, model)) < 1e-5
    assert trace.max_feasibility_residual <= 1e-10
    history = np.asarray(trace.objective_history)
    assert np.all(np.diff(history) <= 1e-10)
    assert trace.final_step_norm is not None
    assert trace.final_step_norm < 1e-5
    payload = trace.to_dict()
    assert set(payload) == {
        "iterations", "objective_history", "final_step_norm",
        "converged", "max_feasibility_residual",
    }


def test_irls_concurrent_lines_two_iterations():
    ds = Dataset(
        np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]),
        np.array([1.0, 1.0, 2.0]),
    )
    estimate, trace = irls_solve(ds)
    assert trace.converged
    assert trace.iterations <= 2
    assert np.allclose(estimate.z, 1.0, atol=1e-8)


def test_irls_scale_equivariance():
    # compare equal-length runs: the step-norm stopping rule is itself
    # scale-dependent, so letting it fire would compare different iterates
    rng = np.random.default_rng(11)
    ds = _random_instance(rng, 8, 3)
    scaled = Dataset(ds.features, 3.0 * ds.responses)
    opts = SolverOptions(max_iter=40, stop_tol=1e-300)
    base, tr_a = irls_solve(ds, opts)
    big, tr_b = irls_solve(scaled, opts)
    assert tr_a.iterations == tr_b.iterations == 40
    rel = np.linalg.norm(big.z - 3.0 * base.z) / np.linalg.norm(3.0 * base.z)
    assert rel <= 1e-8


def test_irls_permutation_equivariance():
    rng = np.random.default_rng(12)
    ds = _random_instance(rng, 7, 3)
    perm = rng.permutation(7)
    permuted = Dataset(ds.features[perm], ds.responses[perm])
    base, _ = irls_solve(ds, SolverOptions(max_iter=30))
    shuffled, _ = irls_solve(permuted, SolverOptions(max_iter=30))
    assert np.allclose(shuffled.z, base.z[perm], rtol=1e-10, atol=1e-10)


def test_irls_non_convergence_reported():
    dataset, _ = gen_sim1(Sim1Config(k=3, d=4, n_per_class=16, alpha=0.3, seed=2))
    _, trace = irls_solve(dataset, SolverOptions(max_iter=3))
    assert not trace.converged
    assert trace.iterations == 3


def test_irls_single_subproblem():
    ds = Dataset(np.array([[1.0, 0.0], [0.0, 1.0]]), np.array([1.0, 1.0]))
    _, trace = irls_solve(ds, SolverOptions(max_iter=1))
    assert trace.iterations == 1
    assert trace.final_step_norm is None
    assert not trace.converged


def test_irls_delta_annealing_runs(sim1_instance):
    dataset, model = sim1_instance
    opts = SolverOptions(delta_init=1e-4, delta_decay=0.25)
    estimate, trace = irls_solve(dataset, opts)
    assert trace.converged
    assert recovery_error(estimate, candidate_solution(dataset, model)) < 1e-4
