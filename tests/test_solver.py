import importlib.machinery
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from mixreg.errors import (
    DataValidationError,
    NonUniqueSolutionWarning,
    NumericalError,
    UnderdeterminedFitWarning,
)
from mixreg.model import (
    Dataset,
    candidate_solution,
    feasibility_residual,
    objective,
    recovery_error,
)
from mixreg.solver import (
    DELTA,
    SUBPROBLEM_TOL,
    SolverOptions,
    WeightMatrix,
    _bordered_solver,
    _laplacian,
    _laplacian_pinv,
    _pairwise_sq_dists,
    _project_rows,
    _rows,
    _solve_null_space,
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


def _uniform_weights(m):
    return WeightMatrix(np.ones((m, m)) - np.eye(m))


def _random_weights(rng, m):
    w = rng.uniform(0.1, 2.0, (m, m))
    w = (w + w.T) / 2.0
    np.fill_diagonal(w, 0.0)
    return WeightMatrix(w)


def test_solver_options_validation():
    with pytest.raises(DataValidationError):
        SolverOptions(max_iter=0)
    with pytest.raises(DataValidationError):
        SolverOptions(stop_tol=-1.0)
    with pytest.raises(DataValidationError, match="max_iter must be at least 1 and an integer"):
        SolverOptions(max_iter=2.5)
    assert SolverOptions(max_iter=np.int64(3)).max_iter == 3


def test_weight_matrix_validation():
    with pytest.raises(DataValidationError):
        WeightMatrix(np.array([[0.0, 1.0], [2.0, 0.0]]))
    positive = "weights must be positive off the diagonal"
    with pytest.raises(DataValidationError, match=positive):
        WeightMatrix(np.array([[0.0, -1.0], [-1.0, 0.0]]))
    with pytest.raises(DataValidationError, match=positive):
        WeightMatrix(np.zeros((2, 2)))
    path = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 1.0], [0.0, 1.0, 0.0]])
    with pytest.raises(DataValidationError, match=positive):  # connected, not complete
        WeightMatrix(path)
    with pytest.raises(DataValidationError):
        WeightMatrix(np.array([[1.0, 1.0], [1.0, 1.0]]))
    with pytest.raises(DataValidationError, match="square"):
        WeightMatrix(np.zeros((2, 3)))
    with pytest.raises(DataValidationError, match="non-finite"):
        WeightMatrix(np.array([[0.0, np.nan], [np.nan, 0.0]]))
    uniform = _uniform_weights(3)  # kept as given, read-only
    assert np.array_equal(uniform.w, np.ones((3, 3)) - np.eye(3))
    assert not uniform.w.flags.writeable


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
    # distances that overflow would give zero weights, which are refused
    with pytest.raises(DataValidationError, match="positive off the diagonal"):
        update_weights(np.array([[0.0], [1e200]]), 1e-16)


def test_smoothed_objective_limits():
    rng = np.random.default_rng(0)
    z = rng.standard_normal((6, 2))
    assert smoothed_objective(z, 1e-18) == pytest.approx(objective(z), rel=1e-12)
    z_equal = np.ones((4, 3))
    # self-pairs excluded: 4*3 ordered pairs each contributing sqrt(delta)
    assert smoothed_objective(z_equal, 1e-8) == pytest.approx(12 * 1e-4, rel=1e-12)


def test_pairwise_sq_dists_match_per_pair_sum():
    rng = np.random.default_rng(21)
    for m, d in [(1, 3), (2, 1), (7, 2), (30, 10), (45, 4)]:
        z = rng.standard_normal((m, d)) * rng.uniform(1e-3, 1e3, size=d)
        D = _pairwise_sq_dists(z)
        expected = np.array(
            [[np.sum((z[i] - z[j]) ** 2) for j in range(m)] for i in range(m)]
        )
        assert D.shape == (m, m)
        np.testing.assert_allclose(D, expected, rtol=1e-15, atol=0.0)
        assert np.array_equal(D, D.T)
        assert np.all(np.diagonal(D) == 0.0)


@st.composite
def _bordered_systems(draw):
    d = draw(st.integers(2, 6))
    m = draw(st.integers(d + 1, 40))
    seed = draw(st.integers(0, 2**32 - 1))
    return m, d, seed


@settings(max_examples=60, deadline=None)
@given(_bordered_systems())
@example(system=(3, 2, 6145))  # Schur complement cond 3.8e6: unrefined 2.6e-10
def test_bordered_solver_matches_dense_kkt_solve(system):
    # the reduced solve's (m + d) system, solved through the Cholesky factors
    # of its multiplier block and Schur complement and refined once on the
    # bordered residual as _solve_reduced_kkt refines, against a dense LU solve
    m, d, seed = system
    rng = np.random.default_rng(seed)
    feats = rng.standard_normal((m, d))
    Lp = _laplacian_pinv(_laplacian(_random_weights(rng, m).w))
    S11 = 0.5 * (Lp * (feats @ feats.T))
    top, bottom = rng.standard_normal(m), rng.standard_normal(d)
    resolve = _bordered_solver(S11, feats)
    x, y = resolve(top, bottom)
    dx, dy = resolve(top - S11 @ x - feats @ y, bottom - feats.T @ x)
    x, y = x + dx, y + dy
    K = np.block([[S11, feats], [feats.T, np.zeros((d, d))]])
    expected = np.linalg.solve(K, np.concatenate([top, bottom]))
    error = np.linalg.norm(np.concatenate([x, y]) - expected)
    assert error <= 1e-10 * np.linalg.norm(expected)


def test_weighted_ls_step_concurrent_lines():
    ds = Dataset(
        np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]),
        np.array([1.0, 1.0, 2.0]),
    )
    Z = weighted_ls_step(ds, _uniform_weights(3))
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


def _plain_public_irls(ds, rounds):
    """``rounds`` plain (unaccelerated) IRLS solves through the public,
    validating building blocks, from uniform weights."""
    Z = weighted_ls_step(ds, _uniform_weights(ds.m))
    for _ in range(rounds - 1):
        Z = weighted_ls_step(ds, update_weights(Z, DELTA))
    return Z


def test_weighted_ls_step_fused_points_fallback():
    # plain subproblem 18 of criterion-7 instance 13: points have fused, so
    # weights near 1e8 sit beside O(1) ones and the reduced solve alone
    # misses the stationarity guard; the null-space solve must meet it
    ds = _criterion7_instance(13)
    w = update_weights(_plain_public_irls(ds, 17), DELTA)
    assert w.w.max() > 1e7
    L = _laplacian(w.w)
    rows = _rows(ds)
    z, nu = _solve_reduced_kkt(rows, L)
    z = _project_rows(z, rows)
    assert _stationarity_defect(L, z, nu, rows) > SUBPROBLEM_TOL
    _assert_matches_eqp(ds, w)


def test_irls_refuses_overflowing_distances_without_warnings():
    # the d = 2 rows pin estimates near +-1e154: the reduced solve passes its
    # guards, and the distance pass must overflow silently into the refusal
    ds = Dataset(
        np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [1.0, -1.0]]),
        np.array([1e154, -1e154, 1e154, -1e154]),
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DataValidationError, match="too far apart"):
            irls_solve(ds)


def test_stationarity_guard_fails_closed_on_nan(monkeypatch):
    # three d = 1 rows pinned at 1e200: the squared row norms overflow, so
    # the defect is NaN (inf - inf), though no squared distance overflows
    ds = Dataset(np.ones((3, 1)), np.full(3, 1e200))
    rows = _rows(ds)
    L = _laplacian(_uniform_weights(3).w)
    z = np.full((3, 1), 1e200)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert np.isnan(_stationarity_defect(L, z, np.zeros(3), rows))
        with pytest.raises(DataValidationError, match="squared row norms overflow"):
            weighted_ls_step(ds, _uniform_weights(3))
    # a NaN defect on finite estimates fails the guard: no route is accepted
    import mixreg.solver as solver_mod

    monkeypatch.setattr(solver_mod, "_stationarity_defect", lambda *args: float("nan"))
    ds = Dataset(np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]), np.array([1.0, 2.0, 3.0]))
    with pytest.raises(NumericalError, match="stationarity"):
        weighted_ls_step(ds, _uniform_weights(3))


@settings(max_examples=40, deadline=None)
@given(_bordered_systems())
def test_null_space_least_squares_matches_cholesky_on_unique_subproblems(system):
    # on a unique subproblem the minimum-norm least-squares solve and the
    # Cholesky solve find the same minimizer, and both pass the KKT guard
    m, d, seed = system
    rng = np.random.default_rng(seed)
    rows = _rows(_random_instance(rng, m, d))
    L = _laplacian(_random_weights(rng, m).w)
    assert rows.span_full
    fields = []
    for solve_rows in (rows, rows._replace(span_full=False)):  # Cholesky, then lstsq
        z = _project_rows(_solve_null_space(solve_rows, L), rows)
        nu = -np.einsum("ij,ij->i", rows.features, 2.0 * (L @ z)) / rows.sq_norms
        assert _stationarity_defect(L, z, nu, rows) <= SUBPROBLEM_TOL
        fields.append(z)
    cholesky, least_squares = fields
    assert np.linalg.norm(least_squares - cholesky) <= 1e-9 * np.linalg.norm(cholesky)


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


def test_weighted_ls_step_span_deficient_min_norm():
    # both constraints share the same normal: translations orthogonal to it
    # are unpenalized, so the minimum-norm minimizer is returned
    ds = Dataset(np.array([[1.0, 0.0], [1.0, 0.0]]), np.array([1.0, 3.0]))
    with pytest.warns(NonUniqueSolutionWarning):
        Z = weighted_ls_step(ds, _uniform_weights(2))
    assert np.allclose(Z.z, np.array([[1.0, 0.0], [3.0, 0.0]]), atol=1e-12)


def _near_flat_instance(seed, r):
    """20 x 3 features ``5 U diag(1, 1, r) V^T``: they span, with the third
    singular value ``r`` times the other two."""
    rng = np.random.default_rng(seed)
    U = np.linalg.qr(rng.standard_normal((20, 3)))[0]
    V = np.linalg.qr(rng.standard_normal((3, 3)))[0]
    return Dataset(5.0 * U @ np.diag([1.0, 1.0, r]) @ V.T, rng.standard_normal(20))


@pytest.mark.parametrize("r", [1e-7, 1e-8, 1e-10, 3e-12])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_irls_solves_near_flat_features(seed, r):
    # the reduced solve is bordered with the features' left singular
    # vectors, so its Schur complement stays well conditioned however flat
    # the features; bordered with the features themselves it broke down and
    # the null-space solve failed its condition floor
    ds = _near_flat_instance(seed, r)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        Z, trace = irls_solve(ds, SolverOptions(max_iter=20))
    assert trace.stop_reason in ("step", "cap")
    gaps = np.abs(np.einsum("ij,ij->i", ds.features, Z.z) - ds.responses)
    scales = np.abs(ds.responses) + np.linalg.norm(ds.features, axis=1) * np.linalg.norm(
        Z.z, axis=1
    )
    assert np.all(gaps <= 1e-12 * scales + 1e-12)


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
        weighted_ls_step(dataset, _uniform_weights(3))


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
        "converged", "max_feasibility_residual", "stop_reason", "extrapolations",
    }
    assert payload["stop_reason"] == "step" and payload["converged"] is True


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
    # equal-length runs compare the loop itself, with the stop rule kept out
    rng = np.random.default_rng(11)
    ds = _random_instance(rng, 8, 3)
    scaled = Dataset(ds.features, 3.0 * ds.responses)
    opts = SolverOptions(max_iter=40, stop_tol=1e-300)
    base, tr_a = irls_solve(ds, opts)
    big, tr_b = irls_solve(scaled, opts)
    assert tr_a.iterations == tr_b.iterations == 40
    rel = np.linalg.norm(big.z - 3.0 * base.z) / np.linalg.norm(3.0 * base.z)
    assert rel <= 1e-8
    # the step is measured relative to the field, so scaling b leaves the
    # stopping solve where it was
    base, trace = irls_solve(ds)
    assert trace.stop_reason == "step"
    for scale in (1e4, 1e8):
        big, tr_b = irls_solve(Dataset(ds.features, scale * ds.responses))
        assert tr_b.iterations == trace.iterations
        rel = np.linalg.norm(big.z - scale * base.z) / np.linalg.norm(scale * base.z)
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
    assert trace.stop_reason == "cap" and not trace.converged
    assert trace.to_dict()["converged"] is False
    assert trace.iterations == 3


def test_irls_single_subproblem():
    ds = Dataset(np.array([[1.0, 0.0], [0.0, 1.0]]), np.array([1.0, 1.0]))
    _, trace = irls_solve(ds, SolverOptions(max_iter=1))
    assert trace.iterations == 1
    assert trace.final_step_norm is None
    assert not trace.converged


def test_irls_certified_exit_matches_plain_solve(criterion1_runs, criterion4_runs):
    # every aperture-grid instance, and every criterion-4 instance whose
    # planted certificate certifies, exits through the certificate and lands
    # on the plain solve's answer with no larger objective
    runs = criterion1_runs + [r for r in criterion4_runs if r["verdict"].certifies]
    opts = SolverOptions(stop_tol=1e-8, max_iter=8)
    for rec in runs:
        dataset, model = rec["dataset"], rec["model"]
        estimate, trace = irls_solve(dataset, opts, k=model.k)
        assert trace.stop_reason == "certified" and trace.converged
        assert trace.to_dict()["converged"] is True
        assert len(trace.objective_history) == trace.iterations
        assert trace.max_feasibility_residual >= feasibility_residual(estimate, dataset)
        assert recovery_error(estimate, rec["estimate"]) <= 1e-5
        assert objective(estimate) <= objective(rec["estimate"]) + 1e-9 * dataset.m**2


def test_irls_exit_leaves_uncertified_solve_unchanged(monkeypatch):
    # criterion-3 cell d=4, tau=0.02: the closed-form certificate cannot
    # certify an imbalanced labeling, so the one attempt, after the first
    # solve, fails and the loop must run exactly as without k
    import mixreg.solver as solver_mod
    from mixreg.phase import trial_seed
    from mixreg.synth import Sim2Config, gen_sim2

    attempts = []
    certified_field = solver_mod._certified_field

    def counted(*args, **kwargs):
        attempts.append(args[1].copy())
        return certified_field(*args, **kwargs)

    monkeypatch.setattr(solver_mod, "_certified_field", counted)
    dataset, model = gen_sim2(Sim2Config(d=4, tau=0.02, seed=trial_seed(1, 4, 1, 0)))
    plain, plain_trace = irls_solve(dataset)
    assert attempts == []
    tried, tried_trace = irls_solve(dataset, k=model.k)
    assert tried_trace.stop_reason != "certified"
    assert tried_trace.iterations > 2 and len(attempts) == 1
    first, _ = irls_solve(dataset, SolverOptions(max_iter=1))
    assert np.array_equal(attempts[0], first.z)
    assert tried_trace.stop_reason == plain_trace.stop_reason
    assert np.array_equal(tried.z, plain.z)
    assert tried_trace.iterations == plain_trace.iterations
    assert tried_trace.objective_history == plain_trace.objective_history


def test_irls_exit_needs_k_at_least_two(sim1_instance, monkeypatch):
    import mixreg.solver as solver_mod

    def never(*args, **kwargs):
        raise AssertionError("exit attempted")

    monkeypatch.setattr(solver_mod, "_certified_field", never)
    dataset, _ = sim1_instance
    for k in (None, 1):
        _, trace = irls_solve(dataset, k=k)
        assert trace.stop_reason == "step"
    with pytest.raises(DataValidationError):
        irls_solve(dataset, k=0)
    with pytest.raises(DataValidationError):  # before any exit attempt
        irls_solve(dataset, k=dataset.m + 1)


def test_irls_exit_adds_no_warnings():
    # alpha = 0 puts every measurement vector in one hyperplane: each
    # subproblem is non-unique and no group can span.  The exit refits such a
    # partition without warnings, the certificate's span check refuses it,
    # and the warning registry is left alone, so a solve with k warns exactly
    # as often as one without
    dataset, _ = gen_sim1(Sim1Config(k=3, d=4, n_per_class=16, alpha=0.0, seed=1))
    for k in (None, 3):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("default")
            irls_solve(dataset, k=k)
        categories = [w.category for w in caught]
        assert categories.count(NonUniqueSolutionWarning) == 1, (k, categories)
        assert UnderdeterminedFitWarning not in categories, (k, categories)


def test_irls_certified_exit_spans_each_group_once(monkeypatch):
    # the exit decides each group's span from the singular values its refit
    # already has: a solve certified at its first solve makes one span
    # decision for the features and one per group, and its only SVD is the
    # features' thin SVD
    import mixreg.solver as solver_mod

    decided, svds = [], []
    full_rank, svd = solver_mod._full_rank, np.linalg.svd

    def counted_rank(svals, *args, **kwargs):
        decided.append(len(svals))
        return full_rank(svals, *args, **kwargs)

    def counted_svd(A, *args, **kwargs):
        svds.append(kwargs)
        return svd(A, *args, **kwargs)

    monkeypatch.setattr(solver_mod, "_full_rank", counted_rank)
    monkeypatch.setattr(np.linalg, "svd", counted_svd)
    dataset, _ = gen_sim1(Sim1Config(k=3, d=5, n_per_class=16, alpha=0.1, seed=7))
    _, trace = irls_solve(dataset, k=3)
    assert trace.stop_reason == "certified" and trace.iterations == 1
    assert decided == [5, 5, 5, 5], decided
    assert svds == [{"full_matrices": False}], svds


@st.composite
def _exit_instances(draw):
    """A ``gen_sim1`` instance (d 3-15, so rows d >= 10 whose classes do not
    span, alpha up to 0.6) or a ``gen_sim2`` one (tau = 0 or above)."""
    from mixreg.synth import SIM2_TAU_MAX, Sim2Config, gen_sim2

    d = draw(st.integers(3, 15))
    seed = draw(st.integers(0, 2**32 - 1))
    if draw(st.booleans()):
        alpha = draw(st.floats(0.0, 0.6))
        return gen_sim1(Sim1Config(k=3, d=d, n_per_class=16, alpha=alpha, seed=seed))[0]
    tau = draw(st.one_of(st.just(0.0), st.floats(0.0, SIM2_TAU_MAX)))
    return gen_sim2(Sim2Config(d=d, tau=tau, seed=seed))[0]


@settings(max_examples=60, deadline=None)
@given(_exit_instances())
def test_certified_exit_agrees_with_the_public_verdict(dataset):
    # the exit's one pass on raw arrays certifies exactly when the public,
    # validating functions certify the same k-means labeling and refit, and
    # the refit field is feasible
    from mixreg.certificate import build_certificate, verify_certificate
    from mixreg.cluster import kmeans, refit_regression
    from mixreg.errors import MixregError
    from mixreg.model import MixtureModel
    from mixreg.solver import _certified_field, _feasibility_gap

    rows = _rows(dataset)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        z = irls_solve(dataset, SolverOptions(max_iter=1))[0].z
        try:
            labels = kmeans(z, 3, restarts=1, seed=0).labels
            labeled = Dataset(dataset.features, dataset.responses, labels)
            betas = refit_regression(labeled, labels).betas_hat
            model = MixtureModel(betas, labeled.class_sizes())
            cert = build_certificate(labeled, model)
            certifies = verify_certificate(cert, labeled, model).certifies
        except MixregError:
            certifies = False
    result = _certified_field(rows, z, 3)
    if certifies:
        certifies = _feasibility_gap(rows, betas[labels]) is not None
    assert (result is not None) == certifies
    if result is not None:
        assert np.array_equal(result[0], betas[labels])


def test_certified_exit_falls_back_to_exact_gamma(monkeypatch):
    # class 0's complement parts form an equilateral triangle (d = 3,
    # n_p = 3) of circumradius 3 s: gamma = s sqrt(3) = 0.953 is below one
    # but the deviation bound 2 s = 1.1 is not, so the exit must form the
    # pair differences, and it certifies
    import mixreg.certificate as certificate_mod
    from mixreg.certificate import _stationarity, build_certificate, verify_certificate
    from mixreg.geometry import _targets
    from mixreg.model import MixtureModel
    from mixreg.solver import _certified_field

    angles = 2.0 * np.pi * np.arange(3) / 3.0
    u = np.stack([np.zeros(3), np.cos(angles), np.sin(angles)], axis=1)
    e1 = np.array([1.0, 0.0, 0.0])
    features = np.vstack([e1 + 0.55 * u, -e1 + 0.1 * u])
    labels = np.repeat([0, 1], 3)
    betas = np.array([[1.0, 0.3, -0.2], [-1.0, 0.3, -0.2]])
    dataset = Dataset(features, np.einsum("ij,ij->i", features, betas[labels]), labels)
    model = MixtureModel(betas, np.array([3, 3]))
    cert = build_certificate(dataset, model)
    verdict = verify_certificate(cert, dataset, model)
    bound = _stationarity(
        features, _targets(dataset, model), cert.nu, cert.rows, labels, model.sizes
    )[2]
    assert 0.87 < verdict.gamma < 1.0 <= bound and verdict.certifies

    exact = []
    gamma = certificate_mod.Certificate.gamma

    def counted(self):
        exact.append(self)
        return gamma.fget(self)

    monkeypatch.setattr(certificate_mod.Certificate, "gamma", property(counted))
    result = _certified_field(_rows(dataset), betas[labels], 2)
    assert result is not None and len(exact) == 1
    np.testing.assert_allclose(result[0], betas[labels], rtol=0.0, atol=1e-14)


@st.composite
def _certifying_instances(draw):
    d = draw(st.integers(3, 6))
    n = 2 * draw(st.integers(d, 2 * d))
    alpha = draw(st.floats(0.02, 0.3))
    seed = draw(st.integers(0, 2**32 - 1))
    return d, n, alpha, seed


@settings(max_examples=40, deadline=None)
@given(_certifying_instances())
def test_irls_certified_exit_symmetries(instance):
    # the certified field is the program's unique minimizer, so a rotation
    # of the features, a rescaling of each row, a row permutation and a
    # rescaling of the responses map it exactly and certify at the same solve
    d, n, alpha, seed = instance
    dataset, _ = gen_sim1(Sim1Config(k=3, d=d, n_per_class=n, alpha=alpha, seed=seed))
    opts = SolverOptions(stop_tol=1e-8)
    Z, trace = irls_solve(dataset, opts, k=3)
    assume(trace.stop_reason == "certified")

    A, b, m = dataset.features, dataset.responses, dataset.m
    rng = np.random.default_rng(seed)
    Q = np.linalg.qr(rng.standard_normal((d, d)))[0]
    s = rng.choice([-1.0, 1.0], m) * 10.0 ** rng.uniform(-1.0, 1.0, m)
    perm = rng.permutation(m)
    c = 10.0 ** rng.uniform(-6.0, 6.0)
    variants = {
        "rotation": (A @ Q.T, b, Z.z @ Q.T),
        "row scale": (s[:, None] * A, s * b, Z.z),
        "permutation": (A[perm], b[perm], Z.z[perm]),
        "response scale": (A, c * b, c * Z.z),
    }
    for name, (feats, resp, mapped) in variants.items():
        Zv, tv = irls_solve(Dataset(feats, resp), opts, k=3)
        assert tv.stop_reason == "certified", name
        assert tv.iterations == trace.iterations, name
        rel = np.linalg.norm(Zv.z - mapped) / np.linalg.norm(mapped)
        assert rel <= 1e-12, (name, rel)


def _reference_irls(ds, opts):
    """The accelerated IRLS loop written with the public, validating
    building blocks: two solves per cycle, then the SQUAREM point, kept only
    if its smoothed objective is finite and no larger than the second
    solve's.  Returns the last solve, the field whose weights it used (None
    for uniform weights) and the trace figures."""
    rows = _rows(ds)
    weights = _uniform_weights(ds.m)
    base, cycle, history, step, stop_reason, extrapolations = None, [], [], None, "cap", 0
    for t in range(1, opts.max_iter + 1):
        Z, used = weighted_ls_step(ds, weights), base
        history.append(smoothed_objective(Z, DELTA))
        if base is not None:
            step = recovery_error(Z, base)
        if base is not None and (
            np.linalg.norm(Z.z - base) <= opts.stop_tol * np.linalg.norm(base)
        ):
            stop_reason = "step"
            break
        weights, base = update_weights(Z, DELTA), Z.z
        cycle.append(base)
        if len(cycle) == 3:
            x, f1, f2 = cycle
            r = f1 - x
            v = f2 - f1 - r
            if np.linalg.norm(v) > 0.0:
                alpha = min(-1.0, -float(np.linalg.norm(r) / np.linalg.norm(v)))
                if alpha < -1.0:
                    x_new = _project_rows(x - 2.0 * alpha * r + alpha * alpha * v, rows)
                    f_new = smoothed_objective(x_new, DELTA)
                    if np.isfinite(f_new) and f_new <= history[-1]:
                        weights, base = update_weights(x_new, DELTA), x_new
                        extrapolations += 1
            cycle = [base]
    return Z, used, t, history, step, stop_reason, extrapolations


def _nonunique_warnings(run):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = run()
    return result, sum(issubclass(w.category, NonUniqueSolutionWarning) for w in caught)


@pytest.mark.parametrize("case", ["aperture", "fused", "span_deficient"])
def test_irls_matches_public_building_blocks_exactly(case, monkeypatch):
    # the loop's private per-solve path must reproduce the public, validating
    # one bit for bit: same iterates, objectives, step norms and stop
    if case == "aperture":  # criterion-4 style: k = 3, stop_tol = 1e-8
        ds, _ = gen_sim1(Sim1Config(k=3, d=6, n_per_class=16, alpha=0.12, seed=404))
        opts = SolverOptions(stop_tol=1e-8)
    elif case == "fused":  # the null-space fallback fires (counted below)
        ds = _criterion7_instance(13)
        opts = SolverOptions(stop_tol=1e-10, max_iter=17)
    else:  # every a_i in the (e1, e2) plane of R^3
        rng = np.random.default_rng(8)
        feats = np.column_stack([rng.standard_normal((10, 2)), np.zeros(10)])
        ds = Dataset(feats, rng.standard_normal(10))
        opts = SolverOptions(max_iter=12)
    reference, ref_warned = _nonunique_warnings(lambda: _reference_irls(ds, opts))
    ref_z, _, ref_iters, ref_hist, ref_step, ref_reason, ref_extra = reference

    import mixreg.solver as solver_mod

    unique_flags = []  # one per null-space solve; a unique one is a fallback
    null_space = solver_mod._solve_null_space

    def counted(rows, L):
        unique_flags.append(rows.span_full)
        return null_space(rows, L)

    monkeypatch.setattr(solver_mod, "_solve_null_space", counted)
    (Z, trace), warned = _nonunique_warnings(lambda: irls_solve(ds, opts))
    assert np.array_equal(Z.z, ref_z.z)
    assert np.array_equal(trace.objective_history, ref_hist)
    assert trace.iterations == ref_iters
    assert trace.final_step_norm == ref_step
    assert trace.stop_reason == ref_reason
    assert trace.extrapolations == ref_extra
    assert any(unique_flags) == (case == "fused")
    assert (False in unique_flags) == (case == "span_deficient")  # min-norm solves
    # one warning per subproblem although the span is checked once per solve
    assert warned == ref_warned == (trace.iterations if case == "span_deficient" else 0)


@st.composite
def _accelerated_instances(draw):
    d = draw(st.integers(2, 6))
    m = draw(st.integers(max(3, d), 30))  # m >= d: features span
    seed = draw(st.integers(0, 2**32 - 1))
    return m, d, seed


@settings(max_examples=25, deadline=None)
@given(_accelerated_instances())
def test_irls_accelerated_loop_invariants(instance):
    # descent, one history entry per solve, feasible rows, and a returned
    # field that is the subproblem solution at its base field's weights
    m, d, seed = instance
    ds = _random_instance(np.random.default_rng(seed), m, d)
    Z, trace = irls_solve(ds)
    history = np.asarray(trace.objective_history)
    assert np.all(np.diff(history) <= 1e-10)
    assert len(history) == trace.iterations
    gaps = np.abs(np.einsum("ij,ij->i", ds.features, Z.z) - ds.responses)
    scales = np.abs(ds.responses) + np.linalg.norm(ds.features, axis=1) * np.linalg.norm(
        Z.z, axis=1
    )
    assert np.all(gaps <= 1e-12 * scales + 1e-12)
    ref_z, base, *_ = _reference_irls(ds, SolverOptions())
    assert np.array_equal(Z.z, ref_z.z)
    weights = _uniform_weights(m) if base is None else update_weights(base, DELTA)
    assert np.array_equal(Z.z, weighted_ls_step(ds, weights).z)


def test_irls_accelerated_solve_stops_where_plain_caps():
    # imbalance instance d=4, tau=0.06: plain IRLS hits the 150-solve cap
    # 9.4e-6 from its limit at stop_tol=1e-8; the accelerated loop stops by
    # the step rule within 1e-6 of a long plain reference
    from mixreg.synth import Sim2Config, gen_sim2

    ds, _ = gen_sim2(Sim2Config(d=4, tau=0.06, seed=0))
    Z, trace = irls_solve(ds, SolverOptions(stop_tol=1e-8))
    assert trace.stop_reason == "step"
    assert trace.extrapolations >= 1
    assert recovery_error(Z, _plain_public_irls(ds, 600)) <= 1e-6


def test_solver_lapack_is_scipy_linalg_lapack():
    # the solver loads the compiled wrappers that scipy.linalg.lapack
    # re-exports: the very same function objects
    import scipy.linalg.lapack

    import mixreg.solver as solver_mod

    for name in ("dpotrf", "dpotri", "dpocon", "dpotrs"):
        assert getattr(solver_mod.lapack, name) is getattr(scipy.linalg.lapack, name)


def test_lapack_loader_falls_back_to_scipy_linalg(monkeypatch, sim1_instance):
    import scipy.linalg.lapack

    import mixreg.solver as solver_mod

    dataset, _ = sim1_instance
    expected, _ = irls_solve(dataset)
    # no extension suffix matches, so no _flapack file is found
    monkeypatch.setattr(importlib.machinery, "EXTENSION_SUFFIXES", [])
    fallback = solver_mod._load_lapack()
    assert fallback is scipy.linalg.lapack
    monkeypatch.setattr(solver_mod, "lapack", fallback)
    estimate, _ = irls_solve(dataset)
    assert np.array_equal(estimate.z, expected.z)
