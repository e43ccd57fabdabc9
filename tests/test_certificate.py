import dataclasses
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from mixreg.certificate import (
    DEFAULT_S1_TOL,
    GAMMA_BORDERLINE,
    Certificate,
    _stationarity,
    build_certificate,
    verify_certificate,
)
from mixreg.errors import (
    CertificateUndefinedError,
    DataValidationError,
    DegenerateModelError,
)
from mixreg.geometry import _split_rows, _targets, check_conditions, weighted_directions
from mixreg.model import Dataset, MixtureModel, candidate_solution, recovery_error
from mixreg.solver import irls_solve
from mixreg.synth import (
    SIM1_ALPHA_MAX,
    SIM2_TAU_MAX,
    Sim1Config,
    Sim2Config,
    gen_sim1,
    gen_sim2,
)
from oracles import certificate_xi


def test_nu_closed_form_on_axis_points():
    # zero aperture puts every measurement exactly on its class direction
    dataset, model = gen_sim1(Sim1Config(k=3, d=5, n_per_class=16, alpha=0.0, seed=0))
    cert = build_certificate(dataset, model)
    assert np.allclose(cert.nu, 16.0 * np.sqrt(3), rtol=1e-12)
    assert cert.gamma <= 1e-14  # no orthogonal parts at all
    verdict = verify_certificate(cert, dataset, model)
    assert not verdict.spans_ok  # all class points coincide
    assert not verdict.certifies


def test_xi_antisymmetry_and_orthogonality(sim1_instance):
    dataset, model = sim1_instance
    cert = build_certificate(dataset, model)
    members = dataset.class_members(0)
    v = weighted_directions(model)[0]
    vhat = v / np.linalg.norm(v)
    i, j = int(members[0]), int(members[5])
    assert np.array_equal(certificate_xi(cert, j, i), -certificate_xi(cert, i, j))
    assert np.array_equal(certificate_xi(cert, i, i), np.zeros(dataset.d))
    for a, b in [(members[0], members[1]), (members[2], members[9])]:
        xi = certificate_xi(cert, int(a), int(b))
        assert abs(float(vhat @ xi)) <= 1e-12


def test_scaled_orthogonal_parts_cancel(sim1_instance):
    dataset, model = sim1_instance
    cert = build_certificate(dataset, model)
    for p, v in enumerate(weighted_directions(model)):
        members = dataset.class_members(p)
        vhat = v / np.linalg.norm(v)
        A = dataset.features[members]
        ortho = A - np.outer(A @ vhat, vhat)
        total = (cert.nu[members][:, None] * ortho).sum(axis=0)
        assert np.linalg.norm(total) <= 1e-10


def test_verdict_on_separated_instance(sim1_instance):
    dataset, model = sim1_instance
    cert = build_certificate(dataset, model)
    verdict = verify_certificate(cert, dataset, model)
    assert verdict.s1_residual <= 1e-9
    assert verdict.gamma < 1.0
    assert verdict.strict_gamma and not verdict.borderline_gamma
    assert verdict.spans_ok
    assert verdict.certifies
    payload = verdict.to_dict()
    assert payload["certifies"] is True
    assert set(payload) == {
        "s1_residual", "s1_scale", "tol", "gamma", "strict_gamma",
        "borderline_gamma", "spans_ok", "certifies",
    }


def test_gamma_bound_chain(sim1_instance):
    dataset, model = sim1_instance
    cert = build_certificate(dataset, model)
    V = weighted_directions(model)
    coef, ortho, orthogonal = _split_rows(dataset.features, V[dataset.labels])
    assert not np.any(orthogonal)
    for p, v in enumerate(V):
        members = dataset.class_members(p)
        ratios = np.linalg.norm(ortho[members], axis=1) / np.abs(coef[members])
        n_p = members.size
        bound = 2.0 * max(ratios) * dataset.m * np.linalg.norm(v) / n_p
        gamma_p = max(
            np.linalg.norm(certificate_xi(cert, int(a), int(b)))
            for ai, a in enumerate(members)
            for b in members[ai + 1 :]
        )
        assert gamma_p <= bound + 1e-10


def test_imbalanced_instance_fails_stationarity():
    dataset, model = gen_sim2(Sim2Config(d=5, tau=0.05, seed=1))
    cert = build_certificate(dataset, model)
    verdict = verify_certificate(cert, dataset, model)
    assert not verdict.certifies
    assert verdict.s1_residual > verdict.tol * verdict.s1_scale
    # the defect is the residual balance sum: ||v|| * (m - n_p) * tau
    v = weighted_directions(model)[2]
    expected = np.linalg.norm(v) * (dataset.m - 20) * 0.05
    assert verdict.s1_residual == pytest.approx(expected, rel=1e-8)


def test_poorly_separated_instance_has_large_gamma():
    # one class-one measurement leans heavily away from its direction
    v1 = np.array([1.0, -1.0]) / np.sqrt(2)
    q = np.array([1.0, 1.0]) / np.sqrt(2)
    feats = np.vstack([v1 + 3.0 * q, v1, -v1 + 0.1 * q, -v1 - 0.1 * q])
    labels = np.array([0, 0, 1, 1])
    betas = np.eye(2)
    resp = np.einsum("ij,ij->i", feats, betas[labels])
    dataset = Dataset(feats, resp, labels)
    model = MixtureModel(betas, np.array([2, 2]))
    cert = build_certificate(dataset, model)
    assert cert.gamma == pytest.approx(3.0, rel=1e-12)
    verdict = verify_certificate(cert, dataset, model)
    assert not verdict.strict_gamma
    assert not verdict.certifies


def test_orthogonal_point_raises_with_index():
    v1 = np.array([1.0, -1.0]) / np.sqrt(2)
    q = np.array([1.0, 1.0]) / np.sqrt(2)
    feats = np.vstack([v1, q, -v1, -v1 + 0.1 * q])
    labels = np.array([0, 0, 1, 1])
    betas = np.eye(2)
    resp = np.einsum("ij,ij->i", feats, betas[labels])
    dataset = Dataset(feats, resp, labels)
    model = MixtureModel(betas, np.array([2, 2]))
    with pytest.raises(CertificateUndefinedError) as err:
        build_certificate(dataset, model)
    assert err.value.row_index == 1


def test_orthogonal_point_reports_first_row():
    # rows 0 (class 1) and 3 (class 0) are orthogonal to their class
    # directions +-(e1 - e2) / sqrt(2); the first of them is named
    feats = np.array([
        [1.0, 1.0], [1.0, -0.5], [-1.0, 0.8], [0.5, 0.5], [0.9, -1.0], [-1.0, 1.2],
    ])
    labels = np.array([1, 0, 1, 0, 0, 1])
    betas = np.eye(2)
    dataset = Dataset(feats, np.einsum("ij,ij->i", feats, betas[labels]), labels)
    with pytest.raises(CertificateUndefinedError) as err:
        build_certificate(dataset, MixtureModel(betas, np.array([3, 3])))
    assert err.value.row_index == 0


def test_zero_weighted_direction_raises():
    # beta_0 = 0 sits halfway between e1 and -e1 and the classes are equal,
    # so the weighted direction of class 0 is the zero vector
    rng = np.random.default_rng(4)
    feats = rng.standard_normal((6, 2))
    labels = np.repeat(np.arange(3), 2)
    betas = np.array([[0.0, 0.0], [1.0, 0.0], [-1.0, 0.0]])
    resp = np.einsum("ij,ij->i", feats, betas[labels])
    dataset = Dataset(feats, resp, labels)
    model = MixtureModel(betas, np.array([2, 2, 2]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DegenerateModelError, match="component 0"):
            check_conditions(dataset, model)
        with pytest.raises(DegenerateModelError, match="component 0"):
            build_certificate(dataset, model)


def _mirrored_instance(t):
    # class one: mirrored pair v1 +- t q, so its one xi has norm 2t
    v1 = np.array([1.0, -1.0]) / np.sqrt(2)
    q = np.array([1.0, 1.0]) / np.sqrt(2)
    feats = np.vstack([v1 + t * q, v1 - t * q, -v1 + 0.05 * q, -v1 - 0.05 * q])
    labels = np.array([0, 0, 1, 1])
    betas = np.eye(2)
    resp = np.einsum("ij,ij->i", feats, betas[labels])
    return Dataset(feats, resp, labels), MixtureModel(betas, np.array([2, 2]))


def test_borderline_gamma_flagged():
    # t is tuned so the class-one xi, of norm 2t, lands just below the
    # strict bound
    dataset, model = _mirrored_instance(0.5 - 5e-11)
    cert = build_certificate(dataset, model)
    assert 1.0 - 1e-9 <= cert.gamma < 1.0
    verdict = verify_certificate(cert, dataset, model)
    assert verdict.strict_gamma
    assert verdict.borderline_gamma
    assert verdict.certifies  # strict bound still holds, only flagged


def test_gamma_is_measured_from_the_rows():
    # gamma is a function of the multipliers, so a certificate cannot carry
    # a gamma its rows do not give
    dataset, model = _mirrored_instance(0.6)
    cert = build_certificate(dataset, model)
    assert cert.gamma == pytest.approx(1.2, rel=1e-12)
    with pytest.raises(TypeError):
        Certificate(nu=cert.nu, rows=cert.rows, gamma=0.5, labels=cert.labels)
    with pytest.raises(TypeError):
        dataclasses.replace(cert, gamma=0.5)
    rebuilt = Certificate(nu=cert.nu, rows=cert.rows, labels=cert.labels)
    verdict = verify_certificate(rebuilt, dataset, model)
    assert verdict.gamma == cert.gamma
    assert verdict.s1_residual <= verdict.tol * verdict.s1_scale
    assert verdict.spans_ok
    assert not verdict.strict_gamma
    assert not verdict.certifies


def test_certificate_soundness_small():
    for seed in (3, 14):
        dataset, model = gen_sim1(
            Sim1Config(k=3, d=4, n_per_class=16, alpha=0.12, seed=seed)
        )
        verdict = verify_certificate(build_certificate(dataset, model), dataset, model)
        assert verdict.certifies
        estimate, _ = irls_solve(dataset)
        assert recovery_error(estimate, candidate_solution(dataset, model)) < 1e-5


def test_verify_rejects_mismatched_inputs(sim1_instance):
    dataset, model = sim1_instance
    cert = build_certificate(dataset, model)
    other, other_model = gen_sim1(
        Sim1Config(k=3, d=5, n_per_class=16, alpha=0.1, seed=7)
    )
    relabeled = Dataset(
        other.features, other.responses, np.roll(other.labels, 1)
    )
    with pytest.raises(DataValidationError):
        verify_certificate(cert, relabeled, other_model)
    # the same labels in another dimension
    narrower, narrower_model = gen_sim1(
        Sim1Config(k=3, d=4, n_per_class=16, alpha=0.1, seed=7)
    )
    assert np.array_equal(narrower.labels, dataset.labels)
    with pytest.raises(DataValidationError, match="size does not match"):
        verify_certificate(cert, narrower, narrower_model)


@st.composite
def _labeled_instances(draw):
    k = draw(st.integers(2, 4))
    d = draw(st.integers(2, 6))
    sizes = draw(st.lists(st.integers(d, 3 * d), min_size=k, max_size=k))
    return d, sizes, draw(st.integers(0, 2**32 - 1))


@settings(max_examples=30, deadline=None)
@given(_labeled_instances())
def test_certificate_matches_pairwise_reference(instance):
    d, sizes, seed = instance
    rng = np.random.default_rng(seed)
    betas = rng.standard_normal((len(sizes), d))
    labels = rng.permutation(np.repeat(np.arange(len(sizes)), sizes))
    feats = rng.standard_normal((labels.size, d))
    dataset = Dataset(feats, np.einsum("ij,ij->i", feats, betas[labels]), labels)
    model = MixtureModel(betas, np.array(sizes))
    cert = build_certificate(dataset, model)
    verdict = verify_certificate(cert, dataset, model)

    # reference: the explicit per-pair sums and norms
    s1_residual = 0.0
    gamma = 0.0
    for p, v in enumerate(weighted_directions(model)):
        members = [int(i) for i in dataset.class_members(p)]
        target = (dataset.m - len(members)) * v
        for i in members:
            total = np.zeros(d)
            for j in members:
                if j != i:
                    xi = certificate_xi(cert, i, j)
                    assert np.array_equal(certificate_xi(cert, j, i), -xi)
                    total += xi
                    gamma = max(gamma, float(np.linalg.norm(xi)))
            defect = cert.nu[i] * dataset.features[i] - total - target
            s1_residual = max(s1_residual, float(np.linalg.norm(defect)))
    assert abs(verdict.s1_residual - s1_residual) <= 1e-12 * verdict.s1_scale
    assert cert.gamma == pytest.approx(gamma, rel=1e-14, abs=0.0)


@settings(max_examples=50, deadline=None)
@given(_labeled_instances())
def test_stationarity_defect_is_the_balance_residual(instance):
    # sum_j xi_ij = rows[i] - mean(rows), so every point's defect is the
    # class's mean row, whose norm is ||v_p|| (m - n_p) tau_p
    d, sizes, seed = instance
    rng = np.random.default_rng(seed)
    betas = rng.standard_normal((len(sizes), d))
    labels = rng.permutation(np.repeat(np.arange(len(sizes)), sizes))
    feats = rng.standard_normal((labels.size, d))
    dataset = Dataset(feats, np.einsum("ij,ij->i", feats, betas[labels]), labels)
    model = MixtureModel(betas, np.array(sizes))
    verdict = verify_certificate(build_certificate(dataset, model), dataset, model)
    taus = check_conditions(dataset, model).balance_residuals
    V = weighted_directions(model)
    expected = max(
        np.linalg.norm(V[p]) * (dataset.m - model.sizes[p]) * taus[p]
        for p in range(model.k)
    )
    assert abs(verdict.s1_residual - expected) <= 1e-12 * verdict.s1_scale


@st.composite
def _generated_instances(draw):
    """A ``gen_sim1`` or ``gen_sim2`` instance, and a seed for the change of
    variables applied to it."""
    d = draw(st.integers(3, 6))
    seed = draw(st.integers(0, 2**32 - 1))
    if draw(st.booleans()):
        alpha = draw(st.floats(0.02, SIM1_ALPHA_MAX))
        instance = gen_sim1(Sim1Config(k=3, d=d, n_per_class=2 * d, alpha=alpha, seed=seed))
    else:
        instance = gen_sim2(Sim2Config(d=d, tau=draw(st.floats(0.0, SIM2_TAU_MAX)), seed=seed))
    return instance, draw(st.integers(0, 2**32 - 1))


def _verdicts(dataset, model):
    """The flags of the conditions and the certificate, and the figures they
    are read from: gamma, the relative stationarity defect, the separation
    ratio and the balance residuals."""
    report = check_conditions(dataset, model)
    verdict = verify_certificate(build_certificate(dataset, model), dataset, model)
    flags = (
        report.well_separated,
        tuple(report.span_ok),
        verdict.strict_gamma,
        verdict.borderline_gamma,
        verdict.spans_ok,
        verdict.certifies,
    )
    s1_ratio = verdict.s1_residual / verdict.s1_scale
    figures = np.array([verdict.gamma, s1_ratio, report.separation_lhs, *report.balance_residuals])
    # a figure within rounding of its flag's threshold may flip that flag
    assume(abs(verdict.gamma - 1.0) > 1e-12)
    assume(abs(verdict.gamma - (1.0 - GAMMA_BORDERLINE)) > 1e-12)
    assume(abs(s1_ratio - DEFAULT_S1_TOL) > 1e-12)
    assume(abs(report.separation_lhs - report.separation_rhs) > 1e-12)
    return flags, figures


@settings(max_examples=40, deadline=None)
@given(_generated_instances())
def test_verdicts_invariant_under_orthogonal_change_of_coordinates(case):
    # a_i -> Q a_i and beta -> Q beta keep every projection ratio and norm
    (dataset, model), seed = case
    Q, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((dataset.d, dataset.d)))
    rotated = Dataset(dataset.features @ Q.T, dataset.responses, dataset.labels)
    rotated_model = MixtureModel(model.betas @ Q.T, model.sizes)
    flags, figures = _verdicts(dataset, model)
    rotated_flags, rotated_figures = _verdicts(rotated, rotated_model)
    assert rotated_flags == flags
    np.testing.assert_allclose(rotated_figures, figures, rtol=1e-12, atol=1e-12)


@settings(max_examples=40, deadline=None)
@given(_generated_instances())
def test_verdicts_invariant_under_row_rescaling(case):
    # (a_i, b_i) -> (s_i a_i, s_i b_i) is the same constraint; nu_i -> nu_i / s_i
    (dataset, model), seed = case
    rng = np.random.default_rng(seed)
    s = rng.choice([-1.0, 1.0], dataset.m) * 10.0 ** rng.uniform(-1.0, 1.0, dataset.m)
    scaled = Dataset(s[:, None] * dataset.features, s * dataset.responses, dataset.labels)
    flags, figures = _verdicts(dataset, model)
    scaled_flags, scaled_figures = _verdicts(scaled, model)
    assert scaled_flags == flags
    np.testing.assert_allclose(scaled_figures, figures, rtol=1e-12, atol=1e-12)


@st.composite
def _bounded_instances(draw):
    """A labeled instance: Gaussian features with random labels, or a
    ``gen_sim1`` (alpha up to 0.6) or ``gen_sim2`` (tau up to its maximum)
    instance with d up to 15."""
    kind = draw(st.sampled_from(["gaussian", "aperture", "imbalance"]))
    seed = draw(st.integers(0, 2**32 - 1))
    if kind == "gaussian":
        d, sizes, _ = draw(_labeled_instances())
        rng = np.random.default_rng(seed)
        betas = rng.standard_normal((len(sizes), d))
        labels = rng.permutation(np.repeat(np.arange(len(sizes)), sizes))
        feats = rng.standard_normal((labels.size, d))
        dataset = Dataset(feats, np.einsum("ij,ij->i", feats, betas[labels]), labels)
        return dataset, MixtureModel(betas, np.array(sizes))
    d = draw(st.integers(3, 15))
    if kind == "aperture":
        alpha = draw(st.floats(0.0, 0.6))
        return gen_sim1(Sim1Config(k=3, d=d, n_per_class=16, alpha=alpha, seed=seed))
    return gen_sim2(Sim2Config(d=d, tau=draw(st.floats(0.0, SIM2_TAU_MAX)), seed=seed))


@settings(max_examples=60, deadline=None)
@given(_bounded_instances())
def test_gamma_never_exceeds_the_deviation_bound(instance):
    # ||xi_ij|| = ||(rows_i - mean_p) - (rows_j - mean_p)|| / n_p, so
    # gamma <= 2 max_i ||rows_i - mean_p|| / n_p; a mirrored class meets it
    # with equality, which rounding may miss by a few ulps
    dataset, model = instance
    cert = build_certificate(dataset, model)
    _, _, bound = _stationarity(
        dataset.features, _targets(dataset, model), cert.nu, cert.rows,
        dataset.labels, model.sizes,
    )
    assert cert.gamma <= bound * (1.0 + 1e-12)
