import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mixreg.certificate import build_certificate, verify_certificate
from mixreg.errors import CertificateUndefinedError, DataValidationError
from mixreg.geometry import separation_ratio, weighted_direction
from mixreg.model import Dataset, MixtureModel, candidate_solution, recovery_error
from mixreg.solver import irls_solve
from mixreg.synth import Sim1Config, Sim2Config, gen_sim1, gen_sim2


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
    v = weighted_direction(0, model)
    vhat = v / np.linalg.norm(v)
    i, j = int(members[0]), int(members[5])
    assert np.array_equal(cert.xi_at(j, i), -cert.xi_at(i, j))
    assert np.array_equal(cert.xi_at(i, i), np.zeros(dataset.d))
    for a, b in [(members[0], members[1]), (members[2], members[9])]:
        xi = cert.xi_at(int(a), int(b))
        assert abs(float(vhat @ xi)) <= 1e-12
    with pytest.raises(DataValidationError):
        cert.xi_at(int(members[0]), int(dataset.class_members(1)[0]))


def test_scaled_orthogonal_parts_cancel(sim1_instance):
    dataset, model = sim1_instance
    cert = build_certificate(dataset, model)
    for p in range(model.k):
        members = dataset.class_members(p)
        v = weighted_direction(p, model)
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
    for p in range(model.k):
        members = dataset.class_members(p)
        v = weighted_direction(p, model)
        ratios = [
            separation_ratio(dataset.features[i], v) for i in members
        ]
        n_p = members.size
        bound = 2.0 * max(ratios) * dataset.m * np.linalg.norm(v) / n_p
        gamma_p = max(
            np.linalg.norm(cert.xi_at(int(a), int(b)))
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
    v = weighted_direction(2, model)
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


def test_borderline_gamma_flagged():
    # mirrored pairs with ||xi|| = 2t per class-one pair; t is tuned so the
    # largest multiplier vector lands just below the strict bound
    t = 0.5 - 5e-11
    v1 = np.array([1.0, -1.0]) / np.sqrt(2)
    q = np.array([1.0, 1.0]) / np.sqrt(2)
    feats = np.vstack([v1 + t * q, v1 - t * q, -v1 + 0.05 * q, -v1 - 0.05 * q])
    labels = np.array([0, 0, 1, 1])
    betas = np.eye(2)
    resp = np.einsum("ij,ij->i", feats, betas[labels])
    dataset = Dataset(feats, resp, labels)
    model = MixtureModel(betas, np.array([2, 2]))
    cert = build_certificate(dataset, model)
    assert 1.0 - 1e-9 <= cert.gamma < 1.0
    verdict = verify_certificate(cert, dataset, model)
    assert verdict.strict_gamma
    assert verdict.borderline_gamma
    assert verdict.certifies  # strict bound still holds, only flagged


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
    for p in range(model.k):
        members = [int(i) for i in dataset.class_members(p)]
        target = (dataset.m - len(members)) * weighted_direction(p, model)
        for i in members:
            total = np.zeros(d)
            for j in members:
                if j != i:
                    xi = cert.xi_at(i, j)
                    assert np.array_equal(cert.xi_at(j, i), -xi)
                    total += xi
                    gamma = max(gamma, float(np.linalg.norm(xi)))
            defect = cert.nu[i] * dataset.features[i] - total - target
            s1_residual = max(s1_residual, float(np.linalg.norm(defect)))
    assert abs(verdict.s1_residual - s1_residual) <= 1e-12 * verdict.s1_scale
    assert cert.gamma == pytest.approx(gamma, rel=1e-14, abs=0.0)
