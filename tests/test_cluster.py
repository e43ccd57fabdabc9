import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mixreg.cluster as cluster_mod
from mixreg.cluster import kmeans, match_labels, refit_regression
from mixreg.errors import DataValidationError, UnderdeterminedFitWarning
from mixreg.model import Dataset, candidate_solution, recovery_error
from mixreg.solver import irls_solve
from mixreg.synth import Sim1Config, gen_sim1
from oracles import kmeans_reference


def test_kmeans_identical_points():
    pts = np.tile([2.0, -1.0], (5, 1))
    result = kmeans(pts, 1, restarts=3, seed=0)
    assert np.allclose(result.centers[0], [2.0, -1.0])
    assert result.inertia == pytest.approx(0.0, abs=1e-20)


def test_kmeans_two_blobs():
    rng = np.random.default_rng(0)
    blob_a = np.array([10.0, 0.0]) + 0.1 * rng.standard_normal((20, 2))
    blob_b = np.array([-10.0, 0.0]) + 0.1 * rng.standard_normal((20, 2))
    pts = np.vstack([blob_a, blob_b])
    result = kmeans(pts, 2, seed=1)
    labels = result.labels
    assert len(set(labels[:20].tolist())) == 1
    assert len(set(labels[20:].tolist())) == 1
    assert labels[0] != labels[20]
    assert result.inertia < 20.0**2
    # every point sits with its nearest center
    d2 = np.sum((pts[:, None, :] - result.centers[None, :, :]) ** 2, axis=2)
    assert np.array_equal(np.argmin(d2, axis=1), labels)


def test_kmeans_k_equals_m():
    rng = np.random.default_rng(2)
    pts = rng.standard_normal((6, 2))
    result = kmeans(pts, 6, restarts=5, seed=3)
    assert result.inertia == pytest.approx(0.0, abs=1e-18)


def test_kmeans_deterministic():
    rng = np.random.default_rng(4)
    pts = rng.standard_normal((40, 3))
    a = kmeans(pts, 4, seed=9)
    b = kmeans(pts, 4, seed=9)
    assert np.array_equal(a.labels, b.labels)
    assert np.array_equal(a.centers, b.centers)


def test_kmeans_rejects_fewer_distinct_rows_than_k():
    # plus-plus seeding would have to repeat a center, and the duplicate
    # cluster could never gain a point: a k-class result with fewer classes
    pts = np.array([[1.0], [1.0], [1.0], [2.0], [2.0], [2.0]])
    assert kmeans(pts, 2, restarts=3).inertia == 0.0
    with pytest.raises(DataValidationError, match="fewer than 3 distinct rows"):
        kmeans(pts, 3, restarts=3)
    # three distinct rows, but 1e-200 is at squared distance 0 from 0
    with pytest.raises(DataValidationError, match="underflows to 0 count as one"):
        kmeans(np.array([[0.0], [1e-200], [5.0]]), 3, restarts=1)


@st.composite
def _too_few_distinct(draw):
    """Points with fewer than k distinct rows, each drawn at least once."""
    k = draw(st.integers(2, 6))
    distinct = draw(st.integers(1, k - 1))
    m = draw(st.integers(k, 30))
    d = draw(st.integers(1, 10))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    base = rng.standard_normal((distinct, d)) * 10.0 ** draw(st.integers(-3, 3))
    rows = np.concatenate([np.arange(distinct), rng.integers(distinct, size=m - distinct)])
    return base[rng.permutation(rows)], k


@settings(max_examples=100, deadline=None)
@given(_too_few_distinct(), st.integers(1, 6), st.integers(0, 2**32 - 1))
def test_kmeans_refuses_too_few_distinct_rows_in_every_restart(case, restarts, seed):
    # plus-plus seeding never picks a zero-weight row, so the restarts run
    # out of distinct rows together, whatever their streams draw
    points, k = case
    with pytest.raises(DataValidationError, match=f"fewer than {k} distinct rows"):
        kmeans(points, k, restarts=restarts, seed=seed)


def test_kmeans_refusal_comes_from_the_first_restart_that_fails():
    # restarts are seeded one after another, each to its end: at seeds 9
    # and 10 restart 0 starts at a far row and runs out of distinct rows,
    # while a later restart starts at the zero row and its total overflows
    points = np.array([[0.0], [1e154], [1e154]])
    for seed in (9, 10):
        streams = [np.random.SeedSequence(entropy=seed, spawn_key=(r,)) for r in range(4)]
        with pytest.raises(DataValidationError, match="fewer than 3 distinct rows"):
            cluster_mod._plusplus_seeds(points, 3, np.random.default_rng(streams[0]))
        overflows = 0
        for stream in streams[1:]:
            try:
                cluster_mod._plusplus_seeds(points, 3, np.random.default_rng(stream))
            except DataValidationError as err:
                overflows += "squared distances overflow" in str(err)
        assert overflows > 0
        with pytest.raises(DataValidationError, match="fewer than 3 distinct rows"):
            kmeans(points, 3, restarts=4, seed=seed)


def test_lloyd_repairs_empty_clusters(monkeypatch):
    # seeding at one point three times leaves two clusters empty; each is
    # given the point farthest from its center, never the same point twice
    pts = np.array([[0.0, 0.0], [0.0, 0.1], [10.0, 0.0], [10.0, 0.2]])
    monkeypatch.setattr(
        cluster_mod,
        "_plusplus_seeds",
        lambda points, k, rng: np.tile(points[0], (k, 1)),
    )
    result = kmeans(pts, 3, restarts=1)
    assert result.labels[0] == result.labels[1]
    assert len(set(result.labels.tolist())) == 3
    assert result.inertia == pytest.approx(2 * 0.05**2, rel=1e-12)


@st.composite
def _point_sets(draw):
    """Points with at least k distinct rows, often with duplicates and on a
    coarse grid (exact sums, tied distances), and per-restart seed rows that
    may coincide, which leaves clusters empty and forces the repair."""
    m = draw(st.integers(1, 30))
    d = draw(st.integers(1, 10))
    k = draw(st.integers(1, min(m, 6)))
    distinct = draw(st.integers(k, m))
    restarts = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    base = rng.standard_normal((distinct, d)) * 10.0 ** draw(st.integers(-3, 3))
    if draw(st.booleans()):
        base = np.round(2.0 * base) / 2.0
    if len(np.unique(base, axis=0)) < k:
        base[:k] = np.arange(k)[:, None]
    rows = np.concatenate([np.arange(distinct), rng.integers(distinct, size=m - distinct)])
    points = base[rng.permutation(rows)]
    seeds = rng.integers(m, size=(restarts, k)) if draw(st.booleans()) else None
    return points, k, restarts, draw(st.integers(0, 2**32 - 1)), seeds


@settings(max_examples=150, deadline=None)
@given(_point_sets())
def test_kmeans_matches_per_restart_reference(case):
    points, k, restarts, seed, seeds = case
    if seeds is None:
        result = kmeans(points, k, restarts=restarts, seed=seed)
    else:
        rows = iter(seeds)  # one restart's seed rows per call
        forced = lambda points, k, rng: points[next(rows)]  # noqa: E731
        with mock.patch.object(cluster_mod, "_plusplus_seeds", forced):
            result = kmeans(points, k, restarts=restarts, seed=seed)
    centers, labels, inertia = kmeans_reference(points, k, restarts, seed, seeds)
    assert np.array_equal(result.labels, labels)
    if points.shape[1] >= 2:
        # a cluster mean sums its members in row order, as the reference's
        # axis-0 mean does when the rows have two or more entries
        assert np.array_equal(result.centers, centers)
        assert result.inertia == inertia
    else:
        # with one column numpy's axis-0 mean sums pairwise, so the centers,
        # and the inertia measured from them, may differ by rounding
        scale = float(np.max(np.abs(points)))
        np.testing.assert_allclose(result.centers, centers, rtol=0, atol=1e-13 * scale)
        assert result.inertia == pytest.approx(inertia, abs=1e-12 * len(points) * scale**2)


def test_plusplus_draws_as_generator_choice():
    # every plus-plus index is the one Generator.choice(m, p=sq / total)
    # returns, and each stream is left where choice leaves it
    gen = np.random.default_rng(5)
    for trial in range(300):
        m = int(gen.integers(2, 60))
        d = int(gen.integers(1, 5))
        k = int(gen.integers(2, min(m, 5) + 1))
        restarts = int(gen.integers(1, 5))
        points = gen.standard_normal((m, d)) * 10.0 ** gen.integers(-5, 5, size=(m, 1))
        rngs = [np.random.default_rng([trial, r]) for r in range(restarts)]
        for r, rng in enumerate(rngs):
            centers = cluster_mod._plusplus_seeds(points, k, rng)
            twin = np.random.default_rng([trial, r])
            rows = [twin.integers(m)]
            sq = np.sum((points - points[rows[0]]) ** 2, axis=1)
            for _ in range(1, k):
                rows.append(twin.choice(m, p=sq / sq.sum()))
                sq = np.minimum(sq, np.sum((points - points[rows[-1]]) ** 2, axis=1))
            assert np.array_equal(centers, points[rows])
            assert rng.random() == twin.random()


def test_kmeans_validation():
    pts = np.zeros((3, 2))
    with pytest.raises(DataValidationError):
        kmeans(pts, 4)
    with pytest.raises(DataValidationError):
        kmeans(np.zeros((0, 2)), 1)
    with pytest.raises(DataValidationError):
        kmeans(pts, 1, restarts=0)
    with pytest.raises(DataValidationError, match="seed must be nonnegative"):
        kmeans(pts, 1, seed=-3)


def test_kmeans_rejects_non_finite_points():
    pts = np.array([[0.0, 0.0], [1.0, np.nan], [2.0, 2.0]])
    with pytest.raises(DataValidationError, match="non-finite"):
        kmeans(pts, 2)


def test_kmeans_rejects_only_sums_that_overflow():
    overflow = "squared distances overflow"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        # the squared distance 4e400 is not a float; plus-plus seeding would
        # divide inf by inf
        with pytest.raises(DataValidationError, match=overflow):
            kmeans(np.array([[1e200], [-1e200], [0.0]]), 2)
        # one center: no seeding total, but the inertia is inf
        with pytest.raises(DataValidationError, match=overflow):
            kmeans(np.array([[1e200], [-1e200], [0.0]]), 1)
        # each squared distance is about 1e308, the seeding total 2e308 is inf
        side = 1e154
        triangle = np.array([[0.0, 0.0], [side, 0.0], [side / 2, side * 3**0.5 / 2]])
        with pytest.raises(DataValidationError, match=overflow):
            kmeans(triangle, 2)
        # m times the squared spread (60 * 4e306) overflows, but every seeding
        # total is 30 * 4e306 and the inertia is rounding: these cluster
        pair = np.repeat([[1e153], [-1e153]], 30, axis=0)
        result = kmeans(pair, 2)
        assert np.bincount(result.labels).tolist() == [30, 30]
        np.testing.assert_allclose(np.sort(result.centers[:, 0]), [-1e153, 1e153], rtol=1e-14)
        assert result.inertia < 1e-20 * 4e306
        # a restart seeded at a zero row has seeding total 1.44e308, one
        # seeded at the far row 3 * 1.44e308 = inf; restart 0 of seed 1 seeds
        # at a zero row and clusters
        partial = np.array([[0.0], [0.0], [0.0], [1.2e154]])
        result = kmeans(partial, 2, restarts=1, seed=1)
        assert result.labels.tolist() == [0, 0, 0, 1]
        assert result.centers[:, 0].tolist() == [0.0, 1.2e154]
        assert result.inertia == 0.0
        # restarts 1 and 4 of seed 1 seed at the far row: only they overflow
        with pytest.raises(DataValidationError, match=overflow):
            kmeans(partial, 2, restarts=5, seed=1)
        # every squared distance is 0 or 1, but two coordinates of 1.5e308
        # sum to inf: the cluster mean would be an inf center
        near_limit = np.array([[1.5e308, 0.0], [1.5e308, 0.0], [1.5e308, 1.0], [1.5e308, 1.0]])
        with pytest.raises(DataValidationError, match="cluster mean overflows"):
            kmeans(near_limit, 2)


def test_refit_exact_interpolation():
    feats = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 2.0], [2.0, 1.0]])
    beta = np.array([0.5, -2.0])
    resp = feats @ beta
    ds = Dataset(feats, resp)
    result = refit_regression(ds, np.zeros(4, dtype=int))
    assert np.allclose(result.betas_hat[0], beta, atol=1e-10)
    assert result.per_class_residual[0] <= 1e-10


def test_refit_rejects_negative_labels():
    feats = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 2.0], [2.0, 1.0]])
    ds = Dataset(feats, feats @ np.array([0.5, -2.0]))
    with pytest.raises(DataValidationError, match="nonnegative"):
        refit_regression(ds, np.array([-1, 0, 0, 0]))


def test_refit_on_generated_data(sim1_instance):
    dataset, model = sim1_instance
    result = refit_regression(dataset, dataset.labels)
    assert np.allclose(result.betas_hat, model.betas, atol=1e-8)


def test_refit_underdetermined_min_norm():
    ds = Dataset(np.array([[1.0, 0.0]]), np.array([1.0]))
    with pytest.warns(UnderdeterminedFitWarning):
        result = refit_regression(ds, np.array([0]))
    assert np.allclose(result.betas_hat[0], [1.0, 0.0], atol=1e-12)
    # classes 0 and 1 have rank 1 and class 2 has full rank: one warning per
    # rank-deficient class, in class order
    feats = np.array([[1.0, 1.0], [1.0, 0.0], [2.0, 2.0], [0.0, 1.0], [1.0, -1.0]])
    ds = Dataset(feats, np.array([2.0, 3.0, 4.0, 5.0, 0.0]))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = refit_regression(ds, np.array([1, 0, 1, 2, 2]))
    assert [w.category for w in caught] == [UnderdeterminedFitWarning] * 2
    assert [str(w.message) for w in caught] == [
        f"class {p} is underdetermined (rank 1 < 2); returning the minimum-norm coefficients"
        for p in (0, 1)
    ]
    assert np.allclose(result.betas_hat, [[3.0, 0.0], [1.0, 1.0], [5.0, 5.0]], atol=1e-12)


def test_match_labels_basic():
    truth = np.array([0, 0, 1, 1, 2])
    perm, acc = match_labels(truth, truth, 3)
    assert perm == (0, 1, 2)
    assert acc == 1.0
    swapped = np.array([1, 1, 0, 0, 2])
    perm, acc = match_labels(swapped, truth, 3)
    assert perm == (1, 0, 2)
    assert acc == 1.0
    # k = 10: the exact inverse of the relabeling
    rng = np.random.default_rng(11)
    truth = rng.permutation(np.repeat(np.arange(10), 5))
    relabel = rng.permutation(10)  # truth class c is predicted as relabel[c]
    perm, acc = match_labels(relabel[truth], truth, 10)
    assert perm == tuple(int(c) for c in np.argsort(relabel))
    assert acc == 1.0


def test_match_labels_random_balanced():
    rng = np.random.default_rng(7)
    m = 2000
    truth = np.repeat([0, 1], m // 2)
    accs = []
    for _ in range(20):
        predicted = rng.integers(0, 2, m)
        _, acc = match_labels(predicted, truth, 2)
        accs.append(acc)
    assert abs(float(np.mean(accs)) - 0.5) <= 0.02


def test_match_labels_validation():
    with pytest.raises(DataValidationError):
        match_labels(np.zeros(3, dtype=int), np.zeros(4, dtype=int), 2)
    with pytest.raises(DataValidationError):
        match_labels([], [], 2)
    # labels outside [0, k): negative (would wrap), predicted >= k, truth >= k
    for predicted, truth in (
        ([0, -1, 1], [0, 1, 1]),
        ([0, 2, 1], [0, 1, 1]),
        ([0, 1, 1], [0, 1, 2]),
    ):
        with pytest.raises(DataValidationError):
            match_labels(predicted, truth, 2)


def test_full_pipeline_recovers_components():
    dataset, model = gen_sim1(Sim1Config(k=3, d=4, n_per_class=16, alpha=0.1, seed=8))
    estimate, trace = irls_solve(dataset)
    assert recovery_error(estimate, candidate_solution(dataset, model)) < 1e-5
    clustering = kmeans(estimate.z, 3, seed=0)
    perm, acc = match_labels(clustering.labels, dataset.labels, 3)
    assert acc == 1.0
    refit = refit_regression(dataset, clustering.labels)
    for p in range(3):
        assert np.linalg.norm(refit.betas_hat[p] - model.betas[perm[p]]) < 1e-5
