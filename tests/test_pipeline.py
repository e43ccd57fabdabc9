import numpy as np

from mixreg.cluster import match_labels
from mixreg.dataio import load_betas, load_csv
from mixreg.pipeline import fit_pipeline


def test_fit_pipeline_on_two_line_fixture(two_lines_path, two_lines_betas_path):
    dataset = load_csv(two_lines_path)
    betas = load_betas(two_lines_betas_path)
    report, estimates = fit_pipeline(dataset, k=2)
    perm, acc = match_labels(report.labels, dataset.labels, 2)
    assert acc == 1.0
    for p in range(2):
        assert np.linalg.norm(report.betas_hat[p] - betas[perm[p]]) < 1e-5
    assert estimates.z.shape == (dataset.m, dataset.d)
    assert np.max(report.per_class_residual) < 1e-8
    payload = report.to_dict()
    assert payload["k"] == 2
    assert min(payload["labels"]) >= 1  # serialized labels are 1-based


def test_fit_pipeline_single_class():
    from mixreg.model import Dataset

    ds = Dataset(
        np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]),
        np.array([1.0, 1.0, 2.0]),
    )
    report, _ = fit_pipeline(ds, k=1)
    assert np.allclose(report.betas_hat[0], [1.0, 1.0], atol=1e-6)


def test_fit_pipeline_preprocessing_matches_manual(tone_like_path):
    from mixreg.cluster import refit_regression
    from mixreg.dataio import preprocess_center_scale

    # tone_like's second column is the constant 1, so centering and scaling
    # the first column only reparametrizes each class's line
    dataset = load_csv(tone_like_path)
    alpha, mu = 40.0, dataset.features[:, 0].mean()
    report, _ = fit_pipeline(preprocess_center_scale(dataset, alpha, 0), k=2)
    slope, offset = report.betas_hat[:, 0], report.betas_hat[:, 1]
    mapped = np.column_stack([alpha * slope, offset - alpha * mu * slope])
    manual = refit_regression(dataset, report.labels).betas_hat
    assert np.allclose(mapped, manual, rtol=1e-9, atol=1e-9)


def test_certified_fit_takes_labels_from_the_field(monkeypatch, two_lines_path):
    import mixreg.pipeline as pipeline_mod
    from mixreg.cluster import refit_regression

    def no_kmeans(*args, **kwargs):
        raise AssertionError("k-means run on a certified field")

    monkeypatch.setattr(pipeline_mod, "kmeans", no_kmeans)
    dataset = load_csv(two_lines_path)
    report, estimates = fit_pipeline(dataset, k=2)
    assert report.trace.stop_reason == "certified"
    assert report.inertia == 0.0
    perm, acc = match_labels(report.labels, dataset.labels, 2)
    assert acc == 1.0
    # the refit of the true partition, class for class
    truth = refit_regression(dataset, dataset.labels).betas_hat
    for p in range(2):
        assert np.array_equal(report.betas_hat[p], truth[perm[p]])
    assert len(np.unique(estimates.z, axis=0)) == 2
