import numpy as np
import pytest

from mixreg.dataio import (
    load_betas,
    load_csv,
    preprocess_center_scale,
    save_betas,
    save_csv,
)
from mixreg.errors import DataValidationError
from mixreg.model import MixtureModel
from mixreg.synth import Sim1Config, gen_sim1


def test_load_small_file(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text("a_1,a_2,b\n1.0,0.0,2.5\n\n0.5,-1.0,0.25\n")  # blank line skipped
    ds = load_csv(path)
    assert ds.m == 2 and ds.d == 2
    assert ds.labels is None
    assert ds.responses[1] == 0.25


def test_load_with_labels(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text("a_1,b,label\n1.0,2.0,1\n2.0,1.0,2\n")
    ds = load_csv(path)
    assert ds.labels is not None
    assert ds.labels.tolist() == [0, 1]  # 1-based on disk, 0-based in memory


def test_load_rejects_zero_row_with_line_number(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text("a_1,a_2,b\n1.0,0.0,1.0\n0.0,0.0,1.0\n")
    with pytest.raises(DataValidationError, match=":3:"):
        load_csv(path)


def test_load_rejects_bad_values(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text("a_1,b\nfoo,1.0\n")
    with pytest.raises(DataValidationError, match=":2:"):
        load_csv(path)
    path.write_text("a_1,b\ninf,1.0\n")
    with pytest.raises(DataValidationError, match="non-finite"):
        load_csv(path)
    path.write_text("a_1,b\n1.0,1.0,9\n")
    with pytest.raises(DataValidationError, match="expected 2 fields"):
        load_csv(path)
    path.write_text("a_1,a_3,b\n1.0,1.0,9\n")
    with pytest.raises(DataValidationError, match="header"):
        load_csv(path)
    path.write_text("a_1,b,label\n1.0,1.0,0\n")
    with pytest.raises(DataValidationError, match="1-based"):
        load_csv(path)
    path.write_text("a_1,b,label\n1.0,1.0,1.5\n")
    with pytest.raises(DataValidationError, match=":2: label must be an integer"):
        load_csv(path)
    path.write_text("a_1,b,label\n1.0,1.0,1\n2.0,1.0,3\n")  # the file's label 2 is unused
    with pytest.raises(DataValidationError, match="no row has label 2;"):
        load_csv(path)
    path.write_bytes(b"\xff\xfe")
    with pytest.raises(DataValidationError, match=f"{path.name}: not UTF-8 text"):
        load_csv(path)
    path.write_text("")
    with pytest.raises(DataValidationError, match="empty file"):
        load_csv(path)
    path.write_text("a_1,b\n")
    with pytest.raises(DataValidationError, match="no data rows"):
        load_csv(path)


def test_load_accepts_a_byte_order_mark(tmp_path, two_lines_path):
    bom = tmp_path / "bom.csv"
    bom.write_bytes(b"\xef\xbb\xbf" + two_lines_path.read_bytes())
    loaded, original = load_csv(bom), load_csv(two_lines_path)
    assert np.array_equal(loaded.features, original.features)
    assert np.array_equal(loaded.responses, original.responses)
    assert np.array_equal(loaded.labels, original.labels)


def test_load_missing_file(tmp_path):
    with pytest.raises(DataValidationError, match="no such file"):
        load_csv(tmp_path / "absent.csv")
    with pytest.raises(DataValidationError, match="no such file"):
        load_betas(tmp_path / "absent.json")


def test_round_trip_bit_identical(tmp_path):
    dataset, _ = gen_sim1(Sim1Config(k=3, d=4, n_per_class=8, alpha=0.3, seed=5))
    path = tmp_path / "sim.csv"
    save_csv(dataset, path)
    assert b"\r" not in path.read_bytes()  # LF line ends, like every mixreg CSV
    loaded = load_csv(path)
    assert np.array_equal(loaded.features, dataset.features)
    assert np.array_equal(loaded.responses, dataset.responses)
    assert np.array_equal(loaded.labels, dataset.labels)


def test_betas_round_trip(tmp_path):
    model = MixtureModel(np.eye(3)[:2], np.array([4, 4]))
    path = tmp_path / "betas.json"
    save_betas(model, path)
    betas = load_betas(path)
    assert np.array_equal(betas, model.betas)
    bad = tmp_path / "bad.json"
    bad.write_text("{}")
    with pytest.raises(DataValidationError):
        load_betas(bad)
    bad.write_text('{"betas": [1.0, 0.0]}')
    with pytest.raises(DataValidationError, match="k x d matrix"):
        load_betas(bad)
    for payload in ("[1, 2]", '{"betas": {"a": 1}}'):
        bad.write_text(payload)
        with pytest.raises(DataValidationError, match=f"{bad.name}: cannot read betas"):
            load_betas(bad)


def test_preprocess_center_scale():
    dataset, _ = gen_sim1(Sim1Config(k=2, d=3, n_per_class=6, alpha=0.2, seed=1))
    out = preprocess_center_scale(dataset, 0.005, 0)
    col = dataset.features[:, 0]
    assert np.allclose(out.features[:, 0], 0.005 * (col - col.mean()))
    assert np.array_equal(out.features[:, 1:], dataset.features[:, 1:])
    assert np.array_equal(out.responses, dataset.responses)
    assert np.array_equal(out.labels, dataset.labels)


def test_preprocess_zero_mean_identity():
    feats = np.array([[1.0, 1.0], [-1.0, 1.0]])
    from mixreg.model import Dataset

    ds = Dataset(feats, np.array([1.0, 2.0]))
    out = preprocess_center_scale(ds, 1.0, 0)
    assert np.array_equal(out.features, feats)


def test_preprocess_column_range():
    dataset, _ = gen_sim1(Sim1Config(k=2, d=3, n_per_class=6, alpha=0.2, seed=1))
    with pytest.raises(DataValidationError):
        preprocess_center_scale(dataset, 1.0, 3)
