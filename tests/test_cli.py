import inspect
import json

import numpy as np
import pytest

from mixreg.cli import _solver_options, _UsageError, build_parser, main
from mixreg.dataio import load_csv, preprocess_center_scale
from mixreg.errors import NumericalError
from mixreg.phase import PhaseConfig, run_phase
from mixreg.pipeline import fit_pipeline
from mixreg.solver import SolverOptions
from mixreg.synth import Sim1Config, Sim2Config, gen_sim1, gen_sim2


def _strict_json(text):
    def reject(name):
        raise ValueError(f"{name} is not valid JSON")

    return json.loads(text, parse_constant=reject)


def test_gen_solve_certify_fit_round_trip(tmp_path):
    data = tmp_path / "data.csv"
    betas = tmp_path / "betas.json"
    assert main([
        "gen", "--sim", "1", "--d", "4", "--k", "3", "--n-per-class", "16",
        "--alpha", "0.1", "--seed", "3",
        "-o", str(data), "--betas-out", str(betas),
    ]) == 0
    assert data.exists() and betas.exists()

    est = tmp_path / "est.csv"
    trace = tmp_path / "trace.json"
    assert main(["solve", str(data), "-o", str(est), "--trace-out", str(trace)]) == 0
    payload = json.loads(trace.read_text())
    assert {"iterations", "objective_history", "final_step_norm",
            "converged", "max_feasibility_residual"} <= set(payload)
    assert payload["converged"] is True
    header = est.read_text().splitlines()[0]
    assert header == "z_1,z_2,z_3,z_4"

    verdict = tmp_path / "verdict.json"
    assert main(["certify", str(data), "--betas", str(betas), "-o", str(verdict)]) == 0
    report = _strict_json(verdict.read_text())
    assert report["certificate"]["certifies"] is True
    assert report["conditions"]["well_separated"] is True

    fit = tmp_path / "fit.json"
    labels = tmp_path / "labels.csv"
    assert main([
        "fit", str(data), "--k", "3", "-o", str(fit),
        "--labels-out", str(labels),
    ]) == 0
    fit_payload = json.loads(fit.read_text())
    assert len(fit_payload["betas_hat"]) == 3
    label_lines = labels.read_text().strip().splitlines()
    assert label_lines[0] == "label"
    assert len(label_lines) == 49


def test_cli_exit_codes(tmp_path, capsys):
    # usage error
    assert main(["phase"]) == 1
    assert main(["gen", "--sim", "3", "--d", "4", "-o", "x.csv"]) == 1
    # data errors
    assert main(["solve", str(tmp_path / "missing.csv"), "-o", "out.csv"]) == 2
    bad = tmp_path / "bad.csv"
    bad.write_text("a_1,b\n0.0,1.0\n")
    assert main(["solve", str(bad), "-o", str(tmp_path / "o.csv")]) == 2
    assert main([
        "phase", "--mode", "aperture", "--d", "3", "--values", "0.1",
        "--workers", "0", "-o", str(tmp_path / "grid"),
    ]) == 2
    unlabeled = tmp_path / "unlabeled.csv"
    unlabeled.write_text("a_1,a_2,b\n1.0,0.0,1.0\n0.0,1.0,1.0\n")
    betas = tmp_path / "betas.json"
    betas.write_text(json.dumps({"betas": [[1.0, 0.0], [0.0, 1.0]]}))
    verdict = tmp_path / "verdict.json"
    assert main(["certify", str(unlabeled), "--betas", str(betas), "-o", str(verdict)]) == 2
    assert not verdict.exists()
    # two betas for three labeled classes: both counts are named
    labeled = tmp_path / "labeled.csv"
    labeled.write_text("a_1,a_2,b,label\n1.0,0.0,1.0,1\n0.0,1.0,1.0,2\n1.0,1.0,1.0,3\n")
    capsys.readouterr()
    assert main(["certify", str(labeled), "--betas", str(betas), "-o", str(verdict)]) == 2
    err = capsys.readouterr().err
    assert "holds 2 betas but the labels of" in err and "name 3 classes" in err
    # three betas one column short: the file and both widths are named
    betas.write_text(json.dumps({"betas": [[1.0], [0.0], [2.0]]}))
    assert main(["certify", str(labeled), "--betas", str(betas), "-o", str(verdict)]) == 2
    err = capsys.readouterr().err
    assert f"{betas} holds betas of width 1 but {labeled} has 2 feature columns" in err
    betas.write_text("[1, 2]")  # valid JSON, but not a model
    assert main(["certify", str(labeled), "--betas", str(betas)]) == 2
    assert "cannot read betas" in capsys.readouterr().err
    assert not verdict.exists()


def test_files_that_cannot_be_opened_exit_2(tmp_path, capsys, two_lines_path):
    missing = tmp_path / "missing" / "out"
    runs = [
        ["solve", str(tmp_path), "-o", str(tmp_path / "z.csv")],  # a directory
        ["solve", str(two_lines_path), "-o", str(missing)],
        ["fit", str(two_lines_path), "--k", "2", "-o", str(missing)],
        ["gen", "--sim", "1", "--d", "3", "-o", str(missing)],
    ]
    for argv in runs:
        assert main(argv) == 2, argv
        err = capsys.readouterr().err
        assert err.startswith("file error: ") and err.count("\n") == 1, err
        assert "Traceback" not in err


def test_a_failed_command_writes_no_file(tmp_path, capsys, two_lines_path):
    # the first output could be written, a later one cannot: no output is
    # written, and a file already at the first path is left as it was
    report = tmp_path / "f.json"
    report.write_text("earlier\n")
    missing = tmp_path / "missing" / "l.csv"
    assert main([
        "fit", str(two_lines_path), "--k", "2", "-o", str(report),
        "--labels-out", str(missing),
    ]) == 2
    err = capsys.readouterr().err
    assert err == f"file error: [Errno 2] No such file or directory: '{missing}'\n"
    assert report.read_text() == "earlier\n"
    (tmp_path / "p.json").mkdir()  # phase writes .csv and .pgm before .json
    assert main([
        "phase", "--mode", "aperture", "--d", "3", "--values", "0.1",
        "--trials", "1", "-o", str(tmp_path / "p"),
    ]) == 2
    assert "Is a directory" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["f.json", "p.json"]
    assert list((tmp_path / "p.json").iterdir()) == []


def test_unwritable_outputs_are_refused_before_the_work(
    tmp_path, capsys, monkeypatch, two_lines_path
):
    # an output in a missing directory exits 2 before any trial or solve
    # runs, and no file is left behind
    import mixreg.cli as cli_mod

    calls = []
    monkeypatch.setattr(cli_mod, "run_phase", lambda *a, **kw: calls.append("phase"))
    monkeypatch.setattr(cli_mod, "fit_pipeline", lambda *a, **kw: calls.append("fit"))
    monkeypatch.chdir(tmp_path)
    runs = [
        ["phase", "--mode", "imbalance", "--d", "10", "15", "--values", "0.03", "0.06",
         "--trials", "10", "-o", "missing/p"],
        ["fit", str(two_lines_path), "--k", "2", "-o", "missing/f.json"],
        ["fit", str(two_lines_path), "--k", "2", "-o", "f.json",
         "--estimates-out", "missing/e.csv"],
    ]
    for argv in runs:
        assert main(argv) == 2, argv
        err = capsys.readouterr().err
        assert err.startswith("file error: [Errno 2]") and "missing/" in err, err
    assert calls == []
    assert list(tmp_path.iterdir()) == []


def test_gen_refuses_flags_of_the_other_ensemble(tmp_path, capsys):
    out = tmp_path / "x.csv"
    misuses = [
        (["--sim", "2", "--k", "5", "--n-per-class", "4", "--alpha", "0.7"],
         "--k, --n-per-class, --alpha"),
        (["--sim", "1", "--tau", "0.05"], "--tau"),
    ]
    for flags, named in misuses:
        assert main(["gen", *flags, "--d", "4", "-o", str(out)]) == 1
        assert f"{named} not accepted with" in capsys.readouterr().err
        assert not out.exists()

    assert main(["gen", "--sim", "2", "--d", "4", "--tau", "0.02", "-o", str(out)]) == 0
    expected, _ = gen_sim2(Sim2Config(d=4, tau=0.02, seed=0))
    assert np.array_equal(load_csv(out).features, expected.features)
    # --sim 1 without its flags keeps k = 3, 16 points per class, alpha = 0.1
    assert main(["gen", "--sim", "1", "--d", "4", "-o", str(out)]) == 0
    expected, _ = gen_sim1(Sim1Config(k=3, d=4, n_per_class=16, alpha=0.1, seed=0))
    assert np.array_equal(load_csv(out).features, expected.features)


def test_certify_orthogonal_point_structured_verdict(tmp_path):
    # second class-one row is orthogonal to v_1 = (e1 - e2)/sqrt(2)
    v = float(1.0 / np.sqrt(2))
    rows = [
        (v, -v, v, 1),
        (v, v, v, 1),
        (-v, v, v, 2),
        (-v, 0.9 * v, 0.9 * v, 2),
    ]
    data = tmp_path / "orth.csv"
    lines = ["a_1,a_2,b,label"] + [
        f"{a!r},{b!r},{c!r},{lab}" for a, b, c, lab in rows
    ]
    data.write_text("\n".join(lines) + "\n")
    betas = tmp_path / "betas.json"
    betas.write_text(json.dumps({"betas": [[1.0, 0.0], [0.0, 1.0]]}))
    verdict = tmp_path / "verdict.json"
    code = main(["certify", str(data), "--betas", str(betas), "-o", str(verdict)])
    assert code == 3  # distinct from the I/O error code 2
    payload = _strict_json(verdict.read_text())  # no bare Infinity
    assert payload["conditions"]["separation_lhs"] == "inf"
    assert payload["conditions"]["balance_residuals"][0] == "inf"
    assert payload["certificate"]["defined"] is False
    assert payload["certificate"]["certifies"] is False
    assert payload["certificate"]["row_index"] == 1


def test_certify_names_the_first_orthogonal_row(tmp_path, capsys):
    # rows 0 (class 2) and 3 (class 1) are orthogonal to their class
    # directions +-(e1 - e2) / sqrt(2)
    data = tmp_path / "orth.csv"
    data.write_text(
        "a_1,a_2,b,label\n1,1,1,2\n1,-0.5,1,1\n-1,0.8,0.8,2\n"
        "0.5,0.5,0.5,1\n0.9,-1,0.9,1\n-1,1.2,1.2,2\n"
    )
    betas = tmp_path / "betas.json"
    betas.write_text(json.dumps({"betas": [[1.0, 0.0], [0.0, 1.0]]}))
    assert main(["certify", str(data), "--betas", str(betas)]) == 3
    payload = _strict_json(capsys.readouterr().out)
    assert payload["certificate"]["row_index"] == 0
    assert payload["conditions"]["balance_residuals"] == ["inf", "inf"]


def test_certify_stdout_is_one_json_document(
    tmp_path, capsys, two_lines_path, two_lines_betas_path
):
    argv = ["certify", str(two_lines_path), "--betas", str(two_lines_betas_path)]
    assert main(argv) == 0
    payload = _strict_json(capsys.readouterr().out)  # no trailing summary line
    assert payload["certificate"]["certifies"] is True
    verdict = tmp_path / "verdict.json"
    assert main([*argv, "-o", str(verdict)]) == 0
    assert capsys.readouterr().out == "certifies: True\n"
    assert _strict_json(verdict.read_text()) == payload


def test_phase_command_outputs(tmp_path):
    prefix = tmp_path / "grid"
    assert main([
        "phase", "--mode", "aperture", "--d", "3", "--values", "0.1",
        "--trials", "2", "--seed", "5", "-o", str(prefix),
    ]) == 0
    assert (tmp_path / "grid.csv").exists()
    assert (tmp_path / "grid.pgm").exists()
    payload = json.loads((tmp_path / "grid.json").read_text())
    assert payload["fractions"] == [[1.0]]
    # out-of-range sweep refused
    assert main([
        "phase", "--mode", "imbalance", "--d", "4", "--values", "0.5",
        "--trials", "1", "-o", str(prefix),
    ]) == 2


def test_fit_with_preprocessing(tmp_path, tone_like_path):
    out = tmp_path / "fit.json"
    assert main([
        "fit", str(tone_like_path), "--k", "2", "-o", str(out),
        "--center-column", "1", "--center-alpha", "40",
        "--estimates-out", str(tmp_path / "est.csv"),
    ]) == 0
    # --center-column is 1-based: the report is the fit of the centered data
    manual = preprocess_center_scale(load_csv(tone_like_path), 40.0, 0)
    report, _ = fit_pipeline(manual, 2)
    assert out.read_text() == json.dumps(report.to_dict(), indent=2) + "\n"
    est_header = (tmp_path / "est.csv").read_text().splitlines()[0]
    assert est_header == "z_1,z_2,label"


@pytest.mark.parametrize("column", ["0", "3"])
def test_fit_rejects_a_center_column_outside_the_features(
    tmp_path, capsys, two_lines_path, column
):
    # two_lines has d = 2: the valid 1-based columns are 1 and 2
    out = tmp_path / "fit.json"
    argv = ["fit", str(two_lines_path), "--k", "2", "-o", str(out)]
    assert main([*argv, "--center-column", column]) == 2
    assert f"--center-column {column} " in capsys.readouterr().err
    assert not out.exists()


def test_fit_and_solve_files_of_a_three_row_input(tmp_path):
    # d = 1 pins each estimate to b_i / a_i exactly: 1, 1 and 3
    data = tmp_path / "three.csv"
    data.write_text("a_1,b\n1,1\n2,2\n0.5,1.5\n")
    labels, est, z = tmp_path / "l.csv", tmp_path / "e.csv", tmp_path / "z.csv"
    assert main([
        "fit", str(data), "--k", "2", "-o", str(tmp_path / "f.json"),
        "--labels-out", str(labels), "--estimates-out", str(est),
    ]) == 0
    assert main(["solve", str(data), "-o", str(z)]) == 0
    assert labels.read_bytes() == b"label\n1\n1\n2\n"
    assert est.read_bytes() == b"z_1,label\n1.0,1\n1.0,1\n3.0,2\n"
    assert z.read_bytes() == b"z_1\n1.0\n1.0\n3.0\n"


def test_summary_lines_report_stop_reason(tmp_path, capsys, two_lines_path):
    trace = tmp_path / "trace.json"
    assert main([
        "solve", str(two_lines_path), "-o", str(tmp_path / "est.csv"),
        "--trace-out", str(trace),
    ]) == 0
    payload = json.loads(trace.read_text())
    reason = payload["stop_reason"]
    assert reason in ("step", "cap")  # solve is given no k: no certified exit
    out = capsys.readouterr().out
    assert f"stop_reason={reason}" in out
    assert f"extrapolations={payload['extrapolations']}" in out

    fit = tmp_path / "fit.json"
    assert main(["fit", str(two_lines_path), "--k", "2", "-o", str(fit)]) == 0
    assert json.loads(fit.read_text())["trace"]["stop_reason"] == "certified"
    assert "stop_reason=certified" in capsys.readouterr().out


def test_fit_rejects_more_classes_than_rows(
    tmp_path, capsys, monkeypatch, two_lines_path
):
    # two_lines has m = 40 rows: k = 41 is a data error, raised before solving
    import mixreg.pipeline as pipeline_mod

    def no_kmeans(*args, **kwargs):
        raise AssertionError("k-means reached: k was not rejected up front")

    monkeypatch.setattr(pipeline_mod, "kmeans", no_kmeans)
    out = tmp_path / "fit.json"
    assert main(["fit", str(two_lines_path), "--k", "41", "-o", str(out)]) == 2
    assert "k must be in [1, 40]" in capsys.readouterr().err
    assert not out.exists()


def test_fit_rejects_more_classes_than_distinct_rows(tmp_path, capsys):
    # d = 1 pins each estimate to its slope b_i / a_i: two distinct rows
    data = tmp_path / "two.csv"
    data.write_text("a_1,b\n1,1\n2,2\n3,3\n1,2\n2,4\n3,6\n")
    out = tmp_path / "fit.json"
    assert main(["fit", str(data), "--k", "2", "-o", str(out)]) == 0
    assert json.loads(out.read_text())["k"] == 2
    out.unlink()
    assert main(["fit", str(data), "--k", "3", "-o", str(out)]) == 2
    assert "fewer than 3 distinct rows" in capsys.readouterr().err
    assert not out.exists()


def test_fit_rejects_estimates_whose_distances_overflow(tmp_path, capsys):
    data = tmp_path / "big.csv"
    data.write_text("a_1,b\n1,1e200\n1,-1e200\n1,0\n1,1\n")
    out = tmp_path / "fit.json"
    assert main(["fit", str(data), "--k", "2", "-o", str(out)]) == 2
    assert "squared distances overflow" in capsys.readouterr().err
    assert not out.exists()


def test_solve_rejects_estimates_whose_distances_overflow(tmp_path, capsys):
    # the first solve pins each d = 1 row at +-1e200; its distance pass
    # overflows, and the solver refuses it instead of writing Infinity
    data = tmp_path / "big.csv"
    data.write_text("a_1,b\n1,1e200\n1,-1e200\n1,0\n1,1\n")
    out, trace = tmp_path / "z.csv", tmp_path / "trace.json"
    assert main(["solve", str(data), "-o", str(out), "--trace-out", str(trace)]) == 2
    assert "estimates are too far apart" in capsys.readouterr().err
    assert not out.exists() and not trace.exists()


def test_solve_reports_a_numerical_failure(tmp_path, capsys, monkeypatch, two_lines_path):
    import mixreg.cli as cli_mod

    def breaks_down(*args, **kwargs):
        raise NumericalError("reduced KKT system too ill-conditioned")

    monkeypatch.setattr(cli_mod, "irls_solve", breaks_down)
    out, trace = tmp_path / "z.csv", tmp_path / "trace.json"
    assert main(["solve", str(two_lines_path), "-o", str(out), "--trace-out", str(trace)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: ") and "Traceback" not in err
    assert list(tmp_path.iterdir()) == []


def test_fit_has_no_kmeans_flags(tmp_path, capsys, two_lines_path):
    # k-means runs with its own defaults; its restarts and seed are not flags
    out = tmp_path / "fit.json"
    for flag in (["--restarts", "5"], ["--seed", "1"]):
        assert main(["fit", str(two_lines_path), "--k", "2", *flag, "-o", str(out)]) == 1
        err = capsys.readouterr().err
        assert f"unrecognized arguments: {' '.join(flag)}" in err
        assert "Traceback" not in err
    assert list(tmp_path.iterdir()) == []


def test_negative_seeds_are_data_errors(tmp_path, capsys):
    commands = [
        (["gen", "--sim", "1", "--d", "4"], tmp_path / "g.csv"),
        (["gen", "--sim", "2", "--d", "4"], tmp_path / "g2.csv"),
        (["phase", "--mode", "aperture", "--d", "3", "--values", "0.1", "--trials", "1"],
         tmp_path / "p"),
    ]
    for argv, out in commands:
        assert main([*argv, "--seed", "-1", "-o", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("data error: ") and "seed must be nonnegative" in err
        assert "Traceback" not in err
    assert list(tmp_path.iterdir()) == []


def test_parser_defaults_are_the_library_defaults():
    parser = build_parser()
    solve = parser.parse_args(["solve", "x.csv", "-o", "y.csv"])
    assert _solver_options(solve) == SolverOptions()

    fit = parser.parse_args(["fit", "x.csv", "--k", "2", "-o", "f.json"])
    assert _solver_options(fit) == SolverOptions()
    assert fit.center_column is None and fit.center_alpha == 1.0

    phase = parser.parse_args(["phase", "--mode", "imbalance", "-o", "p"])
    assert PhaseConfig(
        mode="imbalance", d_values=phase.d, sweep_values=phase.values,
        trials=phase.trials, base_seed=phase.seed, solver=_solver_options(phase),
    ) == PhaseConfig(mode="imbalance")
    assert phase.workers == inspect.signature(run_phase).parameters["workers"].default

    # fixed constants, not flags
    for argv in (
        ["solve", "x.csv", "-o", "y.csv", "--delta", "1e-12"],
        ["certify", "x.csv", "--betas", "b.json", "--tol", "1e-6"],
        ["phase", "--mode", "aperture", "-o", "p", "--success-tol", "1e-3"],
    ):
        with pytest.raises(_UsageError):
            parser.parse_args(argv)


def test_parser_builds_with_library_names_wrapped(monkeypatch):
    """Timing wrappers that hide the signature leave the defaults intact."""
    from mixreg import cli

    def wrapper(*args, **kwargs):
        raise AssertionError("not called")

    monkeypatch.setattr(cli, "run_phase", wrapper)
    parser = build_parser()
    phase = parser.parse_args(["phase", "--mode", "aperture", "-o", "p"])
    assert phase.workers == inspect.signature(run_phase).parameters["workers"].default


def test_main_parses_with_the_parser_built_at_import(
    tmp_path, capsys, monkeypatch, two_lines_path
):
    # main never builds a parser, and a usage error between two fits leaves
    # the shared parser as it found it
    from mixreg import cli

    def no_build():
        raise AssertionError("main built a parser")

    monkeypatch.setattr(cli, "build_parser", no_build)
    first, second = tmp_path / "first.json", tmp_path / "second.json"
    assert main(["fit", str(two_lines_path), "--k", "2", "-o", str(first)]) == 0
    assert main(["fit", str(two_lines_path), "-o", str(tmp_path / "x.json")]) == 1
    assert "--k" in capsys.readouterr().err
    assert main(["fit", str(two_lines_path), "--k", "2", "-o", str(second)]) == 0
    assert first.read_text() == second.read_text()
