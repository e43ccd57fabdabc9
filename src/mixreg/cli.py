"""Command-line interface.

Subcommands: ``gen`` (synthetic datasets), ``solve`` (fusion solve),
``certify`` (condition checks plus dual certificate), ``fit`` (solve,
cluster, refit), and ``phase`` (recovery-fraction grids).

Exit codes: 0 success, 1 usage error, 2 data error, 3 numerical or
certificate failure.
"""

from __future__ import annotations

import argparse
import inspect
import sys

import numpy as np

from .certificate import build_certificate, verify_certificate
from .dataio import (
    _write_table,
    load_betas,
    load_csv,
    preprocess_center_scale,
    save_betas,
    save_csv,
    write_json,
)
from .errors import (
    CertificateUndefinedError,
    DataValidationError,
    DegenerateModelError,
    MixregError,
    NumericalError,
)
from .geometry import check_conditions
from .model import MixtureModel, feasibility_residual
from .phase import PhaseConfig, run_phase, write_grid_csv, write_grid_pgm
from .pipeline import fit_pipeline
from .solver import SolverOptions, irls_solve
from .synth import Sim1Config, Sim2Config, gen_sim1, gen_sim2

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3


# Keyword defaults read once at import, before anything can rebind these
# module names (a tracer may swap them for bare ``*args, **kwargs`` wrappers).
_FIT = inspect.signature(fit_pipeline).parameters
_RUN_PHASE = inspect.signature(run_phase).parameters


# ``gen`` flags per ensemble, with their defaults; the other ensemble's flags
# are a usage error, not silently ignored.
_GEN_FLAGS = {1: {"k": 3, "n_per_class": 16, "alpha": 0.1}, 2: {"tau": 0.0}}


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to code 2; keep 1 for usage
        self.print_usage(sys.stderr)
        raise _UsageError(f"{self.prog}: error: {message}")


def _add_solver_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--max-iter", type=int, default=SolverOptions.max_iter,
                   help="iteration cap")
    p.add_argument("--stop-tol", type=float, default=SolverOptions.stop_tol,
                   help="relative step tolerance: stop at ||Z_t - X_t||_F <= tol ||X_t||_F")


def _solver_options(args) -> SolverOptions:
    return SolverOptions(max_iter=args.max_iter, stop_tol=args.stop_tol)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="mixreg", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a synthetic dataset")
    p.add_argument("--sim", type=int, choices=(1, 2), required=True,
                   help="1 = aperture ensemble, 2 = imbalance ensemble")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--k", type=int, help="classes (--sim 1 only; default 3)")
    p.add_argument("--n-per-class", type=int,
                   help="points per class (--sim 1 only; default 16)")
    p.add_argument("--alpha", type=float,
                   help="aperture radius (--sim 1 only; default 0.1)")
    p.add_argument("--tau", type=float, help="imbalance radius (--sim 2 only; default 0)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("-o", "--output", required=True, help="dataset CSV path")
    p.add_argument("--betas-out", default=None, help="write the model as JSON")

    p = sub.add_parser("solve", help="run the fusion solver on a CSV dataset")
    p.add_argument("data", help="input CSV")
    p.add_argument("-o", "--output", required=True, help="estimates CSV path")
    p.add_argument("--trace-out", default=None, help="solve trace JSON path")
    _add_solver_flags(p)

    p = sub.add_parser("certify", help="check recovery conditions and certificate")
    p.add_argument("data", help="labeled CSV")
    p.add_argument("--betas", required=True, help="model JSON (from gen --betas-out)")
    p.add_argument("-o", "--output", default=None, help="verdict JSON path")

    p = sub.add_parser("fit", help="solve, cluster, and refit per class")
    p.add_argument("data", help="input CSV")
    p.add_argument("--k", type=int, required=True, help="number of classes")
    p.add_argument("-o", "--output", required=True, help="report JSON path")
    p.add_argument("--labels-out", default=None, help="labels CSV path")
    p.add_argument("--estimates-out", default=None, help="per-point estimates CSV")
    p.add_argument("--restarts", type=int, default=_FIT["restarts"].default)
    p.add_argument("--seed", type=int, default=_FIT["seed"].default)
    p.add_argument("--center-column", type=int,
                   help="1-based feature column to center and rescale")
    p.add_argument("--center-alpha", type=float, default=1.0,
                   help="scale applied after centering")
    _add_solver_flags(p)

    p = sub.add_parser("phase", help="run a recovery-fraction grid")
    p.add_argument("--mode", choices=("aperture", "imbalance"), required=True)
    p.add_argument("--d", type=int, nargs="+", default=PhaseConfig.d_values,
                   help="dimension values (default 3..15)")
    p.add_argument("--values", type=float, nargs="+",
                   default=PhaseConfig.sweep_values,
                   help="sweep values (default: 16 evenly spaced)")
    p.add_argument("--trials", type=int, default=PhaseConfig.trials)
    p.add_argument("--seed", type=int, default=PhaseConfig.base_seed, help="base seed")
    p.add_argument("--workers", type=int, default=_RUN_PHASE["workers"].default,
                   help="processes that run trials, this one included; "
                        "at most one per cell")
    p.add_argument("-o", "--output", required=True,
                   help="output prefix (.csv, .pgm, .json)")
    _add_solver_flags(p)
    return parser


def _cmd_gen(args) -> int:
    foreign = [
        "--" + name.replace("_", "-")
        for sim, flags in _GEN_FLAGS.items() if sim != args.sim
        for name in flags if getattr(args, name) is not None
    ]
    if foreign:
        raise _UsageError(
            f"mixreg gen: error: {', '.join(foreign)} not accepted with --sim {args.sim}"
        )
    values = {
        name: default if getattr(args, name) is None else getattr(args, name)
        for name, default in _GEN_FLAGS[args.sim].items()
    }
    gen, config = (gen_sim1, Sim1Config) if args.sim == 1 else (gen_sim2, Sim2Config)
    dataset, model = gen(config(d=args.d, seed=args.seed, **values))
    save_csv(dataset, args.output)
    if args.betas_out:
        save_betas(model, args.betas_out)
    print(f"wrote {dataset.m} rows (d={dataset.d}) to {args.output}")
    return EXIT_OK


def _cmd_solve(args) -> int:
    dataset = load_csv(args.data)
    estimates, trace = irls_solve(dataset, _solver_options(args))
    _write_table(args.output, [f"z_{i + 1}" for i in range(dataset.d)], estimates.z)
    if args.trace_out:
        write_json(trace.to_dict(), args.trace_out)
    print(
        f"solved m={dataset.m} d={dataset.d}: iterations={trace.iterations} "
        f"converged={trace.converged} stop_reason={trace.stop_reason} "
        f"extrapolations={trace.extrapolations} "
        f"feasibility={feasibility_residual(estimates, dataset):.3e}"
    )
    return EXIT_OK


def _cmd_certify(args) -> int:
    dataset = load_csv(args.data)
    if dataset.labels is None:
        raise DataValidationError("certify requires a label column")
    betas = load_betas(args.betas)
    model = MixtureModel(betas, dataset.class_sizes())
    conditions = check_conditions(dataset, model)
    payload: dict = {"conditions": conditions.to_dict()}
    try:
        cert = build_certificate(dataset, model)
        verdict = verify_certificate(cert, dataset, model)
        payload["certificate"] = verdict.to_dict()
        code = EXIT_OK
    except CertificateUndefinedError as exc:
        payload["certificate"] = {
            "defined": False,
            "error": str(exc),
            "row_index": exc.row_index,
            "certifies": False,
        }
        code = EXIT_NUMERIC
    if args.output:
        write_json(payload, args.output)
        if code == EXIT_OK:
            print(f"certifies: {payload['certificate']['certifies']}")
    else:  # stdout carries one JSON document, which holds the verdict
        import json

        print(json.dumps(payload, indent=2))
    if code != EXIT_OK:
        print("certificate undefined", file=sys.stderr)
    return code


def _cmd_fit(args) -> int:
    dataset = load_csv(args.data)
    column = args.center_column
    if column is not None:
        if not 1 <= column <= dataset.d:
            raise DataValidationError(
                f"--center-column {column} is not a feature column (1..{dataset.d})"
            )
        dataset = preprocess_center_scale(dataset, args.center_alpha, column - 1)
    report, estimates = fit_pipeline(
        dataset, args.k, _solver_options(args), restarts=args.restarts, seed=args.seed
    )
    write_json(report.to_dict(), args.output)
    if args.labels_out:
        _write_table(args.labels_out, [], np.empty((dataset.m, 0)), report.labels)
    if args.estimates_out:
        names = [f"z_{i + 1}" for i in range(dataset.d)]
        _write_table(args.estimates_out, names, estimates.z, report.labels)
    print(
        f"fit k={args.k}: iterations={report.trace.iterations} "
        f"stop_reason={report.trace.stop_reason} "
        f"max per-class residual={float(np.max(report.per_class_residual)):.3e}"
    )
    return EXIT_OK


def _cmd_phase(args) -> int:
    cfg = PhaseConfig(
        mode=args.mode,
        d_values=args.d,
        sweep_values=args.values,
        trials=args.trials,
        base_seed=args.seed,
        solver=_solver_options(args),
    )
    grid = run_phase(cfg, workers=args.workers)
    prefix = args.output
    write_grid_csv(grid, f"{prefix}.csv")
    write_grid_pgm(grid, f"{prefix}.pgm")
    write_json(grid.to_dict(), f"{prefix}.json")
    print(
        f"phase {cfg.mode}: {len(cfg.d_values)} x {len(cfg.sweep_values)} cells, "
        f"mean fraction {float(grid.fractions.mean()):.3f}; "
        f"wrote {prefix}.csv/.pgm/.json"
    )
    return EXIT_OK


_COMMANDS = {
    "gen": _cmd_gen,
    "solve": _cmd_solve,
    "certify": _cmd_certify,
    "fit": _cmd_fit,
    "phase": _cmd_phase,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except _UsageError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_USAGE
    except (DataValidationError, DegenerateModelError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (NumericalError, CertificateUndefinedError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except MixregError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
