"""Layer spans for the traced run, recorded from outside the program.

The tracer replaces the public names that the program's modules call
through (``mixreg.solver.weighted_ls_step``, ``mixreg.pipeline.kmeans``,
``mixreg.phase.irls_solve``, ...) with timing wrappers and puts the
originals back on ``uninstall``.  Each span keeps its call count, its total
time and its self time (total minus the spans it encloses), plus a few
counts read from arguments or results: IRLS iterations, factorization sizes,
certificate vectors.

Phase workers are forked from the benchmark process, so they inherit the
wrappers.  A wrapper that finds itself in a new process starts an empty
record, and after each outermost span in that process writes the record to
its own file in ``out_dir``; ``collect`` merges those files with the
parent's.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

from mixreg import certificate, cli, geometry, phase, pipeline, solver, synth

# span name -> the (module, attribute) pairs it wraps
TARGETS = {
    "cli": [(cli, "main")],
    "dataio.load": [(cli, "load_csv")],
    "pipeline.fit": [(cli, "fit_pipeline")],
    "cluster.kmeans": [(pipeline, "kmeans")],
    "cluster.refit": [(pipeline, "refit_regression")],
    "phase.run": [(phase, "run_phase")],
    "synth.gen": [(synth, "gen_sim1"), (synth, "gen_sim2"),
                  (phase, "gen_sim1"), (phase, "gen_sim2")],
    "model.recovery": [(phase, "candidate_solution"), (phase, "recovery_error")],
    "solver.irls": [(solver, "irls_solve"), (phase, "irls_solve"),
                    (pipeline, "irls_solve")],
    "solver.subproblem": [(solver, "weighted_ls_step")],
    "solver.weights": [(solver, "update_weights")],
    "solver.objective": [(solver, "smoothed_objective")],
    "geometry.conditions": [(geometry, "check_conditions")],
    "certificate.build": [(certificate, "build_certificate")],
    "certificate.verify": [(certificate, "verify_certificate")],
}
FACTOR = "solver.factor"  # scipy.linalg.lapack.dsytrf as the solver calls it


def _irls_counts(args, result) -> dict:
    trace = result[1]
    return {"iterations": trace.iterations, "converged": int(trace.converged)}


def _factor_counts(args, result) -> dict:
    n = args[0].shape[0]
    return {"dim": n, "flop": n ** 3 / 3.0}


def _certificate_counts(args, result) -> dict:
    # stored xi vectors; a certificate that computes them on access stores none
    xi = getattr(result, "xi", None)
    return {"xi": len(xi) if isinstance(xi, dict) else 0}


COUNTERS = {
    "solver.irls": _irls_counts,
    FACTOR: _factor_counts,
    "certificate.build": _certificate_counts,
}


class _LapackProxy:
    """Stands in for ``scipy.linalg.lapack`` inside ``mixreg.solver``."""

    def __init__(self, real, dsytrf):
        self._real = real
        self.dsytrf = dsytrf

    def __getattr__(self, name):
        return getattr(self._real, name)


class Tracer:
    def __init__(self, out_dir: Path):
        self.out_dir = Path(out_dir)
        self.out_dir.mkdir(parents=True, exist_ok=True)
        self.parent = self.pid = os.getpid()
        self.stats: dict[str, dict] = {}
        self.stack: list[float] = []  # time covered by child spans, per open span
        self.saved: list[tuple] = []

    def _wrap(self, name: str, fn):
        counter = COUNTERS.get(name)

        def wrapper(*args, **kwargs):
            if os.getpid() != self.pid:  # first span in a forked worker
                self.pid = os.getpid()
                self.stats = {}
                self.stack = []
                # unique even if a later pool's worker reuses the pid
                self.record = self.out_dir / f"{self.pid}-{time.time_ns()}.json"
            self.stack.append(0.0)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - t0
                children = self.stack.pop()
                if self.stack:
                    self.stack[-1] += elapsed
            s = self.stats.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            s["calls"] += 1
            s["total_s"] += elapsed
            s["self_s"] += elapsed - children
            if counter is not None:
                for key, value in counter(args, result).items():
                    s[key] = s.get(key, 0) + value
            if not self.stack and self.pid != self.parent:
                self.record.write_text(json.dumps(self.stats))
            return result

        return wrapper

    def install(self) -> None:
        for name, sites in TARGETS.items():
            wrapped = {}
            for module, attr in sites:
                original = getattr(module, attr)
                if id(original) not in wrapped:
                    wrapped[id(original)] = self._wrap(name, original)
                self.saved.append((module, attr, original))
                setattr(module, attr, wrapped[id(original)])
        real = solver.lapack
        self.saved.append((solver, "lapack", real))
        solver.lapack = _LapackProxy(real, self._wrap(FACTOR, real.dsytrf))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self.saved):
            setattr(module, attr, original)
        self.saved.clear()

    def collect(self) -> dict[str, dict]:
        """The parent's spans merged with every worker's record."""
        merged = {name: dict(s) for name, s in self.stats.items()}
        for path in sorted(self.out_dir.glob("*.json")):
            for name, s in json.loads(path.read_text()).items():
                into = merged.setdefault(name, {})
                for key, value in s.items():
                    into[key] = into.get(key, 0) + value
        return merged


def _per_call(stats: dict, name: str, key: str = "total_s", scale: float = 1e3) -> float:
    s = stats.get(name)
    if not s or not s["calls"]:
        return 0.0
    return s[key] * scale / s["calls"]


def layer_metrics(stats: dict, rounds: int) -> dict:
    """Per-layer figures from merged spans over ``rounds`` traced rounds.

    Times are milliseconds per call (self time where the name says
    ``self``); counts are per call or per round as named.  A layer that did
    no work on the workload reads 0."""
    return {
        "solver.iterations": _per_call(stats, "solver.irls", "iterations", 1.0),
        "solver.converged_ratio": _per_call(stats, "solver.irls", "converged", 1.0),
        "solver.subproblem.calls":
            stats.get("solver.subproblem", {}).get("calls", 0) / rounds,
        "solver.subproblem.ms": _per_call(stats, "solver.subproblem"),
        "solver.factor.ms": _per_call(stats, FACTOR),
        "solver.factor.dim": _per_call(stats, FACTOR, "dim", 1.0),
        "solver.factor.mflop": _per_call(stats, FACTOR, "flop", 1e-6),
        "solver.weights.ms": _per_call(stats, "solver.weights"),
        "solver.objective.ms": _per_call(stats, "solver.objective"),
        "solver.self.ms": _per_call(stats, "solver.irls", "self_s"),
        "certificate.build.ms": _per_call(stats, "certificate.build"),
        "certificate.verify.ms": _per_call(stats, "certificate.verify"),
        "certificate.xi_vectors": _per_call(stats, "certificate.build", "xi", 1.0),
        "geometry.conditions.ms": _per_call(stats, "geometry.conditions"),
        "synth.gen.ms": _per_call(stats, "synth.gen"),
        "model.recovery.ms": _per_call(stats, "model.recovery"),
        "cluster.kmeans.ms": _per_call(stats, "cluster.kmeans"),
        "cluster.refit.ms": _per_call(stats, "cluster.refit"),
        "dataio.load.ms": _per_call(stats, "dataio.load"),
        "pipeline.self.ms": _per_call(stats, "pipeline.fit", "self_s"),
        "cli.self.ms": _per_call(stats, "cli", "self_s"),
    }
