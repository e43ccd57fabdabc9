"""The three benchmark workloads: inputs, timed rounds and output checks.

Each workload builds its inputs once from the benchmark seed and then runs
*rounds*.  A round is a fixed list of operations over those inputs, run in a
closed loop (the next operation starts when the previous one returns), so
every round of a run does the same work.  Checks of the outputs run outside
the timed regions and never compare against saved program output: they use
the planted field ``Z*_i = e_{label_i}`` (the generators build every class
coefficient as a standard basis vector), the measurement equations, and
label truth derived from the fixtures.

All calls into the program go through module attributes
(``mixreg.solver.irls_solve`` rather than a name bound at import), so the
traced run in ``spans.py`` sees them when it wraps those attributes.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from mixreg import certificate, cli, geometry, phase, solver, synth

HERE = Path(__file__).resolve().parent
FIXTURES = HERE / "fixtures"

FEAS_TOL = 1e-10       # |a_i . z_i - b_i| for every estimate row
DESCENT_SLACK = 1e-10  # allowed increase between objective-history entries
RECOVERY_TOL = 1e-5    # distance to Z* for recovered / certified instances
COEF_TOL = 1e-6        # refit coefficients against the known models


# ---------------------------------------------------------------- checks

def planted_field(labels: np.ndarray, d: int) -> np.ndarray:
    """``Z*``: row i is e_{label_i}, the generators' beta_p = e_p."""
    return np.eye(d)[np.asarray(labels)]


def distance(z: np.ndarray, z_ref: np.ndarray) -> float:
    """Normalized Frobenius distance ``||Z - Z_ref||_F / sqrt(m)``."""
    diff = np.asarray(z, dtype=float) - z_ref
    return math.sqrt(float(np.sum(diff * diff)) / diff.shape[0])


def estimate_problems(features, responses, z, history) -> list[str]:
    """Feasibility of every row and descent of the objective history."""
    problems = []
    gaps = np.abs(np.sum(features * z, axis=1) - responses)
    if not float(gaps.max()) <= FEAS_TOL:
        problems.append(f"feasibility residual {float(gaps.max()):.2e}")
    steps = np.diff(np.asarray(history, dtype=float))
    if steps.size and not float(steps.max()) <= DESCENT_SLACK:
        problems.append(f"objective increased by {float(steps.max()):.2e}")
    return problems


@dataclass
class Tally:
    """Operations attempted and failed, with the first few failure notes.

    ``repeat`` records a value that every round must reproduce (the IRLS
    iteration count of an operation, since rounds repeat the same inputs);
    ``drift`` counts the values that changed."""

    attempted: int = 0
    failed: int = 0
    notes: list = field(default_factory=list)
    drift: int = 0
    first: dict = field(default_factory=dict)

    def repeat(self, key, value) -> None:
        if self.first.setdefault(key, value) != value:
            self.drift += 1
            if len(self.notes) < 5:
                self.notes.append(f"{key}: {value} differs from {self.first[key]}")

    def record(self, what: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.notes) < 5:
                self.notes.append(f"{what}: {'; '.join(problems)}")


class CpuRotation:
    """Moves this process to the next allowed CPU before each operation.

    The speed of each CPU of a shared host drifts on its own over seconds,
    and a single busy process tends to stay on one CPU; rotating makes every
    run sample all CPUs alike.  Used by the single-process workloads only."""

    def __init__(self):
        self.cpus = sorted(os.sched_getaffinity(0))
        self.turn = 0

    def next(self) -> None:
        if len(self.cpus) > 1:
            os.sched_setaffinity(0, {self.cpus[self.turn % len(self.cpus)]})
            self.turn += 1

    def restore(self) -> None:
        os.sched_setaffinity(0, self.cpus)


# ---------------------------------------------------------- aperture-grid

APERTURE_D = tuple(range(3, 9))
APERTURE_ALPHA = (0.05, 0.10, 0.15)
APERTURE_TRIALS = 4  # per cell: 6 x 3 x 4 = 72 trials, all with m = 48
APERTURE_WORKERS = 2


class ApertureGrid:
    """One ``run_phase`` call over the aperture grid per round.

    Every workload class has the same shape: ``warm_up``, ``run_round``
    (returns the seconds spent inside operations), ``report`` (every figure
    as ``name -> (value, unit, samples)``), ``end_to_end`` (which figures
    are the benchmark's end-to-end metrics), ``samples`` and ``sizes``."""

    name = "aperture-grid"
    end_to_end = {"ops_per_s": "trials_per_s", "op_ms.p50": "grid_ms.p50"}

    def __init__(self, seed: int, work: Path):
        self.cfg = phase.PhaseConfig(
            mode="aperture",
            d_values=APERTURE_D,
            sweep_values=APERTURE_ALPHA,
            trials=APERTURE_TRIALS,
            base_seed=seed,
        )
        self.trials = len(APERTURE_D) * len(APERTURE_ALPHA) * APERTURE_TRIALS
        self.round_ms: list[float] = []
        self.iterations: list[int] = []

    def warm_up(self) -> None:
        """A one-cell grid: starts a worker pool once and solves in it."""
        small = phase.PhaseConfig(mode="aperture", d_values=(3,), sweep_values=(0.1,),
                                  trials=APERTURE_WORKERS, base_seed=self.cfg.base_seed)
        phase.run_phase(small, workers=APERTURE_WORKERS)

    def run_round(self, tally: Tally, workers: int = APERTURE_WORKERS) -> float:
        t0 = time.perf_counter()
        grid = phase.run_phase(self.cfg, workers=workers)
        elapsed = time.perf_counter() - t0
        self.round_ms.append(elapsed * 1e3)
        first = not self.iterations
        for di, d in enumerate(self.cfg.d_values):
            for si, alpha in enumerate(self.cfg.sweep_values):
                for t, rec in enumerate(grid.records[di][si]):
                    problems = []
                    if rec.failed:
                        problems.append("trial raised")
                    elif not rec.success:
                        problems.append(f"recovery error {rec.recovery_error:.2e}")
                    if first:
                        self.iterations.append(rec.iterations)
                        problems += self._check_instance(d, si, t, rec.seed)
                    what = f"d={d} alpha={alpha} trial={t}"
                    tally.repeat(what, rec.iterations)
                    tally.record(what, problems)
        return elapsed

    def _check_instance(self, d: int, si: int, t: int, seed: int) -> list[str]:
        """Regenerate the trial's instance from its seed and certify it; the
        first trial of each cell is also re-solved and compared with Z*."""
        problems = []
        if seed != phase.trial_seed(self.cfg.base_seed, d, si, t):
            problems.append("trial seed is not the documented function")
        alpha = self.cfg.sweep_values[si]
        dataset, model = synth.gen_sim1(synth.Sim1Config(3, d, 16, alpha, seed))
        verdict = certificate.verify_certificate(
            certificate.build_certificate(dataset, model), dataset, model
        )
        if not verdict.certifies:
            problems.append("instance does not certify")
        if t == 0:
            estimate, trace = solver.irls_solve(dataset, self.cfg.solver)
            problems += estimate_problems(
                dataset.features, dataset.responses, estimate.z,
                trace.objective_history,
            )
            err = distance(estimate.z, planted_field(dataset.labels, d))
            if not err < RECOVERY_TOL:
                problems.append(f"re-solve is {err:.2e} from Z*")
        return problems

    def samples(self) -> dict:
        return {"round_ms": self.round_ms}

    def sizes(self) -> dict:
        return {"m": [48], "d": list(APERTURE_D), "trials_per_round": self.trials,
                "iterations": _summary(self.iterations)}

    def report(self, measured_s: float) -> dict:
        rounds = len(self.round_ms)
        return {
            "trials_per_s": (rounds * self.trials / measured_s, "1/s", rounds * self.trials),
            "grid_ms.p50": (float(np.median(self.round_ms)), "ms", rounds),
        }


# -------------------------------------------------------------- soundness

SOUND_D = tuple(range(3, 11))
SOUND_N = (16, 24, 32)
SOUND_APERTURE_REPS = 3   # per (d, n): 72 aperture instances
SOUND_IMBALANCE_REPS = 6  # per d: 48 imbalance instances, 1 in 4 with tau = 0
SOUND_ALPHA = (0.02, 0.30)
SOUND_STOP_TOL = 1e-8


def soundness_specs(seed: int) -> list[tuple]:
    """The criterion-4 mix, stratified so that every run holds the same
    make-up: aperture and imbalance instances in the ratio 3 : 2, every d in
    3..10 and every n in {16, 24, 32} equally often, a quarter of the
    imbalance instances balanced (tau = 0), and alpha and tau each spread
    over their whole range with one draw per equal-width stratum.  The seed
    places each draw inside its stratum and picks every generator seed."""
    rng = np.random.default_rng([seed, 4])
    specs = []
    n_ap = len(SOUND_D) * len(SOUND_N) * SOUND_APERTURE_REPS
    lo, hi = SOUND_ALPHA
    q = 0
    for rep in range(SOUND_APERTURE_REPS):
        for d in SOUND_D:
            for n in SOUND_N:
                # a fixed stride spreads neighbouring (d, n) over the range
                stratum = (q * 29) % n_ap
                alpha = lo + (hi - lo) * (stratum + rng.uniform()) / n_ap
                specs.append(("aperture", d, n, alpha, int(rng.integers(2**63 - 1))))
                q += 1
    tau_max = synth.SIM2_TAU_MAX
    n_shift = len(SOUND_D) * SOUND_IMBALANCE_REPS * 3 // 4
    q = 0
    for rep in range(SOUND_IMBALANCE_REPS):
        for d in SOUND_D:
            if (rep + d) % 4 == 0:
                tau = 0.0
            else:
                stratum = (q * 7) % n_shift
                tau = tau_max * (stratum + rng.uniform()) / n_shift
                q += 1
            specs.append(("imbalance", d, 4 * d, tau, int(rng.integers(2**63 - 1))))
    return specs


def build_instance(spec):
    kind, d, n, value, seed = spec
    if kind == "aperture":
        return synth.gen_sim1(synth.Sim1Config(3, d, n, value, seed))
    return synth.gen_sim2(synth.Sim2Config(d, value, seed))


class Soundness:
    """Each round solves every instance at ``stop_tol = 1e-8``, then checks
    the recovery conditions and builds and verifies the certificate."""

    name = "soundness"
    end_to_end = {"ops_per_s": "instances_per_s", "op_ms.p50": "instance_ms.p50"}

    def __init__(self, seed: int, work: Path):
        self.specs = soundness_specs(seed)
        self.instances = [build_instance(s) for s in self.specs]
        self.opts = solver.SolverOptions(stop_tol=SOUND_STOP_TOL)
        self.solve_ms: list[float] = []
        self.certify_ms: list[float] = []
        self.iterations: list[int] = []
        self.certified = 0
        self.cpus = CpuRotation()

    def warm_up(self) -> None:
        dataset, model = self.instances[0]
        solver.irls_solve(dataset, solver.SolverOptions(max_iter=2))
        certificate.build_certificate(dataset, model)

    def run_round(self, tally: Tally) -> float:
        first = not self.iterations
        total = 0.0
        for i, (spec, (dataset, model)) in enumerate(zip(self.specs, self.instances)):
            self.cpus.next()
            t0 = time.perf_counter()
            estimate, trace = solver.irls_solve(dataset, self.opts)
            t1 = time.perf_counter()
            geometry.check_conditions(dataset, model)
            verdict = certificate.verify_certificate(
                certificate.build_certificate(dataset, model), dataset, model
            )
            t2 = time.perf_counter()
            total += t2 - t0
            self.solve_ms.append((t1 - t0) * 1e3)
            self.certify_ms.append((t2 - t1) * 1e3)
            problems = estimate_problems(
                dataset.features, dataset.responses, estimate.z,
                trace.objective_history,
            )
            if verdict.certifies:
                err = distance(estimate.z, planted_field(dataset.labels, dataset.d))
                if not err < RECOVERY_TOL:
                    problems.append(f"certified but {err:.2e} from Z*")
            if first:
                self.iterations.append(trace.iterations)
                self.certified += bool(verdict.certifies)
            kind, d, n, value, _ = spec
            what = f"instance {i} ({kind} d={d} n={n} value={value:.4f})"
            tally.repeat(what, trace.iterations)
            tally.record(what, problems)
        self.cpus.restore()
        return total

    def samples(self) -> dict:
        return {"solve_ms": self.solve_ms, "certify_ms": self.certify_ms}

    def sizes(self) -> dict:
        ms = sorted({ds.m for ds, _ in self.instances})
        return {"m": ms, "d": list(SOUND_D), "instances_per_round": len(self.specs),
                "certified_per_round": self.certified,
                "iterations": _summary(self.iterations)}

    def report(self, measured_s: float) -> dict:
        out = {"instances_per_s": (len(self.solve_ms) / measured_s, "1/s",
                                   len(self.solve_ms))}
        out.update(_percentiles("instance_ms", np.add(self.solve_ms, self.certify_ms),
                                p90=False))
        out.update(_percentiles("solve_ms", self.solve_ms))
        out.update(_percentiles("certify_ms", self.certify_ms))
        return out


# ----------------------------------------------------------- fit-fixtures

FIT_TWO_LINES_PER_ROUND = 50


def _truth_two_lines(rows: list[str]) -> np.ndarray:
    return np.array([int(r.rsplit(",", 1)[1]) - 1 for r in rows])


def _truth_tone(rows: list[str]) -> np.ndarray:
    """Class from the response ratio: b / a_1 is 1 or 2 in this fixture."""
    out = []
    for r in rows:
        a1, _, b = (float(v) for v in r.split(","))
        ratio = b / a1
        if abs(ratio - 1.0) < 1e-9:
            out.append(0)
        elif abs(ratio - 2.0) < 1e-9:
            out.append(1)
        else:
            raise ValueError(f"tone_like row with b/a_1 = {ratio}")
    return np.array(out)


class FitFixtures:
    """``mixreg fit --k 2`` through ``cli.main`` on both bundled fixtures.

    The seed permutes the row order of each fixture; a round is one fit of
    ``tone_like`` followed by ``FIT_TWO_LINES_PER_ROUND`` fits of
    ``two_lines``."""

    name = "fit-fixtures"
    end_to_end = {"ops_per_s": "fits_per_s", "op_ms.p50": "fit_ms.two_lines.p50"}

    def __init__(self, seed: int, work: Path):
        rng = np.random.default_rng([seed, 9])
        betas = json.loads((FIXTURES / "two_lines_betas.json").read_text())["betas"]
        self.cases = {}
        for name, truth_of, true_betas in (
            ("tone", _truth_tone, [[1.0, 0.0], [2.0, 0.0]]),
            ("two_lines", _truth_two_lines, betas),
        ):
            src = "tone_like.csv" if name == "tone" else "two_lines.csv"
            header, *rows = (FIXTURES / src).read_text().splitlines()
            rows = [rows[i] for i in rng.permutation(len(rows))]
            data = work / f"{name}.csv"
            data.write_text("\n".join([header, *rows]) + "\n")
            self.cases[name] = {
                "data": data,
                "truth": truth_of(rows),
                "betas": np.array(true_betas, dtype=float),
                "argv": ["fit", str(data), "--k", "2",
                         "-o", str(work / f"{name}.report.json"),
                         "--labels-out", str(work / f"{name}.labels.csv"),
                         "--estimates-out", str(work / f"{name}.estimates.csv")],
            }
        self.order = ["tone"] + ["two_lines"] * FIT_TWO_LINES_PER_ROUND
        self.fit_ms = {"tone": [], "two_lines": []}
        self.iterations = {}
        self.cpus = CpuRotation()

    def warm_up(self) -> None:
        self._fit("two_lines")

    def _fit(self, name: str) -> int:
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(self.cases[name]["argv"])

    def run_round(self, tally: Tally) -> float:
        total = 0.0
        for name in self.order:
            self.cpus.next()
            t0 = time.perf_counter()
            code = self._fit(name)
            elapsed = time.perf_counter() - t0
            total += elapsed
            self.fit_ms[name].append(elapsed * 1e3)
            tally.record(f"fit {name}", self._check(name, code, tally))
        self.cpus.restore()
        return total

    def _check(self, name: str, code: int, tally: Tally) -> list[str]:
        case = self.cases[name]
        if code != 0:
            return [f"exit code {code}"]
        work = case["data"].parent
        report = json.loads((work / f"{name}.report.json").read_text())
        self.iterations.setdefault(name, report["trace"]["iterations"])
        tally.repeat(f"fit {name}", report["trace"]["iterations"])
        labels = np.array(report["labels"]) - 1
        disk = np.loadtxt(work / f"{name}.labels.csv", skiprows=1, dtype=int) - 1
        est = np.loadtxt(work / f"{name}.estimates.csv", delimiter=",", skiprows=1)
        data = np.loadtxt(case["data"], delimiter=",", skiprows=1)
        d = case["betas"].shape[1]
        problems = []
        if not np.array_equal(labels, disk) or not np.array_equal(est[:, d], disk + 1):
            problems.append("labels differ between report and files")
        truth = case["truth"]
        hits = [int(np.sum(np.asarray(p)[labels] == truth)) for p in ((0, 1), (1, 0))]
        perm = ((0, 1), (1, 0))[int(np.argmax(hits))]
        if max(hits) != truth.size:
            problems.append(f"label accuracy {max(hits) / truth.size:.3f}")
        betas_hat = np.array(report["betas_hat"])
        coef_err = max(
            float(np.linalg.norm(betas_hat[p] - case["betas"][perm[p]])) for p in range(2)
        )
        if not coef_err <= COEF_TOL:
            problems.append(f"coefficient error {coef_err:.2e}")
        problems += estimate_problems(
            data[:, :d], data[:, d], est[:, :d], report["trace"]["objective_history"]
        )
        return problems

    def samples(self) -> dict:
        return {f"{k}_ms": v for k, v in self.fit_ms.items()}

    def sizes(self) -> dict:
        return {"m": {"tone": 150, "two_lines": 40}, "d": 2,
                "fits_per_round": {"tone": 1, "two_lines": FIT_TWO_LINES_PER_ROUND},
                "iterations": self.iterations}

    def report(self, measured_s: float) -> dict:
        fits = len(self.fit_ms["tone"]) + len(self.fit_ms["two_lines"])
        out = {"fits_per_s": (fits / measured_s, "1/s", fits)}
        out.update(_percentiles("fit_ms.two_lines", self.fit_ms["two_lines"]))
        out.update(_percentiles("fit_ms.tone", self.fit_ms["tone"], p90=False))
        return out


# ------------------------------------------------------------------ util

def _summary(values) -> dict:
    v = np.asarray(values)
    if v.size == 0:
        return {}
    return {"min": int(v.min()), "median": float(np.median(v)), "max": int(v.max()),
            "mean": float(v.mean())}


P90_MIN_SAMPLES = 100


def _percentiles(name: str, samples, p90: bool = True) -> dict:
    """Median always; p90 when asked for and backed by at least 100 samples."""
    out = {f"{name}.p50": (float(np.median(samples)), "ms", len(samples))}
    if p90 and len(samples) >= P90_MIN_SAMPLES:
        out[f"{name}.p90"] = (float(np.percentile(samples, 90)), "ms", len(samples))
    return out


WORKLOADS = {
    ApertureGrid.name: ApertureGrid,
    Soundness.name: Soundness,
    FitFixtures.name: FitFixtures,
}
