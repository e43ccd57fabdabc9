#!/usr/bin/env python3
"""Benchmark for mixreg: phase-grid throughput, solve and certify latency,
and CLI fit time.

    python3 perfbench/run.py --workload aperture-grid --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  ``--workload all`` runs the three
workloads one after another.  With ``--trace 0`` the last line of standard
output is one JSON object with the end-to-end metrics; with ``--trace 1``
it holds the per-layer metrics of a traced run instead.  The lines above it
give every figure by name with its unit and sample count, and the full
result (environment, sizes, iteration counts, every figure) is written to
``.perfbench_out/`` unless ``--out`` names another file.

BLAS is pinned to one thread before numpy loads, here and in the phase
workers, which inherit the environment.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
WORKLOADS = ("aperture-grid", "soundness", "fit-fixtures")
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 60


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True,
                   help="measured time per workload; whole rounds are run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", default=None, help="result JSON path")
    p.add_argument("--setup-probe", action="store_true",
                   help="only import, build the inputs and warm up, then exit")
    return p.parse_args(argv)


def _import_program():
    if not (SRC / "mixreg" / "__init__.py").is_file():
        sys.exit(f"perfbench: no mixreg sources under {SRC}")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import workloads

    return workloads


def _blas_threads() -> dict:
    """Threads each loaded OpenBLAS reports, found through this process's
    memory map and asked through its own get_num_threads entry point."""
    import ctypes

    found = {}
    try:
        maps = Path("/proc/self/maps").read_text().splitlines()
    except OSError:
        return found
    libs = sorted({ln.split()[-1] for ln in maps
                   if "openblas" in ln.lower() and ln.split()[-1].startswith("/")})
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                found[Path(path).name] = fn()
                break
    return found


def _environment() -> dict:
    import numpy
    import scipy

    return {
        "blas_threads": _blas_threads(),
        "thread_env": {v: os.environ[v] for v in
                       ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
    }


def _setup_times(name: str, seed: int) -> list[float]:
    """Wall time of fresh processes that start the interpreter, import
    mixreg, build this workload's inputs and warm up."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
            "--seed", str(seed), "--seconds", "0", "--setup-probe"]
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        child = subprocess.Popen(argv, stdout=subprocess.DEVNULL)
        # a blocking wait, so the time is not rounded to a polling interval;
        # the timer kills a probe that hangs
        watchdog = threading.Timer(PROBE_TIMEOUT_S, child.kill)
        watchdog.start()
        try:
            code = child.wait()
        finally:
            watchdog.cancel()
        times.append(time.perf_counter() - t0)
        if code != 0:
            raise RuntimeError(f"setup probe for {name} exited with {code}")
    return times


def _run_rounds(bench, tally, seconds: float) -> tuple[int, float]:
    """Whole rounds, at least one, until the wall time comes within half a
    round of ``seconds``; returns the round count and the time spent inside
    operations."""
    rounds, busy = 0, 0.0
    start = time.perf_counter()
    while True:
        busy += bench.run_round(tally)
        rounds += 1
        elapsed = time.perf_counter() - start
        if elapsed + 0.5 * elapsed / rounds >= seconds:
            return rounds, busy


def run_workload(workloads, name: str, seed: int, seconds: float, trace: bool,
                 work: Path) -> dict:
    setup = _setup_times(name, seed)
    bench = workloads.WORKLOADS[name](seed, work)
    bench.warm_up()
    tally = workloads.Tally()
    result = {"workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
              "setup_s": setup}
    if not trace:
        rounds, busy = _run_rounds(bench, tally, seconds)
        report = bench.report(busy)
        metrics = {"setup_s": (statistics.median(setup), "s")}
        for key, figure in bench.end_to_end.items():
            metrics[key] = report[figure][:2]
    else:
        import spans as tracing

        # untraced rounds first, for a third of the time: the reference for
        # the tracing overhead
        plain_rounds, plain_busy = _run_rounds(bench, tally, seconds / 3)
        plain_s = plain_busy / plain_rounds
        efficiency = 0.0
        if name == "aperture-grid":
            serial_s = bench.run_round(tally, workers=1)
            efficiency = serial_s / (workloads.APERTURE_WORKERS * plain_s)
        tracer = tracing.Tracer(work / f"spans-{name}")
        tracer.install()
        try:
            rounds, busy = _run_rounds(bench, tally, seconds)
        finally:
            tracer.uninstall()
        spans = tracer.collect()
        layers = tracing.layer_metrics(spans, rounds)
        layers["phase.parallel_efficiency"] = efficiency
        layers["trace.overhead_pct"] = 100.0 * (busy / rounds / plain_s - 1.0)
        metrics = {k: (v, _layer_unit(k)) for k, v in layers.items()}
        report = {}
        result["spans"] = spans
    result.update(
        rounds=rounds, busy_s=busy, attempted=tally.attempted, failed=tally.failed,
        drift=tally.drift,
        failures=tally.notes, sizes=bench.sizes(), report=report, metrics=metrics,
        samples=bench.samples(),
    )
    return result


def _layer_unit(name: str) -> str:
    if name.endswith(".ms"):
        return "ms"
    if name.endswith(".mflop"):
        return "Mflop"
    if name.endswith("_pct"):
        return "%"
    if name.endswith(("_ratio", "_efficiency")):
        return "ratio"
    return "count"


def _print_result(res: dict) -> None:
    print(f"[{res['workload']}] seed={res['seed']} rounds={res['rounds']} "
          f"attempted={res['attempted']} failed={res['failed']} "
          f"changed between rounds={res['drift']}")
    for note in res["failures"]:
        print(f"  problem: {note}")
    for key, (value, unit, n) in res["report"].items():
        print(f"  {key} = {value:.6g} {unit} (n={n})")
    for key, (value, unit) in res["metrics"].items():
        print(f"  {key} = {value:.6g} {unit}")


def main(argv=None) -> int:
    args = _parse(argv)
    workloads = _import_program()
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    work = OUT / f"work-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        if args.setup_probe:
            workloads.WORKLOADS[args.workload](args.seed, work).warm_up()
            return 0
        results = [run_workload(workloads, n, args.seed, args.seconds,
                                bool(args.trace), work) for n in names]
    finally:
        shutil.rmtree(work, ignore_errors=True)

    env = _environment()
    for res in results:
        _print_result(res)
    out = Path(args.out) if args.out else (
        OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps({"environment": env, "results": results}, indent=1) + "\n")
    print(f"blas threads {env['blas_threads']}, numpy {env['numpy']}, "
          f"scipy {env['scipy']}, nproc {env['nproc']}; wrote {out}")

    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}/{k}": v for r in results
                   for k, v in r["metrics"].items()}
    print(json.dumps({
        "correct": all(r["drift"] == 0 for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
