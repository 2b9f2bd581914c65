"""Benchmark of the szegolab verification lab.

    python3 perfbench/run.py --workload verify_all --seed 0 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from
`src/`.  Workloads are described in `workloads.py` and README.md.  One
process runs one workload in a closed loop: an iteration starts when the
previous one has finished, and no iteration starts that would end past
`--seconds` (the first always runs).

`--trace 0` prints the end-to-end metrics, `--trace 1` runs one untraced
and one traced iteration and prints the per-layer metrics.  A readable
report goes first; the last line of standard output is one JSON object
{correct, attempted, failed, metrics}.
"""

from __future__ import annotations

import argparse
import ctypes
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import warnings
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
SCRATCH = ROOT / ".perfbench"  # temp dirs and span dumps
SETUP_SAMPLES = 9  # set-ups timed per run: this process plus fresh children
WORKLOAD_NAMES = ("dsl_config", "sphere_nodes", "verify_all")
END_TO_END = {"wall_s": "s", "cpu_s": "s", "setup_s": "s",
              "peak_rss_mb": "MB"}


def import_package() -> None:
    src = ROOT / "src"
    if not (src / "szegolab" / "__init__.py").is_file():
        raise SystemExit(f"error: no szegolab sources under {src}")
    sys.path.insert(0, str(src))
    package = importlib.import_module("szegolab")
    if Path(package.__file__).resolve().parent != src / "szegolab":
        raise SystemExit(f"error: imported szegolab from {package.__file__}")


def set_up(name: str, seed: int, workdir: Path):
    """Import szegolab and build the workload inputs; returns (workload, s)."""
    start = time.perf_counter()
    import_package()
    from workloads import WORKLOADS  # imports numpy, so inside the timing
    workload = WORKLOADS[name](seed, workdir)
    return workload, time.perf_counter() - start


def child_setup_seconds(name: str, seed: int) -> float:
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", name,
         "--seed", str(seed), "--setup-only"],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    return float(proc.stdout.split()[-1])


def blas_threads():
    """Thread count reported by the loaded OpenBLAS, if it is one."""
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh
                    if "openblas" in line.lower()}
    except OSError:  # not Linux
        return None
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                return int(getattr(lib, symbol)())
    return None


def environment() -> dict:
    import numpy
    import scipy
    from szegolab import cli
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": blas_threads(),
            "SZEGO_LAB_THREADS": os.environ.get("SZEGO_LAB_THREADS"),
            "cli_max_workers": cli._max_workers(),
            "nproc": len(os.sched_getaffinity(0))}


class Iteration(NamedTuple):
    outcomes: list
    wall: float
    cpu: float
    truncation_warnings: int


def run_iteration(workload) -> Iteration:
    from szegolab.assembly import TruncationWarning
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        cpu0, wall0 = os.times(), time.perf_counter()
        outcomes = workload.iterate()
        wall, cpu1 = time.perf_counter() - wall0, os.times()
    cpu = (cpu1.user + cpu1.system) - (cpu0.user + cpu0.system)
    truncated = sum(issubclass(w.category, TruncationWarning) for w in caught)
    return Iteration(outcomes, wall, cpu, truncated)


def timed_loop(workload, seconds: float):
    start, iterations = time.perf_counter(), []
    while True:
        iterations.append(run_iteration(workload))
        elapsed = time.perf_counter() - start
        if elapsed + iterations[-1].wall > seconds:
            return iterations


def traced_pair(workload, name: str, seed: int):
    """One untraced then one traced iteration; returns (iterations, metrics,
    problems)."""
    from spans import EXPECTED, Tracer
    untraced = run_iteration(workload)
    tracer = Tracer()
    tracer.iteration = 1
    tracer.install()
    try:
        traced = run_iteration(workload)
    finally:
        tracer.uninstall()
    metrics = tracer.metrics(traced.truncation_warnings,
                             (untraced.wall, traced.wall))
    problems = []
    missing = sorted(set(EXPECTED[name]) - tracer.fired())
    if missing:
        problems.append(f"wrappers that never fired: {missing}")
    if (json.dumps([o.verdicts for o in untraced.outcomes])
            != json.dumps([o.verdicts for o in traced.outcomes])):
        problems.append("traced verdicts differ from untraced verdicts")
    tracer.dump(SCRATCH / f"spans_{name}_seed{seed}.jsonl")
    return [untraced, traced], metrics, problems


def report(args, env, iterations, setups, metrics, units, problems) -> dict:
    outcomes = [o for it in iterations for o in it.outcomes]
    failed = [o for o in outcomes if not o.ok]
    for o in failed:
        print(f"FAILED {o.op}: {o.error or o.verdicts}", file=sys.stderr)
    for p in problems:
        print(f"CHECK {p}", file=sys.stderr)
    print(f"workload {args.workload}  seed {args.seed}  "
          f"iterations {len(iterations)}  trace {args.trace}")
    print("env " + json.dumps(env))
    print(f"  {'fail_frac':34s} {len(failed) / len(outcomes):.6g} ratio "
          f"({len(failed)} of {len(outcomes)} operations)")
    print(f"  {'worst_tol_frac':34s} "
          f"{max(o.tol_frac for o in outcomes):.6g} ratio")
    if setups:
        print(f"  {'wall_s':34s} samples "
              f"{[round(it.wall, 3) for it in iterations]}")
        print(f"  {'setup_s':34s} samples {[round(s, 4) for s in setups]}")
    for name, value in metrics.items():
        print(f"  {name:34s} {value:.6g} {units[name]}")
    return {"correct": not failed and not problems,
            "attempted": len(outcomes), "failed": len(failed),
            "metrics": {n: {"value": v, "unit": units[n]}
                        for n, v in metrics.items()}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="time one set-up and print its seconds")
    args = parser.parse_args(argv)

    SCRATCH.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=SCRATCH))
    try:
        workload, setup = set_up(args.workload, args.seed, workdir)
        if args.setup_only:
            print(setup)
            return 0
        env = environment()
        if args.trace:
            iterations, metrics, problems = traced_pair(
                workload, args.workload, args.seed)
            from spans import METRICS as units
            result = report(args, env, iterations, [], metrics, units,
                            problems)
        else:
            setups = [setup] + [child_setup_seconds(args.workload, args.seed)
                                for _ in range(SETUP_SAMPLES - 1)]
            iterations = timed_loop(workload, args.seconds)
            metrics = {
                "wall_s": statistics.median(it.wall for it in iterations),
                "cpu_s": statistics.median(it.cpu for it in iterations),
                "setup_s": statistics.median(setups),
                "peak_rss_mb": resource.getrusage(
                    resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
            result = report(args, env, iterations, setups, metrics,
                            END_TO_END, [])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
