"""The benchmark's workloads.

Each workload is built once from a seed (the set-up that `setup_s` times)
and then iterated in a closed loop.  An iteration is a list of operations;
each operation returns an `Outcome` holding its verdicts in the suite's
{check_id, observed, predicted, tolerance, pass} form.  The seed sets only
the phases of amplitudes in periodic chart variables, which leave every
closed-form prediction unchanged.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

CLAMP = 1e-10  # spectral's negative-eigenvalue clamp, relative to the max
TRACE_TOL = 1e-6  # the acceptance suite's trace-identity tolerance
TWO_PI = 2.0 * math.pi


def verdict(check_id, observed, predicted, tolerance, passed=None) -> dict:
    if passed is None:
        passed = abs(observed - predicted) <= tolerance
    return {"check_id": check_id, "observed": float(observed),
            "predicted": float(predicted), "tolerance": float(tolerance),
            "pass": bool(passed)}


@dataclass
class Outcome:
    op: str
    verdicts: list = field(default_factory=list)
    error: str = ""

    @property
    def ok(self) -> bool:
        return not self.error and all(v["pass"] for v in self.verdicts)

    @property
    def tol_frac(self) -> float:
        """Largest |observed - predicted| / tolerance over the verdicts."""
        return max((abs(v["observed"] - v["predicted"]) / v["tolerance"]
                    for v in self.verdicts), default=0.0)


def run_op(name, fn) -> Outcome:
    """Run one operation; an exception fails it instead of the run."""
    try:
        return Outcome(name, fn())
    except Exception:  # the benchmark must report, not stop
        return Outcome(name, error=traceback.format_exc())


class VerifyAll:
    """`acceptance.run_all` on a fresh Lab, one operation per check.

    What `szegolab verify-all` users wait for; it carries most of the
    spectral work and reaches every layer but dsl and cli.  Its inputs are
    the suite's own, so the seed changes nothing here.
    """

    def __init__(self, seed: int, workdir: Path):
        from szegolab import acceptance
        self.acceptance = acceptance

    def iterate(self) -> list[Outcome]:
        lab = self.acceptance.Lab()
        return [run_op(check.__name__,
                       lambda c=check: self.acceptance.run_all(lab, [c]))
                for check in list(self.acceptance.CHECKS)]


class SphereNodes:
    """Two sphere3 operators per iteration, each eigensolved.

    k=10 with a=1 (46,575 nodes, dim 1035, diagonal to rounding) and k=8
    with a = 1 + 0.5 cos(t2 + phi) (26,011 nodes, dim 703, dense).  Basis
    evaluation plus assembly do about 95% of the work, so assembly changes
    show here and eigensolver changes do not; the dense case is where
    block or symmetry-sector shortcuts must not apply and must not cost.
    """

    def __init__(self, seed: int, workdir: Path):
        from szegolab import assembly, fock, manifold, spectral
        self.assembly, self.fock = assembly, fock
        self.manifold, self.spectral = manifold, spectral
        self.sphere = manifold.sphere3(1.0)
        phi = float(np.random.default_rng(seed).uniform(0.0, TWO_PI))
        self.cases = [(10.0, None),
                      (8.0, lambda t: 1.0 + 0.5 * np.cos(t[:, 1] + phi))]

    def _operator(self, k, amplitude) -> list[dict]:
        # the acceptance Lab's sphere truncation and quadrature orders
        M = int(round(4 * k)) + 4
        quad = self.manifold.quadrature(self.sphere, [M // 2 + 1, M + 1, M + 1])
        trunc = self.fock.FockTruncation(ambient_dim=2, k=k, max_degree=M)
        op = self.assembly.assemble_T(trunc, self.sphere, amplitude, quad)
        eigs = self.spectral.eigensolve(op).eigenvalues
        _, _, gap = self.assembly.exact_trace(op)
        trace = op.trace()
        top = float(eigs[0])
        # eigvalsh moves each eigenvalue by O(dim * eps * |T|)
        sum_tol = op.dim ** 2 * np.finfo(float).eps * top
        return [verdict("exact_trace_gap", gap, 0.0, TRACE_TOL),
                verdict("eigenvalue_sum", float(eigs.sum()), trace, sum_tol),
                verdict("clamp", max(0.0, -float(eigs[-1]) / top), 0.0, CLAMP)]

    def iterate(self) -> list[Outcome]:
        return [run_op(f"sphere3_k{k:g}", lambda k=k, a=a: self._operator(k, a))
                for k, a in self.cases]


class DslConfig:
    """The CLI front end on JSON configs of a DSL torus chart.

    A `custom` chart of the torus (radii 1 and 0.7) in C^2 with DSL
    amplitudes, default quadrature and truncation: `spectrum` and
    `szego --phi power:2` on a real amplitude, `schatten` (p=1,2) on a
    complex one.  Per-node `dsl.evaluate` dominates and the matrices stay
    small (dim at most 1225), so DSL and CLI changes move this workload
    and leave the other two alone.

    Default truncation keeps a known defect visible:
    `Quadrature.max_radius` takes the largest coordinate modulus instead
    of |z|, so M = 4k instead of about 4k * 1.49 and `TruncationWarning`
    fires; the traced run counts it in `assembly.truncation_warnings`.

    The sweep ends at k=12: at k=8 the power:2 verdict already uses most
    of its 2% tolerance, an O(1/k) convergence gap that a larger M does
    not close.  The complex amplitude varies its imaginary part slowly; a
    full phase e^{i t2} misses the 2% Schatten tolerance at k=12 for the
    same O(1/k) reason.
    """

    K_SWEEP = [4.0, 8.0, 12.0]

    def __init__(self, seed: int, workdir: Path):
        from szegolab import cli
        self.cli = cli
        p1, p2, p3, p4 = (repr(float(x)) for x in
                          np.random.default_rng(seed).uniform(0.0, TWO_PI, 4))
        torus = {"kind": "custom", "dim": 2, "ambient_dim": 2,
                 "coords": ["cos(t1)", "sin(t1)", "0.7*cos(t2)", "0.7*sin(t2)"],
                 "periodic": [True, True],
                 "domain": [[0.0, TWO_PI], [0.0, TWO_PI]], "label": "torus"}
        real = {"manifold": torus, "k_sweep": self.K_SWEEP,
                "amplitude": f"1 + 0.25*cos(t1 + {p1}) + 0.25*cos(t2 + {p2})"}
        complex_ = {"manifold": torus, "k_sweep": self.K_SWEEP,
                    "amplitude": [f"1 + 0.5*cos(t1 + {p3})",
                                  f"0.5*sin(t2 + {p4})"],
                    "schatten_p": [1.0, 2.0]}
        self.workdir = workdir
        self.configs = {}
        for name, config in (("real", real), ("complex", complex_)):
            path = workdir / f"{name}.json"
            path.write_text(json.dumps(config))
            self.configs[name] = str(path)
        self.count = 0

    def _cli(self, out: Path, config: str, *command) -> int:
        with contextlib.redirect_stdout(io.StringIO()):
            return self.cli.main(["--config", self.configs[config],
                                  "--out", str(out), *command])

    def _exit_code(self, code) -> dict:
        return verdict("exit_code", code, 0, 0.5)

    def _spectrum(self, out: Path) -> list[dict]:
        code = self._cli(out, "real", "spectrum")
        text = (out / "spectrum.csv").read_text()
        rows = list(csv.DictReader(io.StringIO(text)))
        M = {float(r["k"]): int(r["M"]) for r in rows}
        expected = sum((M[k] + 1) * (M[k] + 2) // 2 for k in self.K_SWEEP)
        return [self._exit_code(code),
                verdict("spectrum_rows", len(rows), expected, 0.5)]

    def _verdict_file(self, out: Path, config, command, *args) -> list[dict]:
        code = self._cli(out, config, command, *args)
        verdicts = json.loads((out / f"{command}_verdicts.json").read_text())
        return [self._exit_code(code)] + [
            verdict(v["check_id"], v["observed"], v["predicted"],
                    v["tolerance"], v["pass"]) for v in verdicts]

    def iterate(self) -> list[Outcome]:
        self.count += 1
        out = self.workdir / f"out{self.count}"
        return [
            run_op("spectrum", lambda: self._spectrum(out / "spectrum")),
            run_op("szego", lambda: self._verdict_file(
                out / "szego", "real", "szego", "--phi", "power:2")),
            run_op("schatten", lambda: self._verdict_file(
                out / "schatten", "complex", "schatten")),
        ]


WORKLOADS = {"verify_all": VerifyAll, "sphere_nodes": SphereNodes,
             "dsl_config": DslConfig}
