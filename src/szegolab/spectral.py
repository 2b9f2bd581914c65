"""Eigendecomposition and spectral functionals.

Everything downstream of assembly reads spectra through SpectralSummary:
traces of test functions, interval counts, Schatten sums, entropy, trace
distance, and the log-log rate regressions used to check O(1/k) claims.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .assembly import HermitianOperator

__all__ = [
    "SpectralSummary",
    "TestFunction",
    "RateFit",
    "eigensolve",
    "trace_phi",
    "weyl_count",
    "schatten_sum",
    "entropy",
    "trace_distance",
    "rate_regression",
    "power_function",
    "entropy_function",
    "trapezoid_function",
]

_CLAMP = 1e-10  # negative round-off below this fraction of max is zeroed


@dataclass(frozen=True)
class SpectralSummary:
    """Eigenvalues sorted descending plus operator metadata."""

    eigenvalues: np.ndarray
    k: float
    ambient_dim: int
    manifold_dim: Optional[int] = None
    d_prime: Optional[int] = None
    normalization: str = "raw_T"

    @property
    def max(self) -> float:
        return float(self.eigenvalues[0])

    def trace(self) -> float:
        return float(self.eigenvalues.sum())


@dataclass(frozen=True)
class TestFunction:
    """phi on [0, R] with a declared exponent p such that phi(s)/s^p is
    continuous; phi(0) = 0."""

    fn: Callable[[np.ndarray], np.ndarray]
    p: float
    name: str = "phi"

    def __call__(self, s):
        return self.fn(np.asarray(s, dtype=float))


def power_function(n: float) -> TestFunction:
    return TestFunction(fn=lambda s: s ** n, p=float(n), name=f"power:{n}")


def entropy_function() -> TestFunction:
    def slogs(s):
        out = np.zeros_like(s)
        mask = s > 0
        out[mask] = s[mask] * np.log(s[mask])
        return out

    return TestFunction(fn=slogs, p=0.5, name="entropy")


def trapezoid_function(l1: float, l2: float, m1: float, m2: float) -> TestFunction:
    """Piecewise-linear plateau: 0 before l1, 1 on [l2, m1], 0 after m2."""
    if not 0 < l1 <= l2 <= m1 <= m2:
        raise ValueError("need 0 < l1 <= l2 <= m1 <= m2")

    def fn(s):
        up = np.clip((s - l1) / max(l2 - l1, 1e-300), 0.0, 1.0)
        down = np.clip((m2 - s) / max(m2 - m1, 1e-300), 0.0, 1.0)
        return np.minimum(up, down)

    return TestFunction(fn=fn, p=1.0, name=f"trapezoid:{l1},{l2},{m1},{m2}")


def _clamped(eigs: np.ndarray) -> np.ndarray:
    top = float(eigs.max(initial=0.0))
    out = eigs.copy()
    if top > 0:
        out[(out < 0) & (out >= -_CLAMP * top)] = 0.0
    return out


def eigensolve(op: HermitianOperator) -> SpectralSummary:
    """Full descending spectrum of a Hermitian operator matrix."""
    if not op.hermitian:
        raise ValueError("eigensolve requires the Hermitian flag")
    eigs = np.linalg.eigvalsh(op.matrix)[::-1].copy()
    return SpectralSummary(eigenvalues=eigs, k=op.trunc.k,
                           ambient_dim=op.trunc.ambient_dim,
                           manifold_dim=op.manifold_dim, d_prime=op.d_prime,
                           normalization=op.normalization)


def trace_phi(spec: SpectralSummary, phi: TestFunction) -> float:
    """Sum of phi over the spectrum; negative noise is clamped first."""
    eigs = _clamped(spec.eigenvalues)
    if eigs.min(initial=0.0) < 0:
        raise ValueError("negative eigenvalue beyond the clamping tolerance")
    return float(np.sum(phi(eigs)))


def weyl_count(spec: SpectralSummary, interval) -> int:
    """Number of eigenvalues in the closed interval [lo, hi]."""
    lo, hi = interval
    if not 0 < lo <= hi:
        raise ValueError("interval must satisfy 0 < lo <= hi")
    eigs = spec.eigenvalues
    return int(np.count_nonzero((eigs >= lo) & (eigs <= hi)))


def schatten_sum(op: HermitianOperator, p: float) -> float:
    """Sum of singular values to the p-th power.

    The singular values come from an SVD of the matrix itself; the
    eigenvalues of S^H S would square the condition number and lose the
    small singular values that dominate sums with p < 2.
    """
    if p <= 0:
        raise ValueError("p must be positive")
    sv = np.linalg.svd(op.matrix, compute_uv=False)
    return float(np.sum(sv ** p))


def entropy(spec: SpectralSummary) -> float:
    """Von Neumann entropy -sum p log p of a density-matrix spectrum."""
    eigs = _clamped(spec.eigenvalues)
    total = eigs.sum()
    if abs(total - 1.0) > 1e-6:
        raise ValueError(f"eigenvalues sum to {total}, not a density matrix")
    pos = eigs[eigs > 0]
    return float(-np.sum(pos * np.log(pos)))


def trace_distance(op_a: HermitianOperator, op_b: HermitianOperator) -> float:
    """Schatten-1 norm of the difference."""
    if op_a.dim != op_b.dim:
        raise ValueError("operator dimensions differ")
    eigs = np.linalg.eigvalsh(op_a.matrix - op_b.matrix)
    return float(np.abs(eigs).sum())


@dataclass(frozen=True)
class RateFit:
    slope: float
    intercept: float
    converged_below_noise: bool
    residuals: np.ndarray


def rate_regression(k_values, values, target, noise_floor: float = 1e-13) -> RateFit:
    """Least-squares slope of log|value - target| against log k."""
    k_values = np.asarray(k_values, dtype=float)
    values = np.asarray(values, dtype=float)
    if k_values.size < 2 or np.unique(k_values).size < 2:
        raise ValueError("need at least two distinct sweep points")
    err = np.abs(values - target)
    scale = max(abs(target), np.abs(values).max(initial=0.0), 1.0)
    if np.all(err <= noise_floor * scale):
        return RateFit(slope=0.0, intercept=-math.inf,
                       converged_below_noise=True, residuals=err)
    err = np.maximum(err, noise_floor * scale)
    slope, intercept = np.polyfit(np.log(k_values), np.log(err), 1)
    return RateFit(slope=float(slope), intercept=float(intercept),
                   converged_below_noise=False, residuals=err)
