"""Bohr-Sommerfeld test states on Lagrangian submanifolds.

A phase theta on a chart with d(theta) equal to the pulled-back tautological
one-form eta (eta(v) at z is -Im(z . conj(v))), and e^{ik theta} single-valued
around every period, defines the state psi_k built by smearing coherent
states with e^{ik theta} alpha dsigma.  Its squared norm grows like
(2k/pi)^{N/2} times the L^2 mass of alpha, and its Rayleigh quotient is a
lower bound for the top eigenvalue of T_{a dsigma}.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .assembly import HermitianOperator
from .fock import FockTruncation, eval_basis_matrix
from .manifold import (Chart, ChartedSubmanifold, Quadrature, amp_values,
                       classify)
from .spectral import RateFit, rate_regression

__all__ = [
    "BohrSommerfeldData",
    "BSViolationError",
    "verify_bohr_sommerfeld",
    "build_test_state",
    "norm_asymptotics_check",
    "rayleigh_lower_bound",
    "circle_theta",
    "NormCheckReport",
]


class BSViolationError(ValueError):
    pass


@dataclass(frozen=True)
class BohrSommerfeldData:
    """Phase theta(t) and real amplitude alpha(t) on a single chart.

    theta maps (m, d) parameter arrays to (m,) phase values; it may jump by
    constants across the period as long as e^{ik theta} is single-valued.
    """

    theta: Callable[[np.ndarray], np.ndarray]
    alpha: object = None  # None (constant 1), scalar, or callable on nodes


def circle_theta(radius: float = 1.0) -> Callable[[np.ndarray], np.ndarray]:
    """Built-in primitive of eta on the circle |z| = r: theta(t) = r^2 t."""
    r2 = float(radius) ** 2
    return lambda t: r2 * np.atleast_2d(t)[:, 0]


def _theta_values(bs: BohrSommerfeldData, t: np.ndarray) -> np.ndarray:
    return np.asarray(bs.theta(np.atleast_2d(np.asarray(t, float)))).reshape(-1)


def verify_bohr_sommerfeld(chart: Chart, bs: BohrSommerfeldData, k: float,
                           samples: int = 7, grad_tol: float = 1e-6,
                           closure_tol: float = 1e-6) -> None:
    """Check d(theta) = iota^* eta and phase closure; raise on violation.

    The gradient check compares central finite differences of theta against
    eta(gamma(t))[gamma_j(t)] = -Im(gamma(t) . conj(gamma_j(t))) at an
    interior grid.  For each periodic axis, k times the phase increment over
    one period must be an integer multiple of 2 pi.
    """
    axes = []
    for (lo, hi), per in zip(chart.domain, chart.periodic):
        frac = (np.arange(samples) + 0.5) / samples
        axes.append(lo + (hi - lo) * frac)
    grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, chart.dim)
    z = chart.points(grid)
    J = np.asarray(chart.jacobian(grid), dtype=float)
    cols = J[:, 0::2, :] + 1j * J[:, 1::2, :]  # (m, N, d)
    h = 1e-5
    for j in range(chart.dim):
        step = np.zeros(chart.dim)
        step[j] = h
        dtheta = (_theta_values(bs, grid + step)
                  - _theta_values(bs, grid - step)) / (2.0 * h)
        eta_j = -np.imag(np.sum(z * cols[:, :, j].conj(), axis=1))
        worst = float(np.abs(dtheta - eta_j).max())
        if worst > grad_tol:
            raise BSViolationError(
                f"d(theta)/dt{j + 1} deviates from iota^* eta by {worst:.2e}")
    for j, per in enumerate(chart.periodic):
        if not per:
            continue
        lo, hi = chart.domain[j]
        base = grid[:1].copy()
        shifted = base.copy()
        shifted[0, j] += hi - lo
        dphase = k * float(_theta_values(bs, shifted)[0]
                           - _theta_values(bs, base)[0])
        frac = dphase / (2.0 * math.pi)
        if abs(frac - round(frac)) > closure_tol:
            raise BSViolationError(
                f"phase closure fails on axis {j + 1}: k*dtheta/2pi = {frac}")


def build_test_state(trunc: FockTruncation, sub: ChartedSubmanifold,
                     bs: BohrSommerfeldData, quad: Quadrature) -> np.ndarray:
    """Coefficients c_n = int conj(u_n(w)) e^{ik theta(w)} alpha(w) dsigma."""
    cls = classify(sub)
    if cls.tag != "lagrangian":
        raise ValueError(f"test states need a Lagrangian submanifold, got {cls.tag}")
    k = trunc.k
    for chart in sub.charts:
        verify_bohr_sommerfeld(chart, bs, k)
    coeffs = np.zeros(trunc.dim, dtype=complex)
    for block in quad.blocks:
        phases = np.exp(1j * k * _theta_values(bs, block.nodes))
        av = amp_values(bs.alpha, block)
        B = eval_basis_matrix(trunc, block.points)
        coeffs += B.conj().T @ (block.weights * phases * av)
    return coeffs


@dataclass(frozen=True)
class NormCheckReport:
    k_values: np.ndarray
    ratios: np.ndarray            # |psi_k|^2 / (2k/pi)^{N/2}
    target: float                 # integral of |alpha|^2 dsigma
    fit: RateFit

    @property
    def ok(self) -> bool:
        return self.fit.converged_below_noise or self.fit.slope <= -0.75


def norm_asymptotics_check(k_values, states, ambient_dim: int,
                           alpha_mass: float) -> NormCheckReport:
    """Verify |psi_k|^2 = (2k/pi)^{N/2} int |alpha|^2 dsigma + O(k^{N/2-1}).

    states: coefficient vectors matching k_values; alpha_mass is the
    quadrature value of int |alpha|^2 dsigma.
    """
    k_values = np.asarray(k_values, dtype=float)
    ratios = np.array([
        float(np.vdot(c, c).real) / (2.0 * k / math.pi) ** (0.5 * ambient_dim)
        for k, c in zip(k_values, states)
    ])
    fit = rate_regression(k_values, ratios, alpha_mass)
    return NormCheckReport(k_values=k_values, ratios=ratios,
                           target=alpha_mass, fit=fit)


def rayleigh_lower_bound(op: HermitianOperator, coeffs: np.ndarray) -> float:
    """<T psi, psi> / |psi|^2, a lower bound for the top eigenvalue."""
    norm2 = float(np.vdot(coeffs, coeffs).real)
    if norm2 <= 0:
        raise ValueError("zero test state")
    return float(np.vdot(coeffs, op.matrix @ coeffs).real) / norm2
