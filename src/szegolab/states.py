"""Bohr-Sommerfeld test states on Lagrangian submanifolds.

A phase theta on the parameter box with d(theta) equal to the pulled-back tautological
one-form eta (eta(v) at z is -Im(z . conj(v))), and e^{ik theta} single-valued
around every period, defines the state psi_k built by smearing coherent
states with e^{ik theta} alpha dsigma.  Its squared norm grows like
(2k/pi)^{N/2} times the L^2 mass of alpha, and its Rayleigh quotient is a
lower bound for the top eigenvalue of T_{a dsigma}.

Test states by rotation sectors: the coefficients are
c_n = sum over nodes of conj(u_n) g, g = w e^{ik theta} alpha.  On a
quadrature grid whose periodic axes rotate the points (`assembly` module
notes, sector sum), u_n at rotation index phi is omega^{phi . q_n} U_n, with U_n its
value at the base point of the explicit node theta, so
    c_n = sum_theta conj(U_theta,n) FFT_phi(g)[theta, q_n],
one forward FFT over the rotation axes.  The basis is evaluated at the
base points only: on the circle at k=200 at one point instead of 1609
nodes, which drops the 1609 x 801 complex basis matrix and its conjugate
copy, and the Bohr-Sommerfeld check falls from about 0.1 s to 0.01 s.
The node ordering and the charges come from the helpers that assembly's
sector sum uses, the rotation axes from the quadrature and the base
points from its coordinates.  Grids without rotation axes, or with fewer
than 16 rotation nodes per explicit node, keep the node-by-node sum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .assembly import (HermitianOperator, _basis_charges, _by_sector,
                       _sector_axes)
from .fock import FockTruncation, eval_basis_matrix
from .manifold import (ChartedSubmanifold, Quadrature, amp_values,
                       chart_rows, real_to_complex)
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


BS_SAMPLES = 7  # nodes per axis of the gradient check's grid
BS_GRAD_TOL = 1e-6  # largest |d(theta) - iota^* eta| accepted
BS_CLOSURE_TOL = 1e-6  # largest distance of k dtheta / 2pi from an integer


class BSViolationError(ValueError):
    pass


@dataclass(frozen=True)
class BohrSommerfeldData:
    """Phase theta(t) and real amplitude alpha(t) on the parameter box.

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


def verify_bohr_sommerfeld(sub: ChartedSubmanifold, bs: BohrSommerfeldData,
                           k: float) -> None:
    """Check d(theta) = iota^* eta and phase closure; raise on violation.

    The gradient check compares central finite differences of theta against
    eta(gamma(t))[gamma_j(t)] = -Im(gamma(t) . conj(gamma_j(t))) at an
    interior grid.  For each periodic axis, k times the phase increment over
    one period must be an integer multiple of 2 pi.
    """
    frac = (np.arange(BS_SAMPLES) + 0.5) / BS_SAMPLES
    axes = [lo + (hi - lo) * frac for lo, hi in sub.domain]
    grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, sub.dim)
    z = real_to_complex(chart_rows(sub.gamma, grid))
    J = chart_rows(sub.jacobian, grid)
    cols = J[:, 0::2, :] + 1j * J[:, 1::2, :]  # (m, N, d)
    h = 1e-5
    for j in range(sub.dim):
        step = np.zeros(sub.dim)
        step[j] = h
        dtheta = (_theta_values(bs, grid + step)
                  - _theta_values(bs, grid - step)) / (2.0 * h)
        eta_j = -np.imag(np.sum(z * cols[:, :, j].conj(), axis=1))
        worst = float(np.abs(dtheta - eta_j).max())
        if worst > BS_GRAD_TOL:
            raise BSViolationError(
                f"d(theta)/dt{j + 1} deviates from iota^* eta by {worst:.2e}")
    for j, per in enumerate(sub.periodic):
        if not per:
            continue
        lo, hi = sub.domain[j]
        base = grid[:1].copy()
        shifted = base.copy()
        shifted[0, j] += hi - lo
        dphase = k * float(_theta_values(bs, shifted)[0]
                           - _theta_values(bs, base)[0])
        frac = dphase / (2.0 * math.pi)
        if abs(frac - round(frac)) > BS_CLOSURE_TOL:
            raise BSViolationError(
                f"phase closure fails on axis {j + 1}: k*dtheta/2pi = {frac}")


def build_test_state(trunc: FockTruncation, sub: ChartedSubmanifold,
                     bs: BohrSommerfeldData, quad: Quadrature) -> np.ndarray:
    """Coefficients c_n = int conj(u_n(w)) e^{ik theta(w)} alpha(w) dsigma."""
    cls = quad.classification
    if cls.tag != "lagrangian":
        raise ValueError(f"test states need a Lagrangian submanifold, got {cls.tag}")
    k = trunc.k
    verify_bohr_sommerfeld(sub, bs, k)
    phases = np.exp(1j * k * _theta_values(bs, quad.nodes))
    g = quad.weights * phases * amp_values(bs.alpha, quad)
    rotations = _sector_axes(quad)
    if rotations is None:
        return eval_basis_matrix(trunc, quad.points).conj().T @ g
    # c_n = sum_theta conj(U_theta,n) FFT_phi(g)[theta, q_n]
    axes, charges = rotations
    grid = _by_sector(g.reshape(quad.shape), axes)
    G = np.fft.fftn(grid, axes=tuple(range(1, grid.ndim)))
    G = G.reshape(grid.shape[0], -1)
    U = eval_basis_matrix(trunc, quad.base_points)
    q = _basis_charges(trunc, charges, grid.shape[1:])
    flat_q = np.ravel_multi_index(q.T, grid.shape[1:])
    return np.einsum("tn,tn->n", U.conj(), G[:, flat_q])


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
    return float(np.vdot(coeffs, op.layout.apply(coeffs)).real) / norm2
