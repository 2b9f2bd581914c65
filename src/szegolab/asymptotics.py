"""Closed-form spectral predictions.

The Szego functional, the Mellin-log averaging operator O_{-alpha}, the
limiting eigenvalue density, Weyl interval counts, Schatten and entropy
limits, and the general moment asymptotics with the pointwise Hessian
factor Delta_n.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
from scipy.special import gamma as gamma_fn
from scipy.special import roots_genlaguerre

from .manifold import (
    ChartedSubmanifold,
    Classification,
    Quadrature,
    amp_values,
    classify,
    d_prime,
    delta_n_at,
)
from .spectral import TestFunction

__all__ = [
    "SzegoPrediction",
    "szego_scaling",
    "mellin_log",
    "szego_functional",
    "limiting_density",
    "weyl_prediction",
    "moment_prediction",
    "schatten_prediction",
    "entropy_prediction",
]

_LAGUERRE_NODES = 64


@dataclass(frozen=True)
class SzegoPrediction:
    value: float
    d_prime: int
    manifold_dim: int


def szego_scaling(k: float, d: int, dp: int) -> float:
    """Factor 2^{d'/2} (pi/k)^{d/2} applied to Tr phi(S) before the limit."""
    return 2.0 ** (0.5 * dp) * (math.pi / k) ** (0.5 * d)


def mellin_log(phi: TestFunction, alpha: float, t):
    """O_{-alpha}(phi)(t) = (1/Gamma(alpha)) int_0^t phi(s) log(t/s)^{alpha-1} ds/s.

    After x = log(t/s) this is int_0^inf phi(t e^{-x}) x^{alpha-1} dx / Gamma(alpha),
    evaluated with generalized Gauss-Laguerre nodes.  alpha = 0 is the identity.
    t may be a scalar or an array; entries with t = 0 give 0 (phi(0) = 0).
    """
    if alpha < 0:
        raise ValueError("alpha must be non-negative")
    if phi.p <= 0:
        raise ValueError("test function exponent must be positive")
    t_arr = np.atleast_1d(np.asarray(t, dtype=float))
    if alpha == 0:
        out = np.where(t_arr > 0, phi(t_arr), 0.0)
        return float(out[0]) if np.isscalar(t) else out
    x, w = roots_genlaguerre(_LAGUERRE_NODES, alpha - 1.0)
    # the Laguerre weight x^{alpha-1} e^{-x} is in w; reinstate e^{x}
    wexp = w * np.exp(x)
    out = np.zeros_like(t_arr)
    pos = t_arr > 0
    if np.any(pos):
        s = t_arr[pos, None] * np.exp(-x)[None, :]
        out[pos] = (phi(s) @ wexp) / gamma_fn(alpha)
    return float(out[0]) if np.isscalar(t) else out


def _szego_dim(sub: ChartedSubmanifold, cls: Optional[Classification]
               ) -> tuple[Classification, int]:
    """(classification, d') of an isotropic or coisotropic manifold."""
    cls = cls or classify(sub)
    if cls.tag not in ("isotropic", "lagrangian", "coisotropic"):
        raise ValueError(f"Szego-type predictions need isotropic or coisotropic "
                         f"geometry, got {cls.tag}")
    return cls, d_prime(cls)


def _real_values(a, block) -> np.ndarray:
    """a at the block's nodes; the Szego-type limits need a self-adjoint T_a."""
    av = amp_values(a, block)
    if np.iscomplexobj(av) and np.any(av.imag != 0):
        raise ValueError("Szego-type predictions need a real amplitude")
    return av.real


def szego_functional(sub: ChartedSubmanifold, a, phi: TestFunction,
                     quad: Quadrature,
                     cls: Optional[Classification] = None) -> SzegoPrediction:
    """F(phi) = integral over Gamma of O_{-d'/2}(phi)(a(w)) dsigma."""
    _, dp = _szego_dim(sub, cls)
    total = 0.0
    for block in quad.blocks:
        av = _real_values(a, block)
        total += float(np.sum(block.weights * mellin_log(phi, 0.5 * dp, av)))
    return SzegoPrediction(value=total, d_prime=dp, manifold_dim=sub.dim)


def limiting_density(sub: ChartedSubmanifold, a, s: float, quad: Quadrature,
                     cls: Optional[Classification] = None) -> float:
    """Density D_a(s) = (1/(Gamma(d'/2) s)) int_{a >= s} log(a/s)^{d'/2-1} dsigma."""
    if s <= 0:
        raise ValueError("s must be positive")
    _, dp = _szego_dim(sub, cls)
    if dp <= 0:
        raise ValueError("the limiting density needs d' > 0")
    expo = 0.5 * dp - 1.0
    total = 0.0
    for block in quad.blocks:
        av = _real_values(a, block)
        mask = av >= s - 1e-12
        if not np.any(mask):
            continue
        logs = np.log(np.maximum(av[mask] / s, 1.0))
        if expo < 0:
            # integrable endpoint singularity; keep boundary nodes finite
            logs = np.maximum(logs, 1e-15)
        total += float(np.sum(block.weights[mask] * logs ** expo))
    return total / (gamma_fn(0.5 * dp) * s)


def weyl_prediction(area: float, dp: int, interval) -> float:
    """Limit of the scaled eigenvalue count in [lo, hi] subset of (0, 1] for
    a constant unit amplitude: |Gamma|/Gamma(1+d'/2) *
    [(-log lo)^{d'/2} - (-log hi)^{d'/2}]."""
    lo, hi = interval
    if not 0 < lo <= hi <= 1:
        raise ValueError("interval must satisfy 0 < lo <= hi <= 1")
    half = 0.5 * dp
    return area / gamma_fn(1.0 + half) * ((-math.log(lo)) ** half
                                          - (-math.log(hi)) ** half)


def moment_prediction(sub: ChartedSubmanifold, amplitudes: Sequence, n: int,
                      quad: Quadrature, k: float) -> float:
    """Leading term of Tr(T_{a_1} ... T_{a_n}) with pointwise Delta_n:

    [2^{d/2} (k/pi)^{N-d/2}]^n (k/2pi)^{d/2} int Delta_n(w)^{-1} prod a_j dsigma.
    """
    if len(amplitudes) != n:
        raise ValueError("need one amplitude per factor")
    d, N = sub.dim, sub.ambient_dim
    total = 0.0
    for block in quad.blocks:
        prod = np.ones(block.size, dtype=complex)
        for a in amplitudes:
            prod = prod * amp_values(a, block)
        deltas = delta_n_at(block.chart, block.nodes, n)
        total += float(np.sum(block.weights * (prod / deltas)).real)
    prefactor = (2.0 ** (0.5 * d) * (k / math.pi) ** (N - 0.5 * d)) ** n \
        * (k / (2.0 * math.pi)) ** (0.5 * d)
    return prefactor * total


def schatten_prediction(sub: ChartedSubmanifold, a, p: float, quad: Quadrature,
                        cls: Optional[Classification] = None) -> float:
    """Limit of the scaled Schatten sum: int |a|^p / p^{d'/2} dsigma."""
    if p <= 0:
        raise ValueError("p must be positive")
    _, dp = _szego_dim(sub, cls)
    total = 0.0
    for block in quad.blocks:
        av = np.abs(amp_values(a, block))
        total += float(np.sum(block.weights * av ** p))
    return total / p ** (0.5 * dp)


def entropy_prediction(sub: ChartedSubmanifold, a, quad: Quadrature,
                       cls: Optional[Classification] = None
                       ) -> tuple[float, float]:
    """Limit of H(rho_a) + log(C_d k^{-d/2}); returns (value, C_d).

    The amplitude must be a probability density on Gamma.  The value is
    -F(s log s) with F the Szego functional.
    """
    cls, dp = _szego_dim(sub, cls)
    if dp <= 0:
        raise ValueError("the entropy limit needs d' > 0")
    mass = 0.0
    for block in quad.blocks:
        av = _real_values(a, block)
        if np.any(av < -1e-12):
            raise ValueError("amplitude must be non-negative")
        mass += float(np.sum(block.weights * av))
    if abs(mass - 1.0) > 1e-8:
        raise ValueError(f"amplitude integrates to {mass}, not 1")
    from .spectral import entropy_function

    pred = szego_functional(sub, a, entropy_function(), quad, cls=cls)
    C_d = 2.0 ** (0.5 * dp) * math.pi ** (0.5 * sub.dim)
    return -pred.value, C_d
