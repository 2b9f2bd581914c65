"""Closed-form spectral predictions.

The Szego factors (s of S = s T and the normalization of Tr phi(S)),
the Szego functional F(phi) with the Mellin-log averaging operator
O_{-alpha} (a test function's closed form of it where there is one),
the limiting eigenvalue density, the Weyl, Schatten and entropy limits
as F of an indicator, of s^p and of s log s, and the general moment
asymptotics with the pointwise Hessian factor Delta_n.
"""

from __future__ import annotations

import functools
import math
from typing import Sequence

import numpy as np

from .manifold import (ChartedSubmanifold, Quadrature, amp_values, d_prime,
                       delta_n)
from .spectral import (
    TestFunction,
    _bevd,
    entropy_function,
    indicator_function,
    power_function,
)

__all__ = [
    "s_factor",
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


def s_factor(k: float, N: int, d: int, d_prime: int) -> float:
    """Factor 2^{-d'/2} (pi/k)^{N - d/2} taking T to S = s T.

    S is only ever read through its spectrum: callers multiply the
    eigenvalues or singular values of T by s, never the operator.
    """
    return 2.0 ** (-0.5 * d_prime) * (math.pi / k) ** (N - 0.5 * d)


def szego_scaling(k: float, d: int, dp: int) -> float:
    """Factor 2^{d'/2} (pi/k)^{d/2} applied to Tr phi(S) before the limit."""
    return 2.0 ** (0.5 * dp) * (math.pi / k) ** (0.5 * d)


def _laguerre_ratios(n: int, a: float, x: np.ndarray) -> np.ndarray:
    """L_n^a(x) / binom(n + a, n), by the recurrence scipy's
    `eval_genlaguerre` runs before it multiplies by the binomial."""
    if n == 0:
        return np.ones_like(x)
    d = -x / (a + 1.0)
    p = d + 1.0
    for k in range(1, n):
        d = -x / (k + a + 1.0) * p + (k / (k + a + 1.0)) * d
        p = d + p
    return p


def _gauss_laguerre(n: int, a: float) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the n-point Gauss rule for the weight
    x^a e^{-x} on (0, inf), a > -1, built as scipy's `roots_genlaguerre`
    builds them: the eigenvalues of the Jacobi matrix (Golub and Welsch
    1969), one Newton step on L_n^a, and weights 1 / (L_{n-1}^a(x)
    L_n^a'(x)) log-normalized and scaled to sum to Gamma(a + 1).  The
    binomial factors of L_n^a and L_{n-1}^a are constant over the nodes,
    so they cancel in the Newton step and in the scaling and are left
    out.  Weights from the eigenvectors instead read `mellin_identity`
    at 1.3e-4."""
    mu0 = math.gamma(a + 1.0)
    if n == 1:
        return np.array([a + 1.0]), np.array([mu0])
    k = np.arange(n, dtype=float)
    jacobi = np.zeros((2, n))  # upper band form
    jacobi[0, 1:] = -np.sqrt(k[1:] * (k[1:] + a))
    jacobi[1] = 2.0 * k + a + 1.0
    x = _bevd(jacobi, lower=False)
    # with P_m = L_m^a / binom(m + a, m), L_n^a'(x) / (n binom(n + a, n))
    # is (P_n - P_{n-1}) / x; like scipy, the weights keep it at the
    # nodes before the Newton step
    p = _laguerre_ratios(n, a, x)
    dy = (p - _laguerre_ratios(n - 1, a, x)) / x
    x -= p / (n * dy)
    fm = _laguerre_ratios(n - 1, a, x)
    for v in (fm, dy):
        logs = np.log(np.abs(v))
        v /= np.exp((logs.max() + logs.min()) / 2.0)
    w = 1.0 / (fm * dy)
    return x, w * (mu0 / w.sum())


@functools.cache
def _laguerre_rule(alpha: float) -> tuple[np.ndarray, np.ndarray]:
    """Generalized Gauss-Laguerre rule of `mellin_log` for one alpha, as
    (e^{-x}, w e^{x}) at the nodes x; read-only, since calls share it."""
    x, w = _gauss_laguerre(_LAGUERRE_NODES, alpha - 1.0)
    # the Laguerre weight x^{alpha-1} e^{-x} is in w; reinstate e^{x}
    rule = np.exp(-x), w * np.exp(x)
    for a in rule:
        a.flags.writeable = False
    return rule


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
    decay, wexp = _laguerre_rule(alpha)
    out = np.zeros_like(t_arr)
    pos = t_arr > 0
    if np.any(pos):
        s = t_arr[pos, None] * decay[None, :]
        out[pos] = (phi(s) @ wexp) / math.gamma(alpha)
    return float(out[0]) if np.isscalar(t) else out


def _real_values(a, quad: Quadrature) -> np.ndarray:
    """a at the nodes; the Szego-type limits need a self-adjoint T_a."""
    av = amp_values(a, quad)
    if np.iscomplexobj(av) and np.any(av.imag != 0):
        raise ValueError("Szego-type predictions need a real amplitude")
    return av.real


def _functional(values: np.ndarray, weights, phi: TestFunction,
                dp: int) -> float:
    """sum of weights * O_{-d'/2}(phi)(values), by phi's closed form of O
    where it has one, else by `mellin_log`; O(phi) is 0 at values <= 0."""
    alpha = 0.5 * dp
    if phi.mellin is None or alpha == 0:
        return float(np.sum(weights * mellin_log(phi, alpha, values)))
    averaged = np.zeros_like(values)
    pos = values > 0
    averaged[pos] = phi.mellin(values[pos], alpha)
    return float(np.sum(weights * averaged))


def szego_functional(a, phi: TestFunction, quad: Quadrature) -> float:
    """F(phi) = integral over Gamma of O_{-d'/2}(phi)(a(w)) dsigma."""
    dp = d_prime(quad.classification)
    return _functional(_real_values(a, quad), quad.weights, phi, dp)


def limiting_density(a, s: float, quad: Quadrature) -> float:
    """Density D_a(s) = (1/(Gamma(d'/2) s)) int_{a >= s} log(a/s)^{d'/2-1} dsigma."""
    if s <= 0:
        raise ValueError("s must be positive")
    dp = d_prime(quad.classification)
    if dp <= 0:
        raise ValueError("the limiting density needs d' > 0")
    expo = 0.5 * dp - 1.0
    av = _real_values(a, quad)
    mask = av >= s - 1e-12
    logs = np.log(np.maximum(av[mask] / s, 1.0))
    if expo < 0:
        # integrable endpoint singularity; keep boundary nodes finite
        logs = np.maximum(logs, 1e-15)
    total = float(np.sum(quad.weights[mask] * logs ** expo))
    return total / (math.gamma(0.5 * dp) * s)


def weyl_prediction(area: float, dp: int, interval) -> float:
    """Limit of the scaled eigenvalue count in [lo, hi] subset of (0, 1] for
    a constant unit amplitude: |Gamma| O_{-d'/2}(1_[lo, hi])(1)."""
    lo, hi = interval
    if not 0 < lo <= hi <= 1:
        raise ValueError("interval must satisfy 0 < lo <= hi <= 1")
    return _functional(np.ones(1), area, indicator_function(lo, hi), dp)


def moment_prediction(sub: ChartedSubmanifold, amplitudes: Sequence, n: int,
                      quad: Quadrature, k: float) -> float:
    """Leading term of Tr(T_{a_1} ... T_{a_n}) with pointwise Delta_n:

    [2^{d/2} (k/pi)^{N-d/2}]^n (k/2pi)^{d/2} int Delta_n(w)^{-1} prod a_j dsigma.

    Delta_n is read from `quad.frame`, the geometry frame the quadrature
    keeps after first use, so a sweep over k computes it once.
    """
    if len(amplitudes) != n:
        raise ValueError("need one amplitude per factor")
    d, N = sub.dim, sub.ambient_dim
    prod = np.ones(quad.size, dtype=complex)
    for a in amplitudes:
        prod = prod * amp_values(a, quad)
    deltas = delta_n(quad.frame, n)
    total = float(np.sum(quad.weights * (prod / deltas)).real)
    prefactor = (2.0 ** (0.5 * d) * (k / math.pi) ** (N - 0.5 * d)) ** n \
        * (k / (2.0 * math.pi)) ** (0.5 * d)
    return prefactor * total


def schatten_prediction(a, p: float, quad: Quadrature) -> float:
    """Limit of the scaled Schatten sum: F(s^p) on |a|, which is
    int |a|^p / p^{d'/2} dsigma."""
    if p <= 0:
        raise ValueError("p must be positive")
    dp = d_prime(quad.classification)
    return _functional(np.abs(amp_values(a, quad)), quad.weights,
                       power_function(p), dp)


def entropy_prediction(a, quad: Quadrature) -> float:
    """Limit of H(rho_a) + log(szego_scaling(k, d, d')): -F(s log s).

    The amplitude must be a probability density on Gamma.
    """
    dp = d_prime(quad.classification)
    if dp <= 0:
        raise ValueError("the entropy limit needs d' > 0")
    av = _real_values(a, quad)
    if np.any(av < -1e-12):
        raise ValueError("amplitude must be non-negative")
    mass = float(np.sum(quad.weights * av))
    if abs(mass - 1.0) > 1e-8:
        raise ValueError(f"amplitude integrates to {mass}, not 1")
    return -_functional(av, quad.weights, entropy_function(), dp)
