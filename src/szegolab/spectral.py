"""Eigendecomposition and spectral functionals.

Everything downstream of assembly reads spectra through SpectralSummary:
traces of test functions, interval counts, Schatten sums, entropy, and the
log-log rate regressions used to check O(1/k) claims.

Eigenvalues and singular values are computed block by block from the
operator's `BlockLayout`: 1x1 blocks are their own spectrum, the
tridiagonal blocks go to one dstevd call (the couplings between blocks
are exact zeros, where it splits), wider Hermitian bands to dsbevd or
zhbevd, and dense blocks to LAPACK's dense solvers.  A
non-Hermitian banded block B, with l diagonals below the main one and u
above, is reduced to an upper bidiagonal matrix with the same singular
values by orthogonal transformations on its band (Golub and Kahan 1965),
in LAPACK's ?gbbrd, which never forms B^H B, a dilation or a dense copy;
dbdsqr then gives the singular values of the bidiagonal to high
relative accuracy.  On the Schatten check's complex circle operators
sum sigma^2 meets ||T||_F^2 to 1e-15 relative, as the dense SVD does.

Binding: every band routine comes from `_blas.routine`, bound on first
use from numpy's own OpenBLAS (scipy's cython_lapack capsules only where
no mapped OpenBLAS exports it), so no scipy module is imported.  The
routines are the ones scipy's `eig_banded` and `eigvalsh_tridiagonal`
call, with their workspace sizes, and give the same bits; non-finite
input raises ValueError, as their `check_finite` did, and a nonzero
info raises RuntimeError.

Threads: `eigensolve`, `singular_values` and `schatten_sum` run on one
BLAS thread, band solvers and small dense blocks alike; a dense block of
at least `_blas.SOLVE_ROWS` = 480 rows gets the thread count the caller
had, where two threads pay end to end (`_blas` module notes, with the
1- and 2-thread timings).

Every solver follows the dtype of the blocks.  An operator that a
diagonal phase makes real (the gauge, `assembly` module notes) stores
T = G B G^H with B real and G = diag(g) unitary; T and B share their
eigenvalues and singular values, so its blocks go to dsyevd, dgesdd,
dsbevd and dgbbrd, and the phases are never read.  Complex blocks take
zheevd, zgesdd, zhbevd and zgbbrd.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from ._blas import SOLVE_ROWS, routine, single_threaded, threaded
from .assembly import HermitianOperator

__all__ = [
    "SpectralSummary",
    "TestFunction",
    "RateFit",
    "eigensolve",
    "trace_phi",
    "weyl_count",
    "singular_values",
    "schatten_sum",
    "entropy",
    "rate_regression",
    "power_function",
    "entropy_function",
    "indicator_function",
    "trapezoid_function",
]

_CLAMP = 1e-10  # negative round-off below this fraction of max is zeroed
NOISE_FLOOR = 1e-13  # rate_regression: relative error counted as converged


@dataclass(frozen=True)
class SpectralSummary:
    """Eigenvalues sorted descending."""

    eigenvalues: np.ndarray

    @property
    def max(self) -> float:
        return float(self.eigenvalues[0])


@dataclass(frozen=True)
class TestFunction:
    """phi on [0, R] with a declared exponent p such that phi(s)/s^p is
    bounded near 0; phi(0) = 0.  `mellin` is the closed form
    (t, alpha) -> O_{-alpha}(phi)(t) of `asymptotics.mellin_log` for t > 0
    and alpha > 0, if phi has one."""

    fn: Callable[[np.ndarray], np.ndarray]
    p: float
    name: str = "phi"
    mellin: Optional[Callable[[np.ndarray, float], np.ndarray]] = None
    continuous: bool = True  # False for a jump, whose counts jitter

    def __call__(self, s):
        return self.fn(np.asarray(s, dtype=float))


def power_function(n: float) -> TestFunction:
    return TestFunction(fn=lambda s: s ** n, p=float(n), name=f"power:{n}",
                        mellin=lambda t, alpha: t ** n / n ** alpha)


def entropy_function() -> TestFunction:
    def slogs(s):
        out = np.zeros_like(s)
        mask = s > 0
        out[mask] = s[mask] * np.log(s[mask])
        return out

    return TestFunction(fn=slogs, p=0.5, name="entropy",
                        mellin=lambda t, alpha: t * np.log(t) - alpha * t)


def _ramp(t, a: float, b: float, alpha: float):
    """O_{-alpha} of the ramp clip((s - a)/(b - a), 0, 1), a step at a when
    a = b.  With x_c = log+(t/c) the ramp at s = t e^{-x} is 1 for x < x_b
    and (t e^{-x} - a)/(b - a) on [x_b, x_a], which gives x_b^alpha /
    Gamma(1 + alpha) + [t (P(alpha, x_a) - P(alpha, x_b)) - a (x_a^alpha -
    x_b^alpha) / Gamma(1 + alpha)] / (b - a), P the regularized lower
    incomplete gamma function."""
    # imported here: scipy.special loads scipy's own OpenBLAS and adds
    # about 0.2 s to importing this module
    from scipy.special import gammainc

    x_a, x_b = (np.maximum(np.log(t / c), 0.0) for c in (a, b))
    g = math.gamma(1.0 + alpha)
    if a == b:
        return x_b ** alpha / g
    P_a, P_b = gammainc(alpha, x_a), gammainc(alpha, x_b)
    return x_b ** alpha / g + (t * (P_a - P_b)
                               - a * (x_a ** alpha - x_b ** alpha) / g) / (b - a)


def indicator_function(lo: float, hi: float) -> TestFunction:
    """1 on [lo, hi]; O_{-alpha} of it is
    (log+(t/lo)^alpha - log+(t/hi)^alpha) / Gamma(1 + alpha)."""
    if not 0 < lo <= hi:
        raise ValueError("interval must satisfy 0 < lo <= hi")
    return TestFunction(
        fn=lambda s: ((s >= lo) & (s <= hi)).astype(float), p=1.0,
        name=f"indicator:{lo},{hi}", continuous=False,
        mellin=lambda t, alpha: (np.maximum(np.log(t / lo), 0.0) ** alpha
                                 - np.maximum(np.log(t / hi), 0.0) ** alpha)
        / math.gamma(1.0 + alpha))


def trapezoid_function(l1: float, l2: float, m1: float, m2: float) -> TestFunction:
    """Piecewise-linear plateau: 0 before l1, 1 on [l2, m1], 0 after m2.
    It is the ramp up from l1 to l2 less the ramp up from m1 to m2, and so
    is O_{-alpha} of it (`_ramp`)."""
    if not 0 < l1 <= l2 <= m1 <= m2:
        raise ValueError("need 0 < l1 <= l2 <= m1 <= m2")

    def fn(s):
        up = np.clip((s - l1) / max(l2 - l1, 1e-300), 0.0, 1.0)
        down = np.clip((m2 - s) / max(m2 - m1, 1e-300), 0.0, 1.0)
        return np.minimum(up, down)

    return TestFunction(fn=fn, p=1.0, name=f"trapezoid:{l1},{l2},{m1},{m2}",
                        mellin=lambda t, alpha: _ramp(t, l1, l2, alpha)
                        - _ramp(t, m1, m2, alpha))


def _clamped(eigs: np.ndarray) -> np.ndarray:
    top = float(eigs.max(initial=0.0))
    out = eigs.copy()
    if top > 0:
        out[(out < 0) & (out >= -_CLAMP * top)] = 0.0
    return out


def _band_copy(ab: np.ndarray, dtype) -> np.ndarray:
    """ab as a Fortran-ordered copy for LAPACK to overwrite; raises
    ValueError on a non-finite entry, as scipy's `check_finite` did."""
    band = np.array(ab, dtype=dtype, order="F")
    if not np.isfinite(band).all():
        raise ValueError("array must not contain infs or NaNs")
    return band


def _bevd(ab: np.ndarray, lower: bool = True) -> np.ndarray:
    """Ascending eigenvalues of the Hermitian band matrix with band form
    ab, lower or upper, by ?sbevd or ?hbevd (what scipy's `eig_banded`
    calls)."""
    real = not np.iscomplexobj(ab)
    band = _band_copy(ab, np.float64 if real else np.complex128)
    n = band.shape[1]
    w, unused = np.empty(n), np.zeros(1, dtype=band.dtype)
    args = ("N", "L" if lower else "U", n, band.shape[0] - 1, band,
            band.shape[0], w, unused, 1)
    if real:
        routine("dsbevd")(*args, np.empty(max(2 * n, 1)), max(2 * n, 1), 0, 1)
    else:
        routine("zhbevd")(*args, np.empty(max(n, 1), dtype=complex),
                          max(n, 1), np.empty(max(n, 1)), max(n, 1), 0, 1)
    return w


def _band_eigvals(ab: np.ndarray) -> np.ndarray:
    """Eigenvalues of the Hermitian band matrix with lower band form ab."""
    if ab.shape[0] == 1:
        return ab[0].real.copy()
    if ab.shape[0] > 2:
        return _bevd(ab)
    # tridiagonal, by dstevd (what scipy's `eigvalsh_tridiagonal` calls):
    # a unitary diagonal similarity makes the off-diagonal |ab[1]|
    n = ab.shape[1]
    d = _band_copy(ab[0].real, np.float64)
    e = np.zeros(max(n - 1, 1))
    e[:n - 1] = np.abs(_band_copy(ab[1, :-1], ab.dtype))
    routine("dstevd")("N", n, d, e, np.zeros(1), 1, np.empty(1), 1, 0, 1)
    return d


def _runs(layout, merged: int):
    """(lo, hi, width) over the banded blocks, which come sorted by width.
    The blocks of each width up to `merged` form one run, which a band
    solver splits at the exact zeros between them; wider ones come one by
    one."""
    b, widths = layout.bounds, layout.widths
    edges = np.searchsorted(widths, np.arange(merged + 2)).tolist()
    for width in range(merged + 1):
        if edges[width + 1] > edges[width]:
            yield int(b[edges[width]]), int(b[edges[width + 1]]), width
    for i in range(edges[-1], widths.size):
        yield int(b[i]), int(b[i + 1]), int(widths[i])


def _descending(parts: list[np.ndarray]) -> np.ndarray:
    return np.sort(np.concatenate(parts + [np.zeros(0)]))[::-1].copy()


@single_threaded()
def eigensolve(op: HermitianOperator) -> SpectralSummary:
    """Full descending spectrum of a Hermitian operator, block by block."""
    if not op.hermitian:
        raise ValueError("eigensolve requires the Hermitian flag")
    layout = op.layout
    w = layout.half_width
    parts = [_band_eigvals(layout.band[w:w + width + 1, lo:hi])
             for lo, hi, width in _runs(layout, 1)]
    for _, _, D in layout.dense_blocks():
        with threaded(D.shape[0], SOLVE_ROWS):
            parts.append(np.linalg.eigvalsh(D))
    return SpectralSummary(_descending(parts))


def trace_phi(spec: SpectralSummary, phi: TestFunction) -> float:
    """Sum of phi over the spectrum; negative noise is clamped first."""
    eigs = _clamped(spec.eigenvalues)
    if eigs.min(initial=0.0) < 0:
        raise ValueError("negative eigenvalue beyond the clamping tolerance")
    return float(np.sum(phi(eigs)))


def weyl_count(spec: SpectralSummary, interval) -> int:
    """Number of eigenvalues in the closed interval [lo, hi], the trace of
    its indicator without clamping."""
    return int(np.sum(indicator_function(*interval)(spec.eigenvalues)))


def _band_extents(ab: np.ndarray) -> tuple[int, int]:
    """The outermost nonzero diagonals below and above the diagonal of
    the block with general band form ab."""
    w, n = ab.shape[0] // 2, ab.shape[1]
    reach = min(w, n - 1)  # the band of the whole layout may be wider
    lower = max((d for d in range(1, reach + 1) if ab[w + d, :n - d].any()),
                default=0)
    upper = max((u for u in range(1, reach + 1) if ab[w - u, u:].any()),
                default=0)
    return lower, upper


def _band_singular_values(ab: np.ndarray) -> np.ndarray:
    """Descending singular values of the block B with general band form
    ab (band[w + i - j, j] = B_ij), by ?gbbrd and dbdsqr."""
    w, n = ab.shape[0] // 2, ab.shape[1]
    lower, upper = _band_extents(ab)
    real = ab.dtype == np.float64
    # LAPACK's band storage, B_ij at row upper + i - j; ?gbbrd overwrites it
    band = _band_copy(ab[w - upper:w + lower + 1],
                      np.float64 if real else np.complex128)
    d, e = np.empty(n), np.empty(n)
    unused = np.zeros(1, dtype=band.dtype)  # Q, P^T, C and U, V^T
    args = ("N", n, n, 0, lower, upper, band, band.shape[0], d, e,
            unused, 1, unused, 1, unused, 1)
    if real:
        routine("dgbbrd")(*args, np.empty(2 * n))
    else:
        routine("zgbbrd")(*args, np.empty(n, dtype=complex), np.empty(n))
    # d and e are the real upper bidiagonal; its singular values overwrite d
    unused = np.zeros(1)
    routine("dbdsqr")("U", n, 0, 0, 0, d, e, unused, 1, unused, 1, unused,
                      1, np.empty(4 * n))
    return d


@single_threaded()
def singular_values(op: HermitianOperator) -> np.ndarray:
    """Descending singular values, block by block.

    They come from the blocks themselves, never from the eigenvalues of
    T^H T, which would square the condition number and lose the small
    singular values that dominate Schatten sums with p < 2.  Hermitian
    banded blocks give |eigenvalues|, non-Hermitian ones their
    bidiagonal form, dense blocks an SVD.
    """
    layout = op.layout
    w = layout.half_width
    if op.hermitian:
        parts = [np.abs(_band_eigvals(layout.band[w:w + width + 1, lo:hi]))
                 for lo, hi, width in _runs(layout, 1)]
    else:
        parts = [np.abs(layout.band[w, lo:hi]) if width == 0 else
                 _band_singular_values(layout.band[:, lo:hi])
                 for lo, hi, width in _runs(layout, 0)]
    for _, _, D in layout.dense_blocks():
        with threaded(D.shape[0], SOLVE_ROWS):
            parts.append(np.linalg.svd(D, compute_uv=False))
    return _descending(parts)


@single_threaded()
def schatten_sum(op: HermitianOperator, p):
    """Sum of singular values to the p-th power.

    p may be a number, giving a float, or a sequence, giving one sum per
    entry from a single SVD.
    """
    scalar = np.ndim(p) == 0
    ps = [p] if scalar else list(p)
    if any(q <= 0 for q in ps):
        raise ValueError("p must be positive")
    sv = singular_values(op)
    sums = [float(np.sum(sv ** q)) for q in ps]
    return sums[0] if scalar else sums


def entropy(spec: SpectralSummary) -> float:
    """Von Neumann entropy -sum p log p of a density-matrix spectrum."""
    eigs = _clamped(spec.eigenvalues)
    total = eigs.sum()
    if abs(total - 1.0) > 1e-6:
        raise ValueError(f"eigenvalues sum to {total}, not a density matrix")
    pos = eigs[eigs > 0]
    return float(-np.sum(pos * np.log(pos)))


@dataclass(frozen=True)
class RateFit:
    slope: float
    intercept: float
    converged_below_noise: bool
    residuals: np.ndarray


def rate_regression(k_values, values, target) -> RateFit:
    """Least-squares slope of log|value - target| against log k."""
    k_values = np.asarray(k_values, dtype=float)
    values = np.asarray(values, dtype=float)
    if k_values.size < 2 or np.unique(k_values).size < 2:
        raise ValueError("need at least two distinct sweep points")
    err = np.abs(values - target)
    scale = max(abs(target), np.abs(values).max(initial=0.0), 1.0)
    if np.all(err <= NOISE_FLOOR * scale):
        return RateFit(slope=0.0, intercept=-math.inf,
                       converged_below_noise=True, residuals=err)
    err = np.maximum(err, NOISE_FLOOR * scale)
    slope, intercept = np.polyfit(np.log(k_values), np.log(err), 1)
    return RateFit(slope=float(slope), intercept=float(intercept),
                   converged_below_noise=False, residuals=err)
