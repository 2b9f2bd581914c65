"""Eigendecomposition and spectral functionals.

Everything downstream of assembly reads spectra through SpectralSummary:
traces of test functions, interval counts, Schatten sums, entropy, and the
log-log rate regressions used to check O(1/k) claims.

Eigenvalues and singular values are computed block by block from the
operator's `BlockLayout`: 1x1 blocks are their own spectrum, the
tridiagonal blocks go to one `eigvalsh_tridiagonal` call (the couplings
between blocks are exact zeros, where it splits), wider banded blocks to
`eig_banded`, and dense blocks to LAPACK's dense solvers.  A non-Hermitian
banded block B gives its singular values as the nonnegative eigenvalues of
the Hermitian dilation [[0, B], [B^H, 0]] with rows and columns
interleaved, itself banded; this does not square the condition number as
the eigenvalues of B^H B would.

Every solver follows the dtype of the blocks.  An operator that a
diagonal phase makes real (the gauge, `assembly` module notes) stores
T = G B G^H with B real and G = diag(g) unitary; T and B share their
eigenvalues and singular values, so its blocks go to dsyevd, dgesdd and a
real `eig_banded`, the dilation included, and the phases are never read.
Complex blocks take zheevd, zgesdd and the complex band solver as before.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .assembly import HermitianOperator, _dilation_width

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


def _band_eigvals(ab: np.ndarray) -> np.ndarray:
    """Eigenvalues of the Hermitian band matrix with lower band form ab."""
    if ab.shape[0] == 1:
        return ab[0].real.copy()
    from scipy.linalg import eig_banded, eigvalsh_tridiagonal
    if ab.shape[0] == 2:
        # a unitary diagonal similarity makes the off-diagonal |ab[1]|
        return eigvalsh_tridiagonal(ab[0].real, np.abs(ab[1, :-1]))
    return eig_banded(ab, lower=True, eigvals_only=True)


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


def eigensolve(op: HermitianOperator) -> SpectralSummary:
    """Full descending spectrum of a Hermitian operator, block by block."""
    if not op.hermitian:
        raise ValueError("eigensolve requires the Hermitian flag")
    layout = op.layout
    w = layout.half_width
    parts = [_band_eigvals(layout.band[w:w + width + 1, lo:hi])
             for lo, hi, width in _runs(layout, 1)]
    parts += [np.linalg.eigvalsh(D) for _, _, D in layout.dense_blocks()]
    return SpectralSummary(_descending(parts))


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


def _dilation_singular_values(ab: np.ndarray) -> np.ndarray:
    """Singular values of the block B with general band form ab, from its
    interleaved dilation (module notes)."""
    w, n = ab.shape[0] // 2, ab.shape[1]
    reach = min(w, n - 1)  # the band of the whole layout may be wider
    lower = max((d for d in range(1, reach + 1) if ab[w + d, :n - d].any()),
                default=0)
    upper = max((u for u in range(1, reach + 1) if ab[w - u, u:].any()),
                default=0)
    if upper > lower:  # B^H has the same singular values, a narrower band
        flipped = np.zeros_like(ab)
        for d in range(reach + 1):
            flipped[w + d, :n - d] = ab[w - d, d:].conj()
            flipped[w - d, d:] = ab[w + d, :n - d].conj()
        ab, lower, upper = flipped, upper, lower
    # B_ij sits at (2i, 2j + 1) of the dilation and conj(B_ij) at (2j + 1, 2i)
    width = int(_dilation_width(lower, upper))
    hb = np.zeros((width + 1, 2 * n), dtype=ab.dtype)
    for d in range(1, lower + 1):
        hb[2 * d - 1, 1:2 * (n - d):2] = ab[w + d, :n - d]
    for u in range(upper + 1):
        hb[2 * u + 1, 0:2 * (n - u):2] = ab[w - u, u:].conj()
    return np.abs(np.sort(_band_eigvals(hb))[n:])


def singular_values(op: HermitianOperator) -> np.ndarray:
    """Descending singular values, block by block.

    They come from the blocks themselves, never from the eigenvalues of
    T^H T, which would square the condition number and lose the small
    singular values that dominate Schatten sums with p < 2.  Hermitian
    banded blocks give |eigenvalues|, non-Hermitian ones their dilation,
    dense blocks an SVD.
    """
    layout = op.layout
    w = layout.half_width
    if op.hermitian:
        parts = [np.abs(_band_eigvals(layout.band[w:w + width + 1, lo:hi]))
                 for lo, hi, width in _runs(layout, 1)]
    else:
        parts = [np.abs(layout.band[w, lo:hi]) if width == 0 else
                 _dilation_singular_values(layout.band[:, lo:hi])
                 for lo, hi, width in _runs(layout, 0)]
    parts += [np.linalg.svd(D, compute_uv=False)
              for _, _, D in layout.dense_blocks()]
    return _descending(parts)


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
