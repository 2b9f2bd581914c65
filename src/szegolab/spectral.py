"""Eigendecomposition and spectral functionals.

Everything downstream of assembly reads spectra through SpectralSummary:
traces of test functions, interval counts, Schatten sums, entropy, and the
log-log rate regressions used to check O(1/k) claims.

Eigenvalues and singular values are computed block by block from the
operator's `BlockLayout`: 1x1 blocks are their own spectrum, the
tridiagonal blocks go to one `eigvalsh_tridiagonal` call (the couplings
between blocks are exact zeros, where it splits), wider Hermitian bands
to `eig_banded`, and dense blocks to LAPACK's dense solvers.  A
non-Hermitian banded block B, with l diagonals below the main one and u
above, is reduced to an upper bidiagonal matrix with the same singular
values by orthogonal transformations on its band (Golub and Kahan 1965),
in LAPACK's ?gbbrd, which never forms B^H B, a dilation or a dense copy;
dbdsqr then gives the singular values of the bidiagonal to high
relative accuracy.  Both are bound from the function capsules of
`scipy.linalg.cython_lapack` through ctypes on first use, after their C
signatures are checked against `_PROTOTYPES`.  On the Schatten check's
complex circle operators sum sigma^2 meets ||T||_F^2 to 1e-15 relative,
as the dense SVD does.

Threads: `eigensolve`, `singular_values` and `schatten_sum` run on one
BLAS thread, band solvers and small dense blocks alike; a dense block of
at least `_blas.SOLVE_ROWS` = 480 rows gets the thread count the caller
had, where two threads pay end to end (`_blas` module notes, with the
1- and 2-thread timings).

Every solver follows the dtype of the blocks.  An operator that a
diagonal phase makes real (the gauge, `assembly` module notes) stores
T = G B G^H with B real and G = diag(g) unitary; T and B share their
eigenvalues and singular values, so its blocks go to dsyevd, dgesdd, a
real `eig_banded` and dgbbrd, and the phases are never read.  Complex
blocks take zheevd, zgesdd, the complex band solver and zgbbrd.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ._blas import SOLVE_ROWS, single_threaded, threaded
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
    """Number of eigenvalues in the closed interval [lo, hi]."""
    lo, hi = interval
    if not 0 < lo <= hi:
        raise ValueError("interval must satisfy 0 < lo <= hi")
    eigs = spec.eigenvalues
    return int(np.count_nonzero((eigs >= lo) & (eigs <= hi)))


# the C arguments of each LAPACK routine bound from scipy's cython_lapack:
# c char *, i int *, d double *, z double complex *
_PROTOTYPES = {
    "dgbbrd": "c i i i i i d i d d d i d i d i d i",
    "zgbbrd": "c i i i i i z i d d z i z i z i z d i",
    "dbdsqr": "c i i i i d d d i d i d i d i",
}


def _kinds(signature: str) -> str:
    """The C signature of a cython_lapack capsule in `_PROTOTYPES` form;
    an argument of any other type is kept as written."""
    known = {"char *": "c", "int *": "i"}
    kinds = []
    for arg in signature[signature.index("(") + 1:-1].split(", "):
        if arg.endswith("_d *"):
            arg = "d"
        elif arg.endswith("double_complex *") or arg.endswith("_z *"):
            arg = "z"
        kinds.append(known.get(arg, arg))
    return " ".join(kinds)


def _capsule(name: str):
    """(C signature, function pointer) of a cython_lapack routine."""
    import ctypes

    from scipy.linalg import cython_lapack

    api = ctypes.pythonapi
    api.PyCapsule_GetName.restype = ctypes.c_char_p
    api.PyCapsule_GetName.argtypes = [ctypes.py_object]
    api.PyCapsule_GetPointer.restype = ctypes.c_void_p
    api.PyCapsule_GetPointer.argtypes = [ctypes.py_object, ctypes.c_char_p]
    capsule = cython_lapack.__pyx_capi__[name]
    signature = api.PyCapsule_GetName(capsule)
    return signature.decode(), api.PyCapsule_GetPointer(capsule, signature)


@functools.cache
def _lapack(name: str):
    """The routine as a ctypes function, built on first use; raises if
    scipy's C signature differs from `_PROTOTYPES`."""
    import ctypes

    signature, pointer = _capsule(name)
    if _kinds(signature) != _PROTOTYPES[name]:
        raise RuntimeError(f"scipy's {name} is {signature}, not "
                           f"{_PROTOTYPES[name]}")
    ctype = {"c": ctypes.c_char_p, "i": ctypes.POINTER(ctypes.c_int),
             "d": ctypes.c_void_p, "z": ctypes.c_void_p}
    proto = ctypes.CFUNCTYPE(None, *(ctype[k] for k in
                                     _PROTOTYPES[name].split()))
    return proto(pointer)


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
    import ctypes

    def ref(value):
        return ctypes.byref(ctypes.c_int(value))

    w, n = ab.shape[0] // 2, ab.shape[1]
    lower, upper = _band_extents(ab)
    real = ab.dtype == np.float64
    # LAPACK's band storage, B_ij at row upper + i - j; ?gbbrd overwrites it
    band = np.array(ab[w - upper:w + lower + 1],
                    dtype=np.float64 if real else complex, order="F")
    d, e = np.empty(n), np.empty(n)
    unused = np.zeros(1, dtype=band.dtype)  # Q, P^T, C and U, V^T
    rows, none, one, info = ref(n), ref(0), ref(1), ctypes.c_int(0)
    args = (b"N", rows, rows, none, ref(lower), ref(upper), band.ctypes.data,
            ref(band.shape[0]), d.ctypes.data, e.ctypes.data,
            unused.ctypes.data, one, unused.ctypes.data, one,
            unused.ctypes.data, one)
    if real:
        work = np.empty(2 * n)
        _lapack("dgbbrd")(*args, work.ctypes.data, ctypes.byref(info))
    else:
        work, rwork = np.empty(n, dtype=complex), np.empty(n)
        _lapack("zgbbrd")(*args, work.ctypes.data, rwork.ctypes.data,
                          ctypes.byref(info))
    if info.value:
        raise RuntimeError(f"?gbbrd failed with info {info.value}")
    # d and e are the real upper bidiagonal; its singular values overwrite d
    work = np.empty(4 * n)
    _lapack("dbdsqr")(b"U", rows, none, none, none, d.ctypes.data,
                      e.ctypes.data, unused.ctypes.data, one,
                      unused.ctypes.data, one, unused.ctypes.data, one,
                      work.ctypes.data, ctypes.byref(info))
    if info.value:
        raise RuntimeError(f"dbdsqr failed with info {info.value}")
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
