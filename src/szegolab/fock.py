"""Truncated weighted Bargmann space.

The space consists of functions f(z) e^{-k|z|^2/2} with f a polynomial of
total degree at most M on C^N.  The monomial basis is orthogonal for the
L^2(C^N, dL) inner product; everything here is evaluated through
log-magnitude + phase so that large k and large degrees never overflow.

Both the weight and the norm split over coordinates,
||z^n e^{-k|z|^2/2}|| = prod_j sqrt(pi n_j! / k^{n_j + 1}), so a normalized
basis function is a product of one-variable factors,
u_n(z) = prod_j phi_{n_j}(z_j) with
phi_m(zeta) = (sqrt(k) zeta)^m e^{-k|zeta|^2/2} sqrt(k / (pi m!)).
`eval_basis_matrix` builds, per coordinate, one table of phi_0..phi_M at
the points, in log form; |phi_m| <= sqrt(k / pi), so nothing overflows.
It then gathers the products: a basis value costs N-1 gathers and
multiplies instead of one complex exponential.  The split is exact,
since log_norms is itself a sum over coordinates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = [
    "FockTruncation",
    "basis_norm",
    "eval_basis",
    "eval_basis_matrix",
    "reproducing_kernel",
    "coherent_state_coeffs",
]


def _graded_lex_indices(ambient_dim: int, max_degree: int) -> list[tuple[int, ...]]:
    """All multi-indices with |n| <= max_degree, graded then lexicographic."""
    out: list[tuple[int, ...]] = []

    def compositions(total, parts):
        if parts == 1:
            yield (total,)
            return
        for first in range(total, -1, -1):
            for rest in compositions(total - first, parts - 1):
                yield (first,) + rest

    for degree in range(max_degree + 1):
        block = sorted(compositions(degree, ambient_dim), reverse=True)
        out.extend(block)
    return out


@dataclass(frozen=True)
class FockTruncation:
    """Truncation parameters: ambient dimension N, weight k, max degree M."""

    ambient_dim: int
    k: float
    max_degree: int

    def __post_init__(self):
        if self.ambient_dim < 1:
            raise ValueError("ambient_dim must be a positive integer")
        if self.k <= 0:
            raise ValueError("k must be positive")
        if self.max_degree < 0:
            raise ValueError("max_degree must be non-negative")

    @cached_property
    def basis(self) -> tuple[tuple[int, ...], ...]:
        return tuple(_graded_lex_indices(self.ambient_dim, self.max_degree))

    @cached_property
    def _index_map(self) -> dict[tuple[int, ...], int]:
        return {n: i for i, n in enumerate(self.basis)}

    @property
    def dim(self) -> int:
        return len(self.basis)

    def index_of(self, n) -> int:
        return self._index_map[tuple(n)]

    @cached_property
    def exponent_matrix(self) -> np.ndarray:
        """(dim, N) integer array of basis exponents, graded-lex order."""
        return np.array(self.basis, dtype=np.int64)

    @cached_property
    def _half_lgamma(self) -> np.ndarray:
        """lgamma(m + 1) / 2 for m = 0..M."""
        return 0.5 * np.array([math.lgamma(m + 1.0)
                               for m in range(self.max_degree + 1)])

    @cached_property
    def log_norms(self) -> np.ndarray:
        """log of ||z^n e^{-k|z|^2/2}|| for every basis element."""
        m = np.arange(self.max_degree + 1)
        per_coord = (self._half_lgamma
                     + 0.5 * (math.log(math.pi) - (m + 1) * math.log(self.k)))
        return per_coord[self.exponent_matrix].sum(axis=1)


def basis_norm(trunc: FockTruncation, n) -> float:
    """||z^n e^{-k|z|^2/2}|| = sqrt(pi^N n! / k^(|n|+N))."""
    if tuple(n) not in trunc._index_map:
        raise ValueError(f"multi-index {n} not in truncated basis")
    return math.exp(trunc.log_norms[trunc.index_of(n)])


def _as_points(z, ambient_dim: int) -> np.ndarray:
    pts = np.atleast_2d(np.asarray(z, dtype=complex))
    if pts.shape[1] != ambient_dim:
        raise ValueError(f"points must have {ambient_dim} complex coordinates")
    return pts


def _coordinate_tables(trunc: FockTruncation, pts: np.ndarray) -> list:
    """One (M+1, m) complex table of phi_0..phi_M per coordinate of pts."""
    k = trunc.k
    degrees = np.arange(trunc.max_degree + 1, dtype=float)
    # log|phi_n| = n log(sqrt(k)|zeta|) - k|zeta|^2/2 - lgamma(n+1)/2
    #              + log(k/pi)/2
    offset = 0.5 * math.log(k / math.pi) - trunc._half_lgamma
    tables = []
    for zeta in pts.T:
        rho = math.sqrt(k) * np.abs(zeta)
        zero = rho == 0
        table = np.empty((degrees.size, zeta.size), dtype=complex)
        np.multiply.outer(degrees, np.log(np.where(zero, 1.0, rho)),
                          out=table.real)
        table.real += offset[:, None]
        table.real -= 0.5 * rho * rho
        np.multiply.outer(degrees, np.angle(zeta), out=table.imag)
        np.exp(table, out=table)
        table[1:, zero] = 0.0  # zeta^n vanishes at zeta = 0 for n > 0
        tables.append(table)
    return tables


def eval_basis_matrix(trunc: FockTruncation, points) -> np.ndarray:
    """Values of all normalized basis elements at points.

    points: (m, N) complex.  Returns (m, dim) complex, the products
    prod_j phi_{n_j}(z_j) of per-coordinate tables (see the module notes).
    The array is in Fortran order: the values of one basis function at
    all points are contiguous.
    """
    pts = _as_points(points, trunc.ambient_dim)
    tables = _coordinate_tables(trunc, pts)
    E = trunc.exponent_matrix
    vals = tables[0] if len(tables) == 1 else tables[0][E[:, 0]]
    for j in range(1, len(tables)):
        vals *= tables[j][E[:, j]]
    return vals.T


def eval_basis(trunc: FockTruncation, n, z) -> complex:
    """Normalized basis element z^n e^{-k|z|^2/2} / norm evaluated at z."""
    idx = trunc.index_of(n)
    pts = _as_points(z, trunc.ambient_dim)
    return complex(eval_basis_matrix(trunc, pts)[0, idx])


def reproducing_kernel(trunc: FockTruncation, z, w) -> complex:
    """Kernel (k/pi)^N e^{k z.conj(w)} e^{-k|z|^2/2} e^{-k|w|^2/2}.

    The real part of the exponent is computed as -k|z-w|^2/2 in log form, so
    the value never overflows for large k|z||w|.
    """
    k, N = trunc.k, trunc.ambient_dim
    zv = np.asarray(z, dtype=complex).reshape(-1)
    wv = np.asarray(w, dtype=complex).reshape(-1)
    if zv.size != N or wv.size != N:
        raise ValueError("points must have N complex coordinates")
    inner = np.sum(zv * wv.conj())
    log_mag = N * math.log(k / math.pi) - 0.5 * k * float(
        np.sum(np.abs(zv - wv) ** 2)
    )
    return math.exp(log_mag) * np.exp(1j * k * inner.imag)


def coherent_state_coeffs(trunc: FockTruncation, w) -> np.ndarray:
    """Expansion coefficients of the coherent state e_w in the normalized basis.

    Since Pi_k(z, conj(w)) = sum_n u_n(z) conj(u_n(w)), the coefficient on
    u_n is conj(u_n(w)).
    """
    pts = _as_points(w, trunc.ambient_dim)
    return eval_basis_matrix(trunc, pts)[0].conj()
