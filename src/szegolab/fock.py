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
multiplies instead of one complex exponential.  The split is exact:
the log of the norm is the sum over coordinates of the per-coordinate
log(pi n_j! / k^{n_j + 1}) / 2, which the tables fold in.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = [
    "FockTruncation",
    "eval_basis_matrix",
]


def _graded_lex_exponents(ambient_dim: int, max_degree: int) -> np.ndarray:
    """All multi-indices with |n| <= max_degree as rows, graded (degree
    ascending) then lexicographically descending within a degree."""
    E = np.arange(max_degree + 1, dtype=np.int64)[:, None]
    for _ in range(ambient_dim - 1):
        # each row n continues with every n_next in 0..max_degree - |n|
        count = max_degree + 1 - E.sum(axis=1)
        start = np.cumsum(count) - count
        rows = np.repeat(E, count, axis=0)
        nxt = np.arange(rows.shape[0]) - np.repeat(start, count)
        E = np.column_stack([rows, nxt])
    # np.lexsort sorts by its last key first
    return E[np.lexsort((*(-E.T[::-1]), E.sum(axis=1)))]


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
        """Basis exponents as tuples, in the rows' order of exponent_matrix."""
        return tuple(map(tuple, self.exponent_matrix.tolist()))

    @property
    def dim(self) -> int:
        return self.exponent_matrix.shape[0]

    @cached_property
    def exponent_matrix(self) -> np.ndarray:
        """(dim, N) integer array of basis exponents, graded-lex order."""
        return _graded_lex_exponents(self.ambient_dim, self.max_degree)

    @cached_property
    def _half_lgamma(self) -> np.ndarray:
        """lgamma(m + 1) / 2 for m = 0..M."""
        return 0.5 * np.array([math.lgamma(m + 1.0)
                               for m in range(self.max_degree + 1)])


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
