"""Dense matrix assembly for singular Berezin-Toeplitz operators.

T_{a dsigma} acts on the truncated Bargmann space; its matrix in the
normalized monomial basis is the Gram matrix of the basis functions
restricted to the submanifold and weighted by a dsigma.  Assembly is a
single quadrature pass, chunked over nodes so the working set stays near
a fixed memory budget.

With B the basis values at the nodes and w the quadrature weights, the
pass forms C = sqrt(w |a|) B.  A real amplitude gives
T = C+^H C+ - C-^H C-, split by the sign of w a, accumulated by BLAS
Hermitian rank-k updates (zherk) into one triangle; the other triangle is
filled by conjugation, so T == T^H holds exactly and half the flops of a
general product are spent.  A complex amplitude goes through zgemm with
the unit phase of w a on one factor.

Flush floor: before each update, real and imaginary parts of C below
tiny^(1/4) ~ 1.2e-77 are set to zero.  Every product of two kept parts is
then at least sqrt(tiny), so neither T nor the products formed inside the
eigensolver reach subnormal numbers, whose arithmetic runs several times
slower.  With C' the kept part and Delta C = C - C' the zeroed one,
||T - T'||_2 <= ||Delta C|| (2 ||C'|| + ||Delta C||) in Frobenius norms,
where ||Delta C|| is bounded by sqrt(zeroed count) times the largest
zeroed part.  That bound is recorded as `HermitianOperator.flush_bound`;
by Weyl's inequality it bounds the shift of every eigenvalue of a
Hermitian T.  At circle k=400 it is about 1e-72.
"""

from __future__ import annotations

import math
import struct
import warnings
from dataclasses import dataclass, replace
from typing import Callable, Optional, Sequence

import numpy as np

from .fock import FockTruncation, eval_basis_matrix
from .manifold import ChartedSubmanifold, Quadrature, QuadratureBlock

__all__ = [
    "HermitianOperator",
    "TruncationWarning",
    "CostLimitError",
    "assemble_T",
    "scale_to_S",
    "covariant_symbol",
    "exact_trace",
    "pair_trace_integral",
    "nfold_trace_integral",
    "mixed_trace_polynomial_H",
    "assemble_polynomial_multiplier",
    "write_matrix",
    "read_matrix",
]

_CHUNK_BYTES = 64 << 20  # target working-set size for node chunks
_FLUSH = float(np.finfo(np.float64).tiny) ** 0.25  # see the module notes
_FILL_ROWS = 256  # row block for mirroring one triangle into the other


class TruncationWarning(UserWarning):
    pass


class CostLimitError(RuntimeError):
    pass


@dataclass(frozen=True)
class HermitianOperator:
    """Dense operator matrix tagged with its truncation and normalization."""

    matrix: np.ndarray
    trunc: FockTruncation
    normalization: str = "raw_T"  # raw_T | scaled_S
    scale_factor: float = 1.0
    hermitian: bool = True
    manifold_dim: Optional[int] = None
    d_prime: Optional[int] = None
    symbol_mass: Optional[complex] = None  # integral of a dsigma
    flush_bound: float = 0.0  # bound on ||T - T_unflushed||_2, module notes

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def trace(self) -> complex:
        t = complex(np.trace(self.matrix))
        return t.real if self.hermitian else t


def _amp_values(a, block: QuadratureBlock) -> np.ndarray:
    if a is None:
        return np.ones(block.size)
    if np.isscalar(a):
        return np.full(block.size, a)
    return np.asarray(a(block.nodes))


def _node_chunks(size: int, dim: int):
    rows = max(1, _CHUNK_BYTES // max(1, 16 * dim))
    for start in range(0, size, rows):
        yield start, min(size, start + rows)


def _flush(C: np.ndarray) -> tuple[float, float]:
    """Zero the parts of C below the flush floor, in place.

    Returns ||C'||_F^2 of the kept part and a bound on ||Delta C||_F^2,
    the count of zeroed parts times the square of the largest of them.
    """
    parts = C.T.view(np.float64).reshape(-1)  # C is in Fortran order
    small = np.flatnonzero((parts > -_FLUSH) & (parts < _FLUSH))
    dropped = np.abs(parts[small])
    parts[small] = 0.0
    return (float(np.vdot(parts, parts)),
            np.count_nonzero(dropped) * dropped.max(initial=0.0) ** 2)


def _mirror_lower(T: np.ndarray) -> None:
    """Set the strict upper triangle of T to the conjugate of the lower."""
    n = T.shape[0]
    for lo in range(0, n, _FILL_ROWS):
        hi = min(n, lo + _FILL_ROWS)
        T[lo:hi, hi:] = T[hi:, lo:hi].T.conj()
        diag = T[lo:hi, lo:hi]
        upper = np.triu_indices(hi - lo, 1)
        diag[upper] = diag.T[upper].conj()


def assemble_T(trunc: FockTruncation, sub: ChartedSubmanifold, a,
               quad: Quadrature) -> HermitianOperator:
    """Assemble T_{a dsigma} as a Gram matrix over the quadrature.

    a: None (constant 1), a scalar, or a callable on (m, d) chart nodes.
    Real amplitudes give an exactly Hermitian matrix; complex ones are
    assembled as-is with the hermitian flag cleared.
    """
    # scipy.linalg costs more to import than the whole package, so it is
    # loaded on first assembly rather than with the module
    from scipy.linalg.blas import zgemm, zherk

    dim = trunc.dim
    weighted = [block.weights * _amp_values(a, block) for block in quad.blocks]
    mass = complex(sum(np.sum(wa) for wa in weighted))
    is_real = not any(np.iscomplexobj(wa) and np.abs(wa.imag).max() > 0
                      for wa in weighted)
    # basis values come in Fortran order, so C and C^T pass to BLAS uncopied
    # and X accumulates in Fortran order: T^T for zgemm, the upper triangle
    # of T for zherk
    X = np.zeros((dim, dim), dtype=complex, order="F")
    norm2 = dropped2 = 0.0
    for block, wa in zip(quad.blocks, weighted):
        if is_real:
            wa = wa.real
            passes = ((1.0, np.flatnonzero(wa > 0)),
                      (-1.0, np.flatnonzero(wa < 0)))
        else:
            passes = ((1.0, np.flatnonzero(wa != 0)),)
        for alpha, rows in passes:
            for lo, hi in _node_chunks(rows.size, dim):
                chunk = rows[lo:hi]
                C = eval_basis_matrix(trunc, block.points[chunk])
                C *= np.sqrt(np.abs(wa[chunk]))[:, None]
                n2, d2 = _flush(C)
                norm2 += n2
                dropped2 += d2
                if is_real:
                    X = zherk(alpha, C, beta=1.0, c=X, trans=2,
                              overwrite_c=1)
                    continue
                # X += C^T (phase * conj C), with phase = wa / |wa|
                phased = C.conj()
                phased *= (wa[chunk] / np.abs(wa[chunk]))[:, None]
                X = zgemm(alpha, C, phased, beta=1.0, c=X, trans_a=1,
                          overwrite_c=1)
    T = X.T
    if is_real:
        # zherk filled the upper triangle of X, so the lower triangle of
        # its transpose holds conj(T): mirror it, then conjugate once
        _mirror_lower(T)
        np.conjugate(T, out=T)
    dC = math.sqrt(dropped2)
    op = HermitianOperator(matrix=T, trunc=trunc, normalization="raw_T",
                           hermitian=is_real, manifold_dim=sub.dim,
                           symbol_mass=mass,
                           flush_bound=dC * (2.0 * math.sqrt(norm2) + dC))
    _warn_if_truncated(op)
    return op


def _warn_if_truncated(op: HermitianOperator) -> None:
    trunc = op.trunc
    total = abs(np.trace(op.matrix))
    if total == 0:
        return
    degrees = trunc.exponent_matrix.sum(axis=1)
    boundary = degrees == trunc.max_degree
    share = float(np.abs(np.diag(op.matrix))[boundary].sum()) / total
    if share > 1e-8:
        warnings.warn(
            f"top-degree basis functions carry {share:.2e} of the trace; "
            f"increase max_degree beyond {trunc.max_degree}",
            TruncationWarning, stacklevel=3)


def scale_to_S(op: HermitianOperator, d_prime: int) -> HermitianOperator:
    """S = 2^{-d'/2} (pi/k)^{N - d/2} T."""
    if op.normalization != "raw_T":
        raise ValueError("operator is already scaled")
    if op.manifold_dim is None:
        raise ValueError("operator lacks the manifold dimension tag")
    k, N, d = op.trunc.k, op.trunc.ambient_dim, op.manifold_dim
    factor = 2.0 ** (-0.5 * d_prime) * (math.pi / k) ** (N - 0.5 * d)
    return replace(op, matrix=factor * op.matrix, normalization="scaled_S",
                   scale_factor=factor, d_prime=d_prime,
                   flush_bound=factor * op.flush_bound)


def covariant_symbol(trunc: FockTruncation, sub: ChartedSubmanifold, a,
                     quad: Quadrature, z) -> float:
    """(k/pi)^N integral of e^{-k|z-w|^2} a(w) dsigma(w)."""
    k, N = trunc.k, trunc.ambient_dim
    zv = np.asarray(z, dtype=complex).reshape(1, -1)
    total = 0.0
    for block in quad.blocks:
        av = _amp_values(a, block)
        d2 = np.sum(np.abs(block.points - zv) ** 2, axis=1)
        total += float(np.sum(block.weights * av * np.exp(-k * d2)))
    return (k / math.pi) ** N * total


def exact_trace(op: HermitianOperator) -> tuple[float, float, float]:
    """(matrix trace, prediction (k/pi)^N * integral a dsigma, relative gap)."""
    if op.normalization != "raw_T":
        raise ValueError("exact trace identity applies to the raw T operator")
    if op.symbol_mass is None:
        raise ValueError("operator lacks the recorded amplitude mass")
    k, N = op.trunc.k, op.trunc.ambient_dim
    observed = float(np.trace(op.matrix).real)
    predicted = (k / math.pi) ** N * op.symbol_mass.real
    gap = abs(observed - predicted) / max(abs(predicted), 1e-300)
    return observed, predicted, gap


def pair_trace_integral(sub: ChartedSubmanifold, a, b, quad: Quadrature,
                        k: float) -> float:
    """(k/pi)^{2N} double integral of e^{-k|z-w|^2} a(z) b(w) dsigma^2."""
    N = sub.ambient_dim
    pts = np.concatenate([blk.points for blk in quad.blocks])
    wa = np.concatenate([blk.weights * _amp_values(a, blk) for blk in quad.blocks])
    wb = np.concatenate([blk.weights * _amp_values(b, blk) for blk in quad.blocks])
    total = 0.0 + 0.0j
    for lo, hi in _node_chunks(pts.shape[0], pts.shape[0]):
        d2 = np.sum(np.abs(pts[lo:hi, None, :] - pts[None, :, :]) ** 2, axis=2)
        total += np.sum(wa[lo:hi, None] * wb[None, :] * np.exp(-k * d2))
    value = (k / math.pi) ** (2 * N) * total
    return float(value.real) if abs(value.imag) < 1e-10 * abs(value) else complex(value)


def nfold_trace_integral(sub: ChartedSubmanifold, amplitudes: Sequence, quad: Quadrature,
                         k: float, budget: float = 4e9) -> complex:
    """Direct quadrature of the cyclic trace integral for n factors.

    Tr(T_{a_1} ... T_{a_n}) = (k/pi)^{Nn} int_{Gamma^n} prod_j
    e^{-k|w_j - w_{j+1}|^2 / 2} e^{i k omega(w_j, w_{j+1})} a_j(w_j) dsigma^n,
    evaluated as a chain of node-coupling matrix products (identical sum,
    nodes^2 * n cost instead of nodes^n).
    """
    n = len(amplitudes)
    if n < 2:
        raise ValueError("need at least two amplitudes")
    pts = np.concatenate([blk.points for blk in quad.blocks])
    m = pts.shape[0]
    if float(m) ** 2 * n * 16 > budget:
        raise CostLimitError(f"{m} nodes with n={n} exceeds the cost budget")
    weights = np.concatenate([blk.weights for blk in quad.blocks])
    d2 = np.sum(np.abs(pts[:, None, :] - pts[None, :, :]) ** 2, axis=2)
    om = np.imag(pts @ pts.conj().T)  # omega(w_u, w_v) = Im(w_u . conj(w_v))
    kernel = np.exp(-0.5 * k * d2 + 1j * k * om)
    avals = [np.concatenate([_amp_values(a, blk) for blk in quad.blocks])
             for a in amplitudes]
    chain = np.eye(m, dtype=complex)
    for av in avals:
        chain = chain @ ((weights * av)[:, None] * kernel)
    N = sub.ambient_dim
    return (k / math.pi) ** (N * n) * complex(np.trace(chain))


def assemble_polynomial_multiplier(trunc: FockTruncation,
                                   terms: Sequence[tuple]) -> np.ndarray:
    """Matrix of the ordinary Berezin-Toeplitz operator of a polynomial.

    terms: list of (coeff, alpha, beta) meaning coeff * z^alpha * conj(z)^beta.
    Entries come from the closed-form Gaussian moments
    int z^p conj(z)^q e^{-k|z|^2} dL = delta_{pq} pi p! / k^{p+1} per factor.
    """
    k, N = trunc.k, trunc.ambient_dim
    E = trunc.exponent_matrix
    dim = trunc.dim
    log_norms = trunc.log_norms
    M = np.zeros((dim, dim), dtype=complex)
    for coeff, alpha, beta in terms:
        alpha = np.asarray(alpha, dtype=np.int64)
        beta = np.asarray(beta, dtype=np.int64)
        if alpha.shape != (N,) or beta.shape != (N,):
            raise ValueError("alpha and beta must have N components")
        # nonzero iff alpha + n == beta + m componentwise
        shift = alpha - beta
        for nn in range(dim):
            p = E[nn] + alpha
            mm_exp = E[nn] + shift
            if np.any(mm_exp < 0) or mm_exp.sum() > trunc.max_degree:
                continue
            mm = trunc._index_map.get(tuple(int(x) for x in mm_exp))
            if mm is None:
                continue
            log_val = float(np.sum([math.lgamma(pj + 1) for pj in p])) \
                + N * math.log(math.pi) - (p.sum() + N) * math.log(k)
            M[mm, nn] += coeff * math.exp(log_val - log_norms[mm] - log_norms[nn])
    return M


def mixed_trace_polynomial_H(trunc: FockTruncation, sub: ChartedSubmanifold, a,
                             H_terms: Sequence[tuple], quad: Quadrature
                             ) -> tuple[complex, complex, float]:
    """Trace of T_H T_{a dsigma} vs the leading term (k/pi)^N int H a dsigma."""
    op = assemble_T(trunc, sub, a, quad)
    TH = assemble_polynomial_multiplier(trunc, H_terms)
    observed = complex(np.sum(TH.T * op.matrix))  # trace(TH @ T)
    k, N = trunc.k, trunc.ambient_dim

    def H_at(block: QuadratureBlock) -> np.ndarray:
        vals = np.zeros(block.size, dtype=complex)
        for coeff, alpha, beta in H_terms:
            alpha = np.asarray(alpha)
            beta = np.asarray(beta)
            vals += coeff * np.prod(block.points ** alpha, axis=1) \
                * np.prod(block.points.conj() ** beta, axis=1)
        return vals

    integral = 0.0 + 0.0j
    for block in quad.blocks:
        integral += np.sum(block.weights * _amp_values(a, block) * H_at(block))
    predicted = (k / math.pi) ** N * integral
    gap = abs(observed - predicted) / max(abs(predicted), 1e-300)
    return observed, predicted, gap


# --- binary export -----------------------------------------------------------

_HEADER = struct.Struct("<IfII")  # dim, k, N, M: 16 bytes


def write_matrix(op: HermitianOperator, path) -> None:
    """Binary layout: 16-byte header (dim, k, N, M), then row-major
    complex128 little-endian entries."""
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(op.dim, float(op.trunc.k),
                              op.trunc.ambient_dim, op.trunc.max_degree))
        fh.write(np.ascontiguousarray(op.matrix, dtype="<c16").tobytes())


def read_matrix(path) -> tuple[np.ndarray, float, int, int]:
    """Inverse of write_matrix; returns (matrix, k, N, M)."""
    with open(path, "rb") as fh:
        dim, k, N, M = _HEADER.unpack(fh.read(_HEADER.size))
        data = np.frombuffer(fh.read(), dtype="<c16")
    if data.size != dim * dim:
        raise ValueError("matrix payload size does not match header")
    return data.reshape(dim, dim).copy(), float(k), int(N), int(M)
