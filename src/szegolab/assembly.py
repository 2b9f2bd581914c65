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
Hermitian T.  At circle k=400 node by node it is about 1e-72.

Sector sum: the circle, the tori and sphere3 are swept out by coordinate
rotations z_j -> e^{i theta} z_j, which the monomial basis diagonalises.
A periodic axis with L nodes is a rotation axis when, for every
coordinate j, z_j at the next node along it (wrapping around) equals
omega^{c_j} z_j on every node, omega = e^{2 pi i / L} and c_j an integer
mod L, to 64 eps max|z|.  The check reads only the block's points, so
DSL charts qualify as the built-in ones do.  A basis function n then has
charge q_n = sum_j c_j n_j mod L on each rotation axis, and its value at
rotation index phi is omega^{phi . q_n} times its value U_n at phi = 0.
The quadrature sum becomes
    T_nm = sum_theta conj(U_theta,n) U_theta,m F_theta[q_m - q_n],
    F_theta[q] = sum_phi w a(theta, phi) e^{2 pi i phi . q / L},
over the explicit nodes theta of the remaining axes; F is an L-scaled
inverse FFT.  It is the same sum as node by node, reordered: the circle
at k=400 needs one base point instead of 3209 nodes, sphere3 at k=10
needs 23 instead of 46,575.  Real amplitudes fill one triangle and mirror
it, so T == T^H still holds exactly.  With S_theta = sum_phi |w a|, the
flush floor applies to V = sqrt(S_theta) U and to the parts of
F / S_theta; since the node-by-node C has sum_phi |C|^2 = |V|^2 per
basis function, ||Delta C|| and ||C'|| are read exactly from V.  A
flushed coefficient adds at most mult max|V_theta|^2 |Delta F| / S_theta
to flush_bound, mult being the largest number of basis functions that
share a charge.

Invariant amplitudes: when every coefficient off charge 0 is within the
FFT's rounding floor, ceil(log2 L) eps S_theta, the coefficients are set
to zero and T is exactly block-diagonal by charge; it is exactly diagonal
for the circle, sphere3 and the tori at the acceptance orders, and
`spectral.eigensolve` then skips the eigensolver.  The same bound,
mult max|V_theta|^2 sum |F_theta[q != 0]| / S_theta, is recorded as
`HermitianOperator.offblock_bound`, not in flush_bound: at circle k=400
it is about 2e-14 lambda_max, the size of the FFT's own rounding, where
flush_bound is about 2e-74.  Coefficients of a non-invariant amplitude
are kept as the FFT gives them even where they are rounding noise: on the
torus (1, 0.7) at k=12 and M=48 with a = 1 + cos(t1)/4 + cos(t2)/4 up to
phases, zeroing the noise leaves 99.6% exact zeros, and eigvalsh then
takes 1.34 s instead of 0.45 s and the SVD 2.59 s instead of 0.78 s, from
subnormal numbers inside LAPACK's reductions; filling the zeros with
1e-40 restores 0.45 s and 0.78 s.

Paths: one explicit node of the sector sum costs a few passes over the
dim^2 matrix, about as much as 50 nodes of zherk.  The sector sum is used
when a block has at least _SECTOR_NODES = 64 rotation nodes per explicit
node.  Measured on sphere3 at k=10 (dim 1035, 2-vCPU Xeon, OpenBLAS), the
sector sum won at 64 ([200, 8, 8]: 1.04-1.08 s against 1.29-1.33 s node
by node) and lost at 48 ([300, 6, 8]: 1.56-1.71 s against 1.43-1.45 s).
Blocks without rotation axes (parabola, plane patches, non-rotation DSL
charts) always go node by node.
"""

from __future__ import annotations

import math
import struct
import warnings
from dataclasses import dataclass, replace
from typing import Callable, Optional, Sequence

import numpy as np

from .fock import FockTruncation, eval_basis_matrix
from .manifold import (ChartedSubmanifold, Quadrature, QuadratureBlock,
                       amp_values)

__all__ = [
    "HermitianOperator",
    "TruncationWarning",
    "CostLimitError",
    "assemble_T",
    "s_factor",
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
_FILL_ROWS = 256  # row block for mirroring and for the sector sum
_EPS = float(np.finfo(np.float64).eps)
_ROTATION_TOL = 64 * _EPS  # rotation check, relative to max |z|
_SECTOR_NODES = 64  # rotation nodes per explicit node for the sector sum


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
    offblock_bound: float = 0.0  # bound on the zeroed off-charge part, ditto

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def trace(self) -> complex:
        t = complex(np.trace(self.matrix))
        return t.real if self.hermitian else t


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


def _row_blocks(n: int):
    for lo in range(0, n, _FILL_ROWS):
        yield lo, min(n, lo + _FILL_ROWS)


def _mirror_lower(T: np.ndarray) -> None:
    """Set the strict upper triangle of T to the conjugate of the lower."""
    for lo, hi in _row_blocks(T.shape[0]):
        T[lo:hi, hi:] = T[hi:, lo:hi].T.conj()
        diag = T[lo:hi, lo:hi]
        upper = np.triu_indices(hi - lo, 1)
        diag[upper] = diag.T[upper].conj()


def _sector_axes(block: QuadratureBlock):
    """Periodic axes of the block that act on its points as rotations.

    Returns (axes, charges), charges[j, i] the integer c with
    z_j(next node along axes[i]) = e^{2 pi i c / L} z_j(node) on every node,
    or None when the block has no grid, no such axis, or fewer than
    _SECTOR_NODES rotation nodes per explicit node (module notes).
    """
    if block.shape is None:
        return None
    grid = block.points.reshape(block.shape + (-1,))
    tol = _ROTATION_TOL * float(np.abs(grid).max(initial=0.0))
    axes, charges = [], []
    for axis, (L, periodic) in enumerate(zip(block.shape,
                                             block.chart.periodic)):
        if not periodic:
            continue
        shifted = np.roll(grid, -1, axis=axis)
        turn = np.sum(shifted * grid.conj(), axis=tuple(range(grid.ndim - 1)))
        c = np.rint(np.angle(turn) * L / (2.0 * math.pi)).astype(np.int64) % L
        if np.abs(shifted - np.exp(2j * math.pi * c / L) * grid).max() <= tol:
            axes.append(axis)
            charges.append(c)
    if math.prod(block.shape[a] for a in axes) < _SECTOR_NODES:
        return None  # also when axes is empty
    return tuple(axes), np.stack(charges, axis=1)


def _sector_pass(trunc: FockTruncation, block: QuadratureBlock,
                 wa: np.ndarray, axes: tuple, charges: np.ndarray,
                 Xt: np.ndarray, is_real: bool) -> tuple[float, ...]:
    """Add one block to Xt by discrete Fourier sums over its rotation axes.

    Xt is the C-ordered view of the accumulator: T itself for complex
    amplitudes, conj(T) in its lower triangle for real ones.  Returns
    ||C'||^2, the bound on ||Delta C||^2, and the bounds on what the flush
    and the invariant zeroing of Fourier coefficients change (module notes).
    """
    shape = block.shape
    rot_shape = tuple(shape[a] for a in axes)
    explicit = [a for a in range(len(shape)) if a not in axes]
    # node indices as (explicit node theta, rotation multi-index phi)
    order = np.arange(block.size).reshape(shape).transpose(explicit + list(axes))
    order = order.reshape((-1,) + rot_shape)
    wa_grid = wa[order]
    scale = np.abs(wa_grid).reshape(order.shape[0], -1).sum(axis=1)
    live = scale > 0
    wa_grid, scale = wa_grid[live], scale[live]
    if not scale.size:
        return 0.0, 0.0, 0.0, 0.0
    rot = wa_grid[0].size
    # F[theta, q] = sum_phi w a e^{2 pi i phi . q / L}, relative to scale
    from numpy.fft import ifftn
    F = ifftn(wa_grid, axes=tuple(range(1, len(axes) + 1))).reshape(-1, rot)
    F *= (rot / scale)[:, None]
    if is_real:
        F[:, 0] = F[:, 0].real  # exact for real w a; keeps diag(T) real
    q = trunc.exponent_matrix @ charges % np.array(rot_shape)
    flat_q = np.ravel_multi_index(q.T, rot_shape)
    mult = int(np.bincount(flat_q).max())
    # invariant amplitudes: coefficients off charge 0 are FFT rounding
    invariant = (rot > 1 and np.abs(F[:, 1:]).max()
                 <= max(1, math.ceil(math.log2(rot))) * _EPS)
    off_charge = np.zeros(scale.size)
    if invariant:
        off_charge = np.abs(F[:, 1:]).sum(axis=1)
        F[:, 1:] = 0.0
    parts = F.view(np.float64)
    small = (parts > -_FLUSH) & (parts < _FLUSH)
    flushed = np.abs(np.where(small, parts, 0.0)).sum(axis=1)
    parts[small] = 0.0
    # V = sqrt(sum_phi |w a|) U at the base points phi = 0
    V = eval_basis_matrix(trunc, block.points[order.reshape(-1, rot)[live, 0]])
    V *= np.sqrt(scale)[:, None]
    norm2, dropped2 = _flush(V)
    # ||diag(conj v) G diag(v)|| <= mult max|v|^2 sum|G coefficients|
    peak = mult * np.abs(V).max(axis=1) ** 2
    bounds = (norm2, dropped2, float(peak @ flushed), float(peak @ off_charge))
    # Xt[r, c] += sum_theta R_r C_c F[q_c - q_r] with R = conj(V), C = V for
    # T, and all three conjugated for the lower triangle of conj(T)
    dim = trunc.dim
    diag = np.diag_indices(dim)
    if invariant and mult == 1:  # T is exactly diagonal
        Xt[diag] += (V.real ** 2 + V.imag ** 2).T @ F[:, 0]
        return bounds
    V = np.ascontiguousarray(V)
    if is_real:
        R, C, F = V, V.conj(), F.conj()
    else:
        R, C = V.conj(), V
    strides = np.array([math.prod(rot_shape[i + 1:])
                        for i in range(len(rot_shape))])
    for lo, hi in _row_blocks(dim):
        cols = hi if is_real else dim
        D = (q[None, :cols, :] - q[lo:hi, None, :]) % np.array(rot_shape)
        D = D @ strides
        acc = Xt[lo:hi, :cols]
        work = np.empty(D.shape, dtype=complex)
        for t in range(F.shape[0]):
            np.take(F[t], D, out=work, mode="clip")
            work *= R[t, lo:hi, None]
            work *= C[t, None, :cols]
            acc += work
    if is_real:
        Xt[diag] = Xt[diag].real  # the rounding of R C F leaves imaginary dust
    return bounds


def assemble_T(trunc: FockTruncation, sub: ChartedSubmanifold, a,
               quad: Quadrature) -> HermitianOperator:
    """Assemble T_{a dsigma} as a Gram matrix over the quadrature.

    a: None (constant 1), a scalar, or a callable on (m, d) chart nodes.
    Real amplitudes give an exactly Hermitian matrix; complex ones are
    assembled as-is with the hermitian flag cleared.  Blocks whose periodic
    axes rotate the points are summed by Fourier sectors, the rest node by
    node (module notes).
    """
    # scipy.linalg costs more to import than the whole package, so it is
    # loaded on first assembly rather than with the module
    from scipy.linalg.blas import zgemm, zherk

    dim = trunc.dim
    weighted = [block.weights * amp_values(a, block) for block in quad.blocks]
    mass = complex(sum(np.sum(wa) for wa in weighted))
    is_real = not any(np.iscomplexobj(wa) and np.abs(wa.imag).max() > 0
                      for wa in weighted)
    # basis values come in Fortran order, so C and C^T pass to BLAS uncopied
    # and X accumulates in Fortran order: T^T for zgemm, the upper triangle
    # of T for zherk
    X = np.zeros((dim, dim), dtype=complex, order="F")
    norm2 = dropped2 = f_flush = off_block = 0.0
    for block, wa in zip(quad.blocks, weighted):
        if is_real:
            wa = wa.real
        sector = _sector_axes(block)
        if sector is not None:
            n2, d2, f2, o2 = _sector_pass(trunc, block, wa, *sector, X.T,
                                          is_real)
            norm2 += n2
            dropped2 += d2
            f_flush += f2
            off_block += o2
            continue
        if is_real:
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
                           flush_bound=dC * (2.0 * math.sqrt(norm2) + dC)
                           + f_flush,
                           offblock_bound=off_block)
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


def s_factor(k: float, N: int, d: int, d_prime: int) -> float:
    """Factor 2^{-d'/2} (pi/k)^{N - d/2} taking T to S."""
    return 2.0 ** (-0.5 * d_prime) * (math.pi / k) ** (N - 0.5 * d)


def scale_to_S(op: HermitianOperator, d_prime: int) -> HermitianOperator:
    """S = s_factor * T."""
    if op.normalization != "raw_T":
        raise ValueError("operator is already scaled")
    if op.manifold_dim is None:
        raise ValueError("operator lacks the manifold dimension tag")
    factor = s_factor(op.trunc.k, op.trunc.ambient_dim, op.manifold_dim,
                      d_prime)
    return replace(op, matrix=factor * op.matrix, normalization="scaled_S",
                   scale_factor=factor, d_prime=d_prime,
                   flush_bound=factor * op.flush_bound,
                   offblock_bound=factor * op.offblock_bound)


def covariant_symbol(trunc: FockTruncation, sub: ChartedSubmanifold, a,
                     quad: Quadrature, z) -> float:
    """(k/pi)^N integral of e^{-k|z-w|^2} a(w) dsigma(w)."""
    k, N = trunc.k, trunc.ambient_dim
    zv = np.asarray(z, dtype=complex).reshape(1, -1)
    total = 0.0
    for block in quad.blocks:
        av = amp_values(a, block)
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


def _real_coords(blocks) -> np.ndarray:
    """Points of all blocks as (m, 2N) interleaved reals (x1, y1, ...)."""
    pts = np.concatenate([blk.points for blk in blocks]).astype(complex)
    return pts.view(np.float64)


def _sq_dists(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """|x_i - y_j|^2 for real rows, as |x|^2 + |y|^2 - 2 x.y by one gemm.

    The expansion can round below zero for near-equal points; it is clamped.
    """
    d2 = x @ y.T
    d2 *= -2.0
    d2 += np.einsum("ij,ij->i", x, x)[:, None]
    d2 += np.einsum("ij,ij->i", y, y)[None, :]
    return np.maximum(d2, 0.0, out=d2)


def pair_trace_integral(sub: ChartedSubmanifold, a, b, quad: Quadrature,
                        k: float) -> float:
    """(k/pi)^{2N} double integral of e^{-k|z-w|^2} a(z) b(w) dsigma^2."""
    N = sub.ambient_dim
    x = _real_coords(quad.blocks)
    wa = np.concatenate([blk.weights * amp_values(a, blk) for blk in quad.blocks])
    wb = np.concatenate([blk.weights * amp_values(b, blk) for blk in quad.blocks])
    total = 0.0 + 0.0j
    for lo, hi in _node_chunks(x.shape[0], x.shape[0]):
        K = _sq_dists(x[lo:hi], x)
        K *= -k
        np.exp(K, out=K)
        # K is real: apply it to the real and imaginary parts separately
        Kb = K @ wb.real + 1j * (K @ wb.imag) if np.iscomplexobj(wb) else K @ wb
        total += wa[lo:hi] @ Kb
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
    x = _real_coords(quad.blocks)
    d2 = _sq_dists(x, x)
    om = np.imag(pts @ pts.conj().T)  # omega(w_u, w_v) = Im(w_u . conj(w_v))
    kernel = np.exp(-0.5 * k * d2 + 1j * k * om)
    avals = [np.concatenate([amp_values(a, blk) for blk in quad.blocks])
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
        integral += np.sum(block.weights * amp_values(a, block) * H_at(block))
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
