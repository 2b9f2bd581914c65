"""Assembly of singular Berezin-Toeplitz operators, dense or by blocks.

T_{a dsigma} acts on the truncated Bargmann space; its matrix in the
normalized monomial basis is the Gram matrix of the basis functions
restricted to the submanifold and weighted by a dsigma.  Assembly is a
single quadrature pass, chunked over nodes so the working set stays near
a fixed memory budget.  On rotation-swept manifolds T is block-diagonal
by Fourier charge and is stored block by block (charge blocks below).

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
mod L, to 64 eps max|z|.  The check reads only the quadrature points, so
DSL charts qualify as the built-in ones do.  It reads them in blocks of
slabs along the axis, each block a view of about _SLAB_BYTES paired with
the view one slab further on, the last slab with the first: no shifted
copy of the grid is made, and one numpy operation covers a whole block.  A basis function n then has
charge q_n = sum_j c_j n_j mod L on each rotation axis, and its value at
rotation index phi is omega^{phi . q_n} times its value U_n at phi = 0.
The quadrature sum becomes
    T_nm = sum_theta conj(U_theta,n) U_theta,m F_theta[q_m - q_n],
    F_theta[q] = sum_phi w a(theta, phi) e^{2 pi i phi . q / L},
over the explicit nodes theta of the remaining axes; F is an L-scaled
inverse FFT.  The node ordering by (theta, phi), the base points and the
charges q_n come from one helper, `_rotation_grid`, which the test states
of `states` share.  It is the same sum as node by node, reordered: the circle
at k=400 needs one base point instead of 3209 nodes, sphere3 at k=10
needs 23 instead of 46,575.  Real amplitudes fill one triangle and mirror
it, so T == T^H still holds exactly.  With S_theta = sum_phi |w a|, the
flush floor applies to V = sqrt(S_theta) U and to the parts of
F / S_theta; since the node-by-node C has sum_phi |C|^2 = |V|^2 per
basis function, ||Delta C|| and ||C'|| are read exactly from V.  A
flushed coefficient adds at most mult max|V_theta|^2 |Delta F| / S_theta
to flush_bound, mult being the largest number of basis functions that
share a charge.

Charge blocks: every charge whose coefficients all lie within the
FFT's rounding floor, ceil(log2 L) eps S_theta, is set to zero; charge 0
is always kept, and for a real amplitude q and -q are kept or zeroed
together.  The bound of that change, mult max|V_theta|^2 sum
|F_theta[zeroed q]| / S_theta, is recorded as
`HermitianOperator.offblock_bound`, not in flush_bound: at circle k=400
with a = 1 it is about 2e-14 lambda_max, the size of the FFT's own
rounding, where flush_bound is about 2e-74.  The kept charges are the
support.  Basis functions n and m are linked when q_m - q_n mod L is in
it, and T_nm is zero unless they are; the connected components of these
links are the diagonal blocks of T.  Each block is ordered by charge and
only its in-support entries are summed.  It is stored banded when the
band its solver takes (the block's own band if Hermitian, else the
band of its dilation, `spectral` module notes) is at most
_BAND_MAX = 8 wide, else dense.  An invariant amplitude on the circle,
sphere3 or the tori at the acceptance orders gives 1x1 blocks, which no
solver touches; a = 1 + 0.5 cos(t1 + phi) on the torus gives one
tridiagonal block per n2.

Links wrap around mod L.  With L = M + 1 nodes on a rotation axis,
charges 0 and M meet: on sphere3 at k=8, M = 36 and the Lab's order
[M//2 + 1, M + 1, M + 1], a = 1 + 0.5 cos(t2) links n1 = 0 to n1 = 36 at
n2 = 0 through an aliased entry of 1.7e-8, and that chain is one cyclic,
dense block equal to the dense quadrature sum.  The Lab's sphere order
[M//2 + 1, M + 1, M + 1] is exact only for invariant amplitudes.

Dense path: when the links join every basis function into one block wider
than _BAND_MAX, T is one dense matrix, assembled as before, and keeps
every coefficient the FFT gives unless all but charge 0 are noise.  The
DSL torus amplitude 1 + cos(t1)/4 + cos(t2)/4 is such a case: its support
{0, +-e1, +-e2} gives bandwidth M + 1 in charge order.  Zeroing its noise
and passing the dense matrix on would not pay: at k=12 and M=48 that
leaves 99.6% exact zeros, and eigvalsh then takes 1.34 s instead of
0.45 s and the SVD 2.59 s instead of 0.78 s, from subnormal numbers
inside LAPACK's reductions.  The dense path is also taken when the
quadrature has no rotation axes, when w a vanishes on every node, and
when the sector keeps so many charges that a row may link to more than
dim/4 others and more than 2 _BAND_MAX + 1.

Bandwidth crossover: _BAND_MAX was measured as the ratio of banded to
dense solver time on random blocks of n rows (2-vCPU Xeon, OpenBLAS,
best of 7).  Hermitian blocks, eig_banded against eigvalsh: 0.16-0.51 at
width 8 for n = 100 to 1600 (1.04 at n = 50, 0.1 ms either way), and
0.32-0.96 at width 16 for n >= 200; at width 49 and n = 1225, the
bandwidth of the DSL torus at k=12, 1.04.  Non-Hermitian blocks, the
dilation against the SVD: 0.28-0.57 at width 3 for n >= 800 and 0.9-2.5
below; 0.41-0.78 at width 7 for n >= 800 and 1.4-3.9 below; 4.3 at width
99 and n = 1225.  At 8 the Hermitian solver wins at every size but the
smallest, and the dilation wins on blocks of about 800 rows or more and
loses a few milliseconds on small ones.

Paths: one explicit node of the sector sum costs a few passes over the
dim^2 matrix, about as much as 50 nodes of zherk.  The sector sum is used
when the grid has at least _SECTOR_NODES = 64 rotation nodes per
explicit node.  Measured on sphere3 at k=10 (dim 1035, 2-vCPU Xeon, OpenBLAS), the
sector sum won at 64 ([200, 8, 8]: 1.04-1.08 s against 1.29-1.33 s node
by node) and lost at 48 ([300, 6, 8]: 1.56-1.71 s against 1.43-1.45 s).
Grids without rotation axes (parabola, plane patches, non-rotation DSL
charts) always go node by node.

Pair traces: Tr(T_a T_b) is the double sum of (w a)_s e^{-k|z_s - z_t|^2}
(w b)_t over m nodes.  On the tensor grid of the quadrature, two chart axes are
in the same group when some real coordinate of the points varies along
both; a coordinate varies along an axis unless it is exactly constant
along it.  As for rotation axes, only the points are read, so DSL charts
group as the built-in ones do.  |z_s - z_t|^2 is then one sum per group,
the kernel is the Kronecker product of the n_g x n_g group kernels, and
w b is multiplied by one group kernel at a time and finished by a dot
product with w a: m sum_g n_g products and sum_g n_g^2 exponentials
instead of m^2 of each.  The parabola, the tori and plane patches have
one group per axis.  sphere3, whose s axis moves every coordinate, forms
one group, which is the dense sum.  On the 64 x 64 parabola a call takes 1-2 ms
instead of 0.28-0.40 s with the 4096 x 4096 kernel, and 0.01-0.02 s at
256 x 256 nodes, where that kernel would have 4.3e9 entries (2-vCPU
Xeon, OpenBLAS); the parabola_moments pair traces move by 2e-16
relative.  `nfold_trace_integral` keeps the dense kernel: its phase
Im(z_s . conj z_t) couples the parabola's x1 and y1 axes.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from .fock import FockTruncation, eval_basis_matrix
from .manifold import ChartedSubmanifold, Quadrature, amp_values

__all__ = [
    "BlockLayout",
    "HermitianOperator",
    "TruncationWarning",
    "CostLimitError",
    "assemble_T",
    "s_factor",
    "scale_to_S",
    "exact_trace",
    "trace_product",
    "pair_trace_integral",
    "nfold_trace_integral",
]

_CHUNK_BYTES = 64 << 20  # target working-set size for node chunks
_FLUSH = float(np.finfo(np.float64).tiny) ** 0.25  # see the module notes
_FILL_ROWS = 256  # row block for mirroring and for the sector sum
_EPS = float(np.finfo(np.float64).eps)
_ROTATION_TOL = 64 * _EPS  # rotation check, relative to max |z|
_SLAB_BYTES = 1 << 20  # points compared per operation in the rotation check
_SECTOR_NODES = 64  # rotation nodes per explicit node for the sector sum
_BAND_MAX = 8  # widest band given to a banded solver; module notes


class TruncationWarning(UserWarning):
    pass


class CostLimitError(RuntimeError):
    pass


@dataclass(frozen=True)
class BlockLayout:
    """An operator matrix as diagonal blocks along a permutation.

    Position p holds basis function perm[p]; block i holds positions
    bounds[i]:bounds[i + 1].  The banded blocks come first, by bandwidth
    widths[i] = max |i - j| over their entries (1x1 blocks have width 0),
    and the dense blocks last.  `band` holds every banded block in general
    band form, band[w + i - j, j] = T at positions (i, j) with
    w = band.shape[0] // 2, and is zero between blocks and on the dense
    blocks; `dense` holds the full matrix of each dense block, in order.
    """

    perm: np.ndarray
    bounds: np.ndarray
    widths: np.ndarray
    band: np.ndarray
    dense: tuple = ()

    @classmethod
    def of_matrix(cls, matrix: np.ndarray) -> "BlockLayout":
        """One dense block holding the whole matrix, in basis order."""
        dim = matrix.shape[0]
        return cls(perm=np.arange(dim), bounds=np.array([0, dim]),
                   widths=np.zeros(0, dtype=np.int64),
                   band=np.zeros((1, dim), dtype=complex), dense=(matrix,))

    @property
    def half_width(self) -> int:
        return self.band.shape[0] // 2

    def banded_blocks(self):
        """(lo, hi, width) of each banded block."""
        b = self.bounds
        for i, width in enumerate(self.widths.tolist()):
            yield int(b[i]), int(b[i + 1]), width

    def dense_blocks(self):
        """(lo, hi, matrix) of each dense block."""
        b = self.bounds[len(self.widths):]
        for i, D in enumerate(self.dense):
            yield int(b[i]), int(b[i + 1]), D

    def scaled(self, factor: float) -> "BlockLayout":
        return replace(self, band=factor * self.band,
                       dense=tuple(factor * D for D in self.dense))

    def _to_basis(self, values: np.ndarray) -> np.ndarray:
        out = np.empty_like(values)
        out[self.perm] = values
        return out

    def diagonal(self) -> np.ndarray:
        """Diagonal entries in basis order."""
        d = self.band[self.half_width].copy()
        for lo, hi, D in self.dense_blocks():
            d[lo:hi] = np.diagonal(D)
        return self._to_basis(d)

    def trace(self) -> complex:
        return complex(self.band[self.half_width].sum()
                       + sum(np.trace(D) for _, _, D in self.dense_blocks()))

    def apply(self, x: np.ndarray) -> np.ndarray:
        """T x, block by block."""
        xp = np.asarray(x)[self.perm]
        n, w = xp.size, self.half_width
        y = np.zeros(n, dtype=complex)
        for d in range(-w, w + 1):
            row = self.band[w + d]
            if d >= 0:
                y[d:] += row[:n - d] * xp[:n - d]
            else:
                y[:n + d] += row[-d:] * xp[-d:]
        for lo, hi, D in self.dense_blocks():
            y[lo:hi] += D @ xp[lo:hi]
        return self._to_basis(y)

    def band_entries(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(rows, columns, values) in basis indices of the nonzero band."""
        d, j = np.nonzero(self.band)
        i = j + d - self.half_width
        return self.perm[i], self.perm[j], self.band[d, j]

    def entries(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(rows, columns, values) in basis indices, each entry once."""
        rows, cols, vals = ([x] for x in self.band_entries())
        for lo, hi, D in self.dense_blocks():
            idx = self.perm[lo:hi]
            rows.append(np.repeat(idx, idx.size))
            cols.append(np.tile(idx, idx.size))
            vals.append(D.reshape(-1))
        return tuple(np.concatenate(x) for x in (rows, cols, vals))

    def densify(self) -> np.ndarray:
        dim = self.perm.size
        T = np.zeros((dim, dim), dtype=complex)
        rows, cols, vals = self.band_entries()
        T[rows, cols] = vals
        for lo, hi, D in self.dense_blocks():
            idx = self.perm[lo:hi]
            T[np.ix_(idx, idx)] = D
        return T


class HermitianOperator:
    """T_{a dsigma} or S in charge blocks, tagged with its truncation.

    `layout` holds the blocks (see `BlockLayout`); every spectral function
    reads them block by block.  `matrix` builds the dense dim x dim matrix
    on first request and keeps it.  HermitianOperator(matrix=A, ...) is
    the operator of one dense block holding A.  The `hermitian` flag is
    cleared for complex amplitudes, whose T is not Hermitian.
    """

    def __init__(self, matrix: Optional[np.ndarray] = None,
                 trunc: Optional[FockTruncation] = None,
                 normalization: str = "raw_T",  # raw_T | scaled_S
                 hermitian: bool = True,
                 manifold_dim: Optional[int] = None,
                 symbol_mass: Optional[complex] = None,  # integral of a dsigma
                 flush_bound: float = 0.0,  # bound on ||T - T_unflushed||_2
                 offblock_bound: float = 0.0,  # same for zeroed charges
                 layout: Optional[BlockLayout] = None):
        if (matrix is None) == (layout is None):
            raise ValueError("give exactly one of matrix and layout")
        if layout is None:
            layout = BlockLayout.of_matrix(matrix)
        self.layout = layout
        self._matrix = matrix
        self.trunc = trunc
        self.normalization = normalization
        self.hermitian = hermitian
        self.manifold_dim = manifold_dim
        self.symbol_mass = symbol_mass
        self.flush_bound = flush_bound
        self.offblock_bound = offblock_bound

    @property
    def dim(self) -> int:
        return self.layout.perm.size

    @property
    def matrix(self) -> np.ndarray:
        if self._matrix is None:
            self._matrix = self.layout.densify()
        return self._matrix

    def trace(self) -> complex:
        t = self.layout.trace()
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


def _slab_pairs(grid: np.ndarray, axis: int):
    """(here, ahead) views over blocks of slabs of grid along axis, ahead
    one slab further on, wrapping around: each slab meets its successor
    once, without a copy of the grid."""
    g = np.moveaxis(grid, axis, 0)
    L = g.shape[0]
    rows = max(1, _SLAB_BYTES // max(1, g[0].nbytes))
    for lo in range(0, L - 1, rows):
        hi = min(L - 1, lo + rows)
        yield g[lo:hi], g[lo + 1:hi + 1]
    yield g[L - 1:], g[:1]


def _sector_axes(quad: Quadrature):
    """Periodic axes of the grid that act on its points as rotations.

    Returns (axes, charges), charges[j, i] the integer c with
    z_j(next node along axes[i]) = e^{2 pi i c / L} z_j(node) on every node,
    or None when there is no such axis, or fewer than _SECTOR_NODES
    rotation nodes per explicit node (module notes).
    """
    grid = quad.points.reshape(quad.shape + (-1,))
    # the `here` blocks along any axis hold every point once
    tol = _ROTATION_TOL * max(float(np.abs(here).max(initial=0.0))
                              for here, _ in _slab_pairs(grid, 0))
    idx = list(range(grid.ndim))
    axes, charges = [], []
    for axis, (L, periodic) in enumerate(zip(quad.shape, quad.sub.periodic)):
        if not periodic:
            continue
        # sum of ahead conj(here) over the nodes, one value per coordinate
        turn = sum(np.einsum(ahead, idx, here.conj(), idx, idx[-1:])
                   for here, ahead in _slab_pairs(grid, axis))
        c = np.rint(np.angle(turn) * L / (2.0 * math.pi)).astype(np.int64) % L
        phase = np.exp(2j * math.pi * c / L)
        if all(np.abs(ahead - phase * here).max() <= tol
               for here, ahead in _slab_pairs(grid, axis)):
            axes.append(axis)
            charges.append(c)
    if math.prod(quad.shape[a] for a in axes) < _SECTOR_NODES:
        return None  # also when axes is empty
    return tuple(axes), np.stack(charges, axis=1)


def _rotation_grid(trunc: FockTruncation, quad: Quadrature,
                   axes: tuple, charges: np.ndarray
                   ) -> tuple[np.ndarray, np.ndarray]:
    """Nodes of the grid by rotation sector, and the charges of the basis.

    axes and charges are those `_sector_axes` found.  Returns (order, q):
    order[theta, phi] is the index of the node at explicit node theta and
    rotation multi-index phi, so order[:, 0, ..., 0] are the base points,
    and q[n] is the charge of basis function n on each rotation axis, so
    that u_n at phi is omega^{phi . q_n} times u_n at the base point.
    """
    shape = quad.shape
    rot_shape = tuple(shape[a] for a in axes)
    explicit = [a for a in range(len(shape)) if a not in axes]
    order = np.arange(quad.size).reshape(shape).transpose(explicit + list(axes))
    q = trunc.exponent_matrix @ charges % np.array(rot_shape)
    return order.reshape((-1,) + rot_shape), q


@dataclass
class _Sector:
    """Fourier-sector data of a rotation grid (module notes)."""

    F: np.ndarray  # (explicit node theta, charge): coefficients / S_theta
    V: np.ndarray  # sqrt(S_theta) U at the base points, flushed
    q: np.ndarray  # (dim, rotation axes) charge of each basis function
    shape: tuple  # nodes per rotation axis
    mult: int  # most basis functions sharing one charge
    peak: np.ndarray  # mult max|V_theta|^2 per explicit node
    norm2: float  # ||C'||^2
    dropped2: float  # bound on ||Delta C||^2
    keep: np.ndarray  # charges with a coefficient above the rounding floor

    @property
    def flat_q(self) -> np.ndarray:
        return np.ravel_multi_index(self.q.T, self.shape)

    def zero_and_flush(self, drop: np.ndarray) -> tuple[float, float]:
        """Zero the charges in `drop` and flush the rest of F, in place.

        Returns the bounds on what the flush and the zeroing change.
        """
        F = self.F
        off_charge = np.abs(F[:, drop]).sum(axis=1)
        F[:, drop] = 0.0
        parts = F.view(np.float64)
        small = (parts > -_FLUSH) & (parts < _FLUSH)
        flushed = np.abs(np.where(small, parts, 0.0)).sum(axis=1)
        parts[small] = 0.0
        # ||diag(conj v) G diag(v)|| <= mult max|v|^2 sum|G coefficients|
        return float(self.peak @ flushed), float(self.peak @ off_charge)

    def pairs(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Every (n, m, charge) with q_m - q_n = charge mod L a kept charge."""
        dim = self.q.shape[0]
        flat = self.flat_q
        members = np.argsort(flat, kind="stable")
        counts = np.bincount(flat, minlength=self.F.shape[1])
        starts = np.cumsum(counts) - counts
        rows, cols, charges = [], [], []
        for c in np.flatnonzero(self.keep):
            shift = np.array(np.unravel_index(c, self.shape))
            partner = np.ravel_multi_index(((self.q + shift) % self.shape).T,
                                           self.shape)
            n = counts[partner]
            offset = np.arange(n.sum()) - np.repeat(np.cumsum(n) - n, n)
            rows.append(np.repeat(np.arange(dim), n))
            cols.append(members[np.repeat(starts[partner], n) + offset])
            charges.append(np.full(offset.size, c))
        return tuple(np.concatenate(x) for x in (rows, cols, charges))

    def fill_dense(self, Xt: np.ndarray, is_real: bool) -> None:
        """Add the sector sum to Xt, the C-ordered view of the accumulator:
        T itself for complex amplitudes, conj(T) in its lower triangle for
        real ones."""
        F, V, q, shape = self.F, self.V, self.q, self.shape
        dim = q.shape[0]
        diag = np.diag_indices(dim)
        if self.mult == 1 and not np.any(F[:, 1:]):  # T is exactly diagonal
            Xt[diag] += (V.real ** 2 + V.imag ** 2).T @ F[:, 0]
            return
        # Xt[r, c] += sum_theta R_r C_c F[q_c - q_r] with R = conj(V), C = V
        # for T, and all three conjugated for the lower triangle of conj(T)
        V = np.ascontiguousarray(V)
        if is_real:
            R, C, F = V, V.conj(), F.conj()
        else:
            R, C = V.conj(), V
        strides = np.array([math.prod(shape[i + 1:])
                            for i in range(len(shape))])
        for lo, hi in _row_blocks(dim):
            cols = hi if is_real else dim
            D = (q[None, :cols, :] - q[lo:hi, None, :]) % np.array(shape)
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


def _sector(trunc: FockTruncation, quad: Quadrature, wa: np.ndarray,
            axes: tuple, charges: np.ndarray,
            is_real: bool) -> Optional[_Sector]:
    """Fourier coefficients and base-point basis values of the grid.

    None when w a vanishes on every node.
    """
    order, q = _rotation_grid(trunc, quad, axes, charges)
    rot_shape = order.shape[1:]
    wa_grid = wa[order]
    scale = np.abs(wa_grid).reshape(order.shape[0], -1).sum(axis=1)
    live = scale > 0
    wa_grid, scale = wa_grid[live], scale[live]
    if not scale.size:
        return None
    rot = wa_grid[0].size
    # F[theta, q] = sum_phi w a e^{2 pi i phi . q / L}, relative to scale
    from numpy.fft import ifftn
    F = ifftn(wa_grid, axes=tuple(range(1, len(axes) + 1))).reshape(-1, rot)
    F *= (rot / scale)[:, None]
    if is_real:
        F[:, 0] = F[:, 0].real  # exact for real w a; keeps diag(T) real
    # charges whose coefficients all lie within the FFT's rounding floor
    keep = (np.abs(F).max(axis=0)
            > max(1, math.ceil(math.log2(rot))) * _EPS)
    keep[0] = True
    if is_real:  # F[-q] = conj F[q] up to rounding: keep both or neither
        grid = np.arange(rot).reshape(rot_shape)
        minus = np.roll(np.flip(grid), 1, axis=tuple(range(grid.ndim)))
        keep |= keep[minus.reshape(-1)]
    mult = int(np.bincount(np.ravel_multi_index(q.T, rot_shape)).max())
    # V = sqrt(sum_phi |w a|) U at the base points phi = 0
    V = eval_basis_matrix(trunc, quad.points[order.reshape(-1, rot)[live, 0]])
    V *= np.sqrt(scale)[:, None]
    norm2, dropped2 = _flush(V)
    return _Sector(F=F, V=V, q=q, shape=rot_shape, mult=mult,
                   peak=mult * np.abs(V).max(axis=1) ** 2, norm2=norm2,
                   dropped2=dropped2, keep=keep)


def _components(n: int, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Connected components of the graph on n nodes with edges (rows, cols).

    Each node is labelled with the least node of its component: roots hook
    onto the least root across an edge, then pointer jumping flattens the
    trees, until no edge joins two labels.
    """
    label = np.arange(n)
    while True:
        least = np.minimum(label[rows], label[cols])
        hooked = label.copy()
        np.minimum.at(hooked, label[rows], least)
        np.minimum.at(hooked, label[cols], least)
        while True:
            jumped = hooked[hooked]
            if np.array_equal(jumped, hooked):
                break
            hooked = jumped
        if np.array_equal(hooked, label):
            return label
        label = hooked


def _dilation_width(lower, upper):
    """Bandwidth of the interleaved dilation [[0, B], [B^H, 0]] of a block
    B with these lower and upper bandwidths, or of B^H's if narrower:
    max(2l - 1, 2u + 1) for l >= u (`spectral` module notes)."""
    hi, lo = np.maximum(lower, upper), np.minimum(lower, upper)
    return np.maximum(2 * hi - 1, 2 * lo + 1)


def _charge_blocks(sector: _Sector, dim: int, is_real: bool):
    """Blocks of the charge graph, or None for one wide component.

    Basis functions n and m are linked when q_m - q_n mod L is a kept
    charge.  Each component is ordered by charge; a block whose solver
    width exceeds _BAND_MAX is dense.  Returns perm, bounds and widths in
    `BlockLayout` order, and the sector's pairs.
    """
    # a row links to at most (kept charges) * mult others: past a quarter of
    # dim, and past the rows of a band of width _BAND_MAX, the support is
    # too wide for blocks to pay
    if (np.count_nonzero(sector.keep) * sector.mult
            > max(dim / 4, 2 * _BAND_MAX + 1)):
        return None
    pairs = sector.pairs()
    rows, cols, _ = pairs
    _, comp = np.unique(_components(dim, rows, cols), return_inverse=True)
    order = np.lexsort((sector.flat_q, comp))  # by component, then charge
    pos = np.empty(dim, dtype=np.int64)
    pos[order] = np.arange(dim)
    step = pos[rows] - pos[cols]
    lower = np.zeros(comp.max() + 1, dtype=np.int64)
    upper = np.zeros_like(lower)
    np.maximum.at(lower, comp[rows], step)
    np.maximum.at(upper, comp[rows], -step)
    width = np.maximum(lower, upper)
    # the band each block's solver takes: its own, or its dilation's
    dense = (width if is_real else _dilation_width(lower, upper)) > _BAND_MAX
    if dense.size == 1 and dense[0]:
        return None
    # banded blocks by bandwidth, then dense blocks; each keeps its order
    rank = np.empty_like(width)
    rank[np.lexsort((width, dense))] = np.arange(width.size)
    perm = order[np.argsort(rank[comp[order]], kind="stable")]
    sizes = np.bincount(rank[comp], minlength=width.size)
    bounds = np.concatenate([[0], np.cumsum(sizes)])
    blocks_in_order = np.argsort(rank)
    widths = width[blocks_in_order][~dense[blocks_in_order]]
    return perm, bounds, widths, pairs


def _fill_blocks(sector: _Sector, perm: np.ndarray, bounds: np.ndarray,
                 widths: np.ndarray, pairs: tuple,
                 is_real: bool) -> BlockLayout:
    """Sum the in-support entries of the sector into the blocks."""
    dim = perm.size
    w = int(widths.max(initial=0))
    pos = np.empty(dim, dtype=np.int64)
    pos[perm] = np.arange(dim)
    band = np.zeros((2 * w + 1, dim), dtype=complex)
    # the dense blocks, row-major one after another in one buffer
    dense_lo = bounds[len(widths):]
    size = np.diff(dense_lo)
    start = np.concatenate([[0], np.cumsum(size * size)])
    buffer = np.zeros(start[-1], dtype=complex)
    dense = [buffer[start[i]:start[i + 1]].reshape(n, n)
             for i, n in enumerate(size)]
    rows, cols, charges = pairs
    i, j = pos[rows], pos[cols]
    if is_real:  # the lower triangle; the upper is its conjugate
        lower = i >= j
        rows, cols, charges = rows[lower], cols[lower], charges[lower]
        i, j = i[lower], j[lower]
    # T_nm = sum_theta conj(V_theta,n) V_theta,m F_theta[q_m - q_n]
    V, F = sector.V, sector.F
    vals = np.zeros(rows.size, dtype=complex)
    for t in range(F.shape[0]):
        vals += V[t, rows].conj() * V[t, cols] * F[t, charges]
    # the (n, m) pairs are distinct, so += adds each once
    b = np.searchsorted(dense_lo, i, side="right") - 1
    banded = b < 0
    band[w + i[banded] - j[banded], j[banded]] += vals[banded]
    b, r, c = b[~banded], i[~banded], j[~banded]
    buffer[start[b] + (r - dense_lo[b]) * size[b] + c - dense_lo[b]] \
        += vals[~banded]
    if is_real:
        band[w] = band[w].real
        for d in range(1, w + 1):
            band[w - d, d:] = band[w + d, :dim - d].conj()
        for D in dense:
            _mirror_lower(D)
            D[np.diag_indices(D.shape[0])] = D.diagonal().real
    return BlockLayout(perm=perm, bounds=bounds, widths=widths, band=band,
                       dense=tuple(dense))


def assemble_T(trunc: FockTruncation, sub: ChartedSubmanifold, a,
               quad: Quadrature) -> HermitianOperator:
    """Assemble T_{a dsigma} as a Gram matrix over the quadrature.

    a: None (constant 1), a scalar, or a callable on (m, d) chart nodes.
    Real amplitudes give an exactly Hermitian operator; complex ones are
    assembled as-is with the hermitian flag cleared.  When the periodic
    axes of the grid rotate the points, T is summed by Fourier sectors
    straight into its charge blocks, or into one dense matrix when the
    charges link into one wide block.  Otherwise T is one dense matrix
    summed node by node (module notes).
    """
    wa = quad.weights * amp_values(a, quad)
    mass = complex(np.sum(wa))
    is_real = not (np.iscomplexobj(wa) and np.abs(wa.imag).max() > 0)
    if is_real:
        wa = wa.real
    axes = _sector_axes(quad)
    sector = None if axes is None else _sector(trunc, quad, wa, *axes, is_real)
    blocks = None if sector is None else _charge_blocks(sector, trunc.dim,
                                                          is_real)
    if blocks is not None:
        flushed, offblock = sector.zero_and_flush(~sector.keep)
        stored = {"layout": _fill_blocks(sector, *blocks, is_real=is_real)}
        norm2, dropped2 = sector.norm2, sector.dropped2
    else:
        T, norm2, dropped2, flushed, offblock = _assemble_dense(
            trunc, quad, wa, sector, is_real)
        stored = {"matrix": T}
    dC = math.sqrt(dropped2)
    op = HermitianOperator(**stored, trunc=trunc, normalization="raw_T",
                           hermitian=is_real, manifold_dim=sub.dim,
                           symbol_mass=mass,
                           flush_bound=dC * (2.0 * math.sqrt(norm2) + dC)
                           + flushed,
                           offblock_bound=offblock)
    _warn_if_truncated(op)
    return op


def _assemble_dense(trunc: FockTruncation, quad: Quadrature, wa: np.ndarray,
                    sector: Optional[_Sector], is_real: bool):
    """T as one dense matrix: the sector sum when there is a sector, zherk
    or zgemm node by node otherwise.  Coefficients are zeroed only when
    every charge but 0 lies within the rounding floor (module notes).

    Returns T, ||C'||^2, the bound on ||Delta C||^2 and the sector's flush
    and zeroing bounds.
    """
    # scipy.linalg costs more to import than the whole package, so it is
    # loaded on first assembly rather than with the module
    from scipy.linalg.blas import zgemm, zherk

    dim = trunc.dim
    # basis values come in Fortran order, so C and C^T pass to BLAS uncopied
    # and X accumulates in Fortran order: T^T for zgemm, the upper triangle
    # of T for zherk
    X = np.zeros((dim, dim), dtype=complex, order="F")
    norm2 = dropped2 = flushed = offblock = 0.0
    if sector is not None:
        drop = ~sector.keep
        if sector.keep[1:].any():
            drop[:] = False
        flushed, offblock = sector.zero_and_flush(drop)
        sector.fill_dense(X.T, is_real)
        norm2, dropped2 = sector.norm2, sector.dropped2
        passes = ()  # the sector sum covers every node
    elif is_real:
        passes = ((1.0, np.flatnonzero(wa > 0)), (-1.0, np.flatnonzero(wa < 0)))
    else:
        passes = ((1.0, np.flatnonzero(wa != 0)),)
    for alpha, rows in passes:
        for lo, hi in _node_chunks(rows.size, dim):
            chunk = rows[lo:hi]
            C = eval_basis_matrix(trunc, quad.points[chunk])
            C *= np.sqrt(np.abs(wa[chunk]))[:, None]
            n2, d2 = _flush(C)
            norm2 += n2
            dropped2 += d2
            if is_real:
                X = zherk(alpha, C, beta=1.0, c=X, trans=2, overwrite_c=1)
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
    return T, norm2, dropped2, flushed, offblock


def _warn_if_truncated(op: HermitianOperator) -> None:
    trunc = op.trunc
    diag = op.layout.diagonal()
    total = abs(diag.sum())
    if total == 0:
        return
    degrees = trunc.exponent_matrix.sum(axis=1)
    boundary = degrees == trunc.max_degree
    share = float(np.abs(diag)[boundary].sum()) / total
    if share > 1e-8:
        warnings.warn(
            f"top-degree basis functions carry {share:.2e} of the trace; "
            f"increase max_degree beyond {trunc.max_degree}",
            TruncationWarning, stacklevel=3)


def s_factor(k: float, N: int, d: int, d_prime: int) -> float:
    """Factor 2^{-d'/2} (pi/k)^{N - d/2} taking T to S."""
    return 2.0 ** (-0.5 * d_prime) * (math.pi / k) ** (N - 0.5 * d)


def scale_to_S(op: HermitianOperator, d_prime: int) -> HermitianOperator:
    """S = s_factor * T, block by block."""
    if op.normalization != "raw_T":
        raise ValueError("operator is already scaled")
    if op.manifold_dim is None:
        raise ValueError("operator lacks the manifold dimension tag")
    factor = s_factor(op.trunc.k, op.trunc.ambient_dim, op.manifold_dim,
                      d_prime)
    return HermitianOperator(layout=op.layout.scaled(factor), trunc=op.trunc,
                             normalization="scaled_S", hermitian=op.hermitian,
                             manifold_dim=op.manifold_dim,
                             symbol_mass=op.symbol_mass,
                             flush_bound=factor * op.flush_bound,
                             offblock_bound=factor * op.offblock_bound)


def exact_trace(op: HermitianOperator) -> tuple[float, float, float]:
    """(matrix trace, prediction (k/pi)^N * integral a dsigma, relative gap)."""
    if op.normalization != "raw_T":
        raise ValueError("exact trace identity applies to the raw T operator")
    if op.symbol_mass is None:
        raise ValueError("operator lacks the recorded amplitude mass")
    k, N = op.trunc.k, op.trunc.ambient_dim
    observed = float(op.layout.trace().real)
    predicted = (k / math.pi) ** N * op.symbol_mass.real
    gap = abs(observed - predicted) / max(abs(predicted), 1e-300)
    return observed, predicted, gap


def trace_product(op_a: HermitianOperator, op_b: HermitianOperator) -> complex:
    """Tr(A B) = sum_nm A_nm B_mn over the stored entries of both."""
    if op_a.dim != op_b.dim:
        raise ValueError("operator dimensions differ")
    dim = op_a.dim
    ra, ca, va = op_a.layout.entries()
    rb, cb, vb = op_b.layout.entries()
    if not vb.size:
        return 0j
    keys = rb * dim + cb
    order = np.argsort(keys)
    want = ca * dim + ra  # B_mn for each A_nm
    at = np.minimum(np.searchsorted(keys, want, sorter=order), keys.size - 1)
    hit = keys[order[at]] == want
    return complex(np.sum(va[hit] * vb[order[at[hit]]]))


def _sq_dists(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """|x_i - y_j|^2 for real rows, as |x|^2 + |y|^2 - 2 x.y by one gemm.

    The expansion can round below zero for near-equal points; it is clamped.
    """
    d2 = x @ y.T
    d2 *= -2.0
    d2 += np.einsum("ij,ij->i", x, x)[:, None]
    d2 += np.einsum("ij,ij->i", y, y)[None, :]
    return np.maximum(d2, 0.0, out=d2)


def _axis_groups(quad: Quadrature) -> tuple[tuple, tuple, list]:
    """Chart axes grouped so that |z - w|^2 is one sum per group.

    Returns (shape, perm, groups): the nodes in C order form a grid of
    `shape`, and `groups` holds, for each group of axes, the real
    coordinates that vary along them as an (n_g, c_g) array over the
    group's n_g nodes.  Transposing the grid by `perm` lines the groups
    up in order, each group's axes in C order.  A coordinate varies along
    an axis unless it is exactly constant along it, and axes joined by a
    varying coordinate share a group.
    """
    shape = quad.shape
    # the points as interleaved reals (x1, y1, ...) on the grid
    grid = quad.points.view(np.float64).reshape(shape + (-1,))
    varying = [{a for a in range(len(shape))
                if np.any(coord != coord.take([0], axis=a))}
               for coord in np.moveaxis(grid, -1, 0)]
    parts = [{a} for a in range(len(shape))]
    for axes in filter(None, varying):
        joined = [p for p in parts if p & axes]
        parts = [p for p in parts if not p & axes] + [set().union(*joined)]
    parts = sorted(sorted(p) for p in parts)
    groups = []
    for axes in parts:
        at = tuple(slice(None) if a in axes else 0 for a in range(len(shape)))
        cols = [c for c, ax in enumerate(varying) if ax & set(axes)]
        n = math.prod(shape[a] for a in axes)
        groups.append(grid[at][..., cols].reshape(n, len(cols)))
    return shape, tuple(a for axes in parts for a in axes), groups


def _kernel_rows(coords: np.ndarray, Y: np.ndarray, k: float):
    """(lo, hi, K[lo:hi] @ Y) by node chunks, K = e^{-k|s - t|^2} on coords."""
    n = coords.shape[0]
    for lo, hi in _node_chunks(n, n):
        K = _sq_dists(coords[lo:hi], coords)
        K *= -k
        np.exp(K, out=K)
        # K is real: apply it to the real and imaginary parts separately
        yield lo, hi, (K @ Y.real + 1j * (K @ Y.imag) if np.iscomplexobj(Y)
                       else K @ Y)


def pair_trace_integral(sub: ChartedSubmanifold, a, b, quad: Quadrature,
                        k: float) -> float:
    """(k/pi)^{2N} double integral of e^{-k|z-w|^2} a(z) b(w) dsigma^2.

    The kernel is the Kronecker product of one kernel per axis group, and
    w b meets one group kernel at a time (module notes).
    """
    N = sub.ambient_dim
    shape, perm, groups = _axis_groups(quad)
    sizes = [g.shape[0] for g in groups]

    def by_group(amp):  # w amp on the grid (n_1, ..., n_G), one axis a group
        w = quad.weights * amp_values(amp, quad)
        return w.reshape(shape).transpose(perm).reshape(sizes)

    # each product moves its group's axis last, so the next group leads
    Y = by_group(b)
    for coords in groups[:-1]:
        Y = Y.reshape(coords.shape[0], -1)
        Y = np.concatenate([KY for _, _, KY in _kernel_rows(coords, Y, k)]).T
    # the last group leads, the others follow in order: finish against w a
    Y = Y.reshape(sizes[-1], -1)
    wa = np.moveaxis(by_group(a), -1, 0).reshape(sizes[-1], -1)
    total = 0.0 + 0.0j
    for lo, hi, KY in _kernel_rows(groups[-1], Y, k):
        total += wa[lo:hi].reshape(-1) @ KY.reshape(-1)
    value = (k / math.pi) ** (2 * N) * total
    return float(value.real) if abs(value.imag) < 1e-10 * abs(value) else complex(value)


def nfold_trace_integral(sub: ChartedSubmanifold, amplitudes: Sequence, quad: Quadrature,
                         k: float, budget: float = 4e9) -> complex:
    """Direct quadrature of the cyclic trace integral for n factors.

    Tr(T_{a_1} ... T_{a_n}) = (k/pi)^{Nn} int_{Gamma^n} prod_j
    e^{-k|w_j - w_{j+1}|^2 / 2} e^{i k omega(w_j, w_{j+1})} a_j(w_j) dsigma^n,
    evaluated as a chain of node-coupling matrix products (identical sum,
    nodes^2 * n cost instead of nodes^n): the chain starts from the first
    factor, takes n - 2 products and closes with Tr(X A_n) = sum X o A_n^T.
    """
    n = len(amplitudes)
    if n < 2:
        raise ValueError("need at least two amplitudes")
    pts = quad.points
    m = pts.shape[0]
    if float(m) ** 2 * n * 16 > budget:
        raise CostLimitError(f"{m} nodes with n={n} exceeds the cost budget")
    x = pts.view(np.float64)  # interleaved reals (x1, y1, ...)
    d2 = _sq_dists(x, x)
    om = np.imag(pts @ pts.conj().T)  # omega(w_u, w_v) = Im(w_u . conj(w_v))
    kernel = np.exp(-0.5 * k * d2 + 1j * k * om)
    factors = (((quad.weights * amp_values(a, quad))[:, None] * kernel)
               for a in amplitudes)
    chain = next(factors)
    for _ in range(n - 2):
        chain = chain @ next(factors)
    N = sub.ambient_dim
    trace = np.einsum("ij,ji->", chain, next(factors))
    return (k / math.pi) ** (N * n) * complex(trace)
