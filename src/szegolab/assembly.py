"""Assembly of singular Berezin-Toeplitz operators, dense or by blocks.

T_{a dsigma} acts on the truncated Bargmann space; its matrix in the
normalized monomial basis is the Gram matrix of the basis functions
restricted to the submanifold and weighted by a dsigma.  Assembly is a
single quadrature pass, chunked over nodes so the working set stays near
a fixed memory budget.  On rotation-swept manifolds T is block-diagonal
by Fourier charge and is stored block by block (stored pattern below).

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
`quadrature()` records the periodic axes that act on the points as
rotations, z_j turning by omega^{c_j} a node, omega = e^{2 pi i / L} and
c_j an integer mod L (`manifold` module notes).  A basis function n then
has charge q_n = sum_j c_j n_j mod L on each rotation axis, and its value
at rotation index phi is omega^{phi . q_n} times its value U_n at
phi = 0.  The quadrature sum becomes
    T_nm = sum_theta conj(U_theta,n) U_theta,m F_theta[q_m - q_n],
    F_theta[q] = sum_phi w a(theta, phi) e^{2 pi i phi . q / L},
over the explicit nodes theta of the remaining axes; F is an L-scaled
inverse FFT.  The grid ordered by (theta, phi) comes from `_by_sector`,
the base points from `Quadrature.base_points` and the charges q_n from
`_basis_charges`, which the test states of `states` share.  It is the same
sum as node by node, reordered: the circle at k=400 needs one base point
instead of 3209 nodes, sphere3 at k=10 needs 23 instead of 46,575.

Along a rotation axis where w a takes the same value on every node,
tested by exact comparison of the values, the sum over phi factors: F is
L times the base value at charge 0 and exactly zero at every other
charge of that axis, and the L cancels against S_theta.  So the gather
and the FFT run only along the axes where w a varies, and F is kept on
its support, the charges that are 0 along every invariant axis.  The
weights are invariant along a rotation axis on which the chart is
proven equivariant (`manifold` module notes), so an amplitude that does
not read an axis leaves no FFT there: sphere3 with a = 1 at k=10 runs
none, with a = 1 + 0.5 cos(t2 + phi) at k=8 one along t2, and the DSL
torus amplitudes, which read both angles, two as before.  There F has no
rounding noise to drop: the circle and sphere3 with a = 1 have
offblock_bound 0.

Real amplitudes fill one triangle and mirror it, so T == T^H still holds
exactly.  With S_theta = sum_phi |w a|, the flush floor applies to
V = sqrt(S_theta) U and to the parts of F / S_theta; since the
node-by-node C has sum_phi |C|^2 = |V|^2 per basis function, ||Delta C||
and ||C'|| are read exactly from V.  A flushed coefficient adds at most
mult max|V_theta|^2 |Delta F| / S_theta to flush_bound, mult being the
largest number of basis functions that share a charge.

Stored pattern: a charge whose coefficients all lie within the FFT's
rounding floor, ceil(log2 L) eps S_theta, is noise; charge 0 is always
kept, and for a real amplitude q and -q are kept or dropped together.
The kept charges are the support, and they decide only which entries T
stores.  Basis functions n and m are linked when q_m - q_n mod L is in
the support; the connected components of the links are the diagonal
blocks of T.  A block is banded, stored between its own lower and upper
extents (its widest links below and above the diagonal), when a band
solver pays for its width (bandwidth crossover below), and dense
otherwise.  The width that counts is the block's own for a Hermitian
block, which eig_banded takes, and lower + upper for a non-Hermitian
one, which ?gbbrd takes (`spectral` module notes).  Each block is
ordered by charge, unless a level order is narrower.  No order is
narrower than half the most links of one node, so a block tries one
only when its width in charge order exceeds twice that: the search
costs one numpy pass per level, 27 ms for the 530 levels of the chain
1 + 0.3 cos t + 0.2 cos 3t at circle k=400, which gains nothing at
width 3.  It is searched breadth first from a pseudo-peripheral node
(Cuthill and McKee 1969; the start as George and Liu find it), each
level in the order of the least-ranked neighbour its nodes have in the
level before, ties broken by least charge, and the narrower of the two
orders is kept if a band solver pays for it.  1x1 blocks, chains, the
blocks of verify-all and every dense block keep their charge order.  A
support so wide that a row may link to more than dim/4 others is not
linked at all: T is one dense block.  Every stored entry is the full
sector sum, with the coefficients of every charge, noise included.  One gather fills band diagonals and dense blocks alike:
with the charge grid tiled twice along each rotation axis, (q_m - q_n)
mod L is read at the flat index col_m - row_n of the tiled grid, one
subtraction and one lookup per entry for all explicit nodes at once.
Entries outside the pattern are zero, and only noise charges reach them;
the bound of that change, mult max|V_theta|^2 sum |F_theta[noise q]| /
S_theta, is recorded as `HermitianOperator.offblock_bound`, with the
imaginary parts a gauge drops (below), not in flush_bound: at circle
k=400 with a = 1 it is about 2e-14 lambda_max, the size of the FFT's own
rounding, where flush_bound is about 2e-74.  One dense block leaves
nothing out.  An invariant amplitude on the circle, sphere3 or the tori
at the acceptance orders gives 1x1 blocks, which no solver touches; a =
1 + 0.5 cos(t1 + phi) on the torus gives one tridiagonal block per n2;
the DSL torus amplitude 1 + cos(t1)/4 + cos(t2)/4, support {0, +-e1,
+-e2}, links the whole basis into one block of bandwidth M + 1 in charge
order and about half that in level order: 9, 17 and 25 at k = 4, 8 and
12 (dim 153, 561 and 1225) for both amplitudes of the benchmark.

Dense blocks keep the noise because LAPACK runs faster on it than on
exact zeros, in real blocks as in complex ones.  Measured with eigvalsh
(2-vCPU Xeon, OpenBLAS, best to median of 5): the circle bump
exp(-8 (1 - cos t)) at k=200, one real block of dim 801 with 93% of it
unlinked, takes 0.036-0.049 s with the noise and 0.072-0.093 s with
zeros; the complex cycle torus 1 + cos(t1)/4 + cos(t2)/4 + cos(t1 + t2 +
1)/5 at k=12, dim 1225 with 99.5% unlinked, 0.54-0.62 s against
0.59-0.67 s.  A banded block holds noise only between its own extents.
In level order that band also spans unlinked pairs, 87-92% of it on
the DSL torus at k = 8 and 12, and they keep their noise as dense blocks
do; to the band solvers it makes little difference: with those entries
zeroed eig_banded and dgbbrd + dbdsqr took 6% longer to 22% less time
there (medians of 7).
The full +-w band would put noise on the unlinked side of a one-sided
non-Hermitian block, such as e^{it}(1 + cos t)/2 on the circle, and
give ?gbbrd 4 diagonals off the main one to reduce instead of 2.

Links wrap around mod L.  With L = M + 1 nodes on a rotation axis,
charges 0 and M meet: on sphere3 at k=8, M = 36 and the Lab's order
[M//2 + 1, M + 1, M + 1], a = 1 + 0.5 cos(t2) links n1 = 0 to n1 = 36 at
n2 = 0 through an aliased entry of 1.7e-8, and that chain is one cyclic
block equal to the dense quadrature sum, width 36 in charge order and 2
in level order.  The Lab's sphere order [M//2 + 1, M + 1, M + 1] is
exact only for invariant amplitudes.

Gauge: T is often real up to a diagonal unitary.  If the phases of V
split as alpha_theta + beta_n and some turn c, one angle per rotation
axis, makes every kept F_theta[q] e^{i c . q} real, then T = G B G^H with
B real and G = diag(g), g_n = e^{-i beta_n + i c . Q_n}, Q_n the integer
charge of basis function n (coordinate charges taken in (-L/2, L/2]).
`_sector` decides this from its own F and V before any fill, in
O(charges x theta): the phases of V from each column's and each row's
largest entry, and c either zero, when F is real already, or solved from
the kept charges by integer elimination of 2 c . q = -2 arg F[q] mod 2 pi
and one least-squares step weighted by |F|.  The gauge holds when every
gauged coefficient is real to the FFT's rounding floor, ceil(log2 L) eps,
at every integer difference d = q mod L that two basis functions can
reach: when L <= 2M a charge is reached by more than one d, and
e^{i c . L} must then be +-1 where F is not noise.  A charge phase around
an aliased cycle, as on sphere3 at L = M + 1 with a = 1 + 0.5 cos(t2 +
0.7), or around a cycle of charges, as with a = 1 + cos(t1)/4 +
cos(t2)/4 + cos(t1 + t2 + 1)/5, admits none, and T stays complex.  A
gauged sector fills float64 blocks, whose solvers run in real arithmetic
(`spectral` module notes), and `BlockLayout.phase` holds g: the DSL
torus at k=12, held as one dense block, takes 0.14 s in eigvalsh and
0.51 s in the SVD real, against 0.54 s and 0.97 s for the complex T.  The imaginary
parts a kept charge drops, |F_theta[q] e^{i c . d} - B coefficient|
summed over the reachable d, join the noise charges in `offblock_bound`
with the same bound mult max|V_theta|^2 sum|dropped| / S_theta.  A noise
charge is stored as the real part of F_theta[q] e^{i c . d} at the
representative d, and is bounded by |F| when no charge difference has
two integer values (2 spread < L on every axis), else by |F| plus that
real part; both bounds also cover its entries outside the pattern, and
take one pass over the charges.  The parts dropped from V join
||Delta C|| in flush_bound.  Both DSL torus amplitudes of the
benchmark, 1 + cos(t1 + p1)/4 + cos(t2 + p2)/4 and [1 + cos(t1 + p3)/2,
sin(t2 + p4)/2], qualify for every phase: one base point, real V, and
at k=12 dropped parts of at most 9e-17 (seeds 0, 7, 12, 41).  So does
any amplitude with a(c - t) = conj a(c + t) about some centre c, such as
the Schatten check's e^{it}(1 + cos t)/2 with c = 0.  Grids without
rotation axes go node by node in complex arithmetic, as before.

Bandwidth crossover: a band solver pays while its width is at most
_BAND_ROOT sqrt(n) on a block of n rows, _BAND_ROOT = 1.5.  It was set
from the widest band at which a band solver still beat the dense solver
on random blocks, measured while the band routines ran on one thread and
the dense ones on both OpenBLAS threads (2-vCPU Xeon, median of 7,
bisection on the width):

    n      eig_banded / eigvalsh    ?gbbrd + dbdsqr / SVD
           real      complex        real      complex
    40     18        4              5         4
    80     9         10             6         17
    160    18        16             25        25
    320    25        27             27        30
    640    45        40             55        45
    1225   53        48             105       64-96

The crossover grows about as sqrt(n): from n = 160 on, width / sqrt(n)
lies between 1.3 and 3.0 with median 1.6, which _BAND_ROOT rounds down.
Dense blocks below `_blas.SOLVE_ROWS` = 480 rows now run on one thread
(module notes, Threads).  Against the dense solvers as they now run, the
same bisection gives, as the range over three runs (the ?gbbrd width is
lower + upper, with lower = ceil(width / 2)):

    n      eig_banded / eigvalsh    ?gbbrd + dbdsqr / SVD
           real      complex        real      complex
    40     36-39     7-12           0-4       2-7
    80     2-14      10-17          2-8       7-15
    160    5-14      10-20          14        10-22
    320    25-45     14-26          21-28     27-34
    640    14-60     32-44          54-58     60-70

At n = 160 the one-thread dense solvers win narrower bands than before
(width / sqrt(n) 0.9-1.3 in the medians of the three runs); from n = 160
on the median of width / sqrt(n) is 1.45, so _BAND_ROOT stays at 1.5.
A new value would move layouts, and needs its own check of the verdicts.
Below n = 100 both sides take well under a millisecond.  On the DSL
torus blocks (widths above; 2 x that for the non-Hermitian amplitude,
against 18.6, 35.5 and 52.5 allowed) eig_banded takes 0.016 and 0.087 s
at k = 8 and 12 against 0.019 and 0.133 s in eigvalsh, and dgbbrd +
dbdsqr 0.047 and 0.276 s against 0.061 and 0.478 s in the SVD (medians
of 5).

Paths: the sector sum is used when the grid has at least _SECTOR_NODES =
16 rotation nodes per explicit node, and node by node below.  Summed
into the stored pattern, the sector sum won at every grid timed down to
16.  On sphere3 at k=10 (dim 1035, 2-vCPU Xeon, OpenBLAS, three runs
each of a = 1 and a = 1 + cos(t2)/2) it takes 0.04-0.14 s against
1.3-2.2 s node by node at 64 rotation nodes ([200, 8, 8]), 0.06-0.17 s
against 1.6-2.9 s at 48 ([300, 6, 8]), 0.22-0.48 s against 1.6-2.8 s at
24 ([600, 4, 6]) and 0.31-1.33 s against 1.6-1.9 s at 16 ([900, 4, 4]).
Below 16 no grid was timed, and the tests pin a 12-node grid to the
node-by-node path.  Every benchmark grid has at least 64 rotation nodes
per explicit node or no rotation axis.  Grids without rotation axes
(parabola, plane patches, non-rotation DSL charts) always go node by
node.

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

Threads: `assemble_T`, `pair_trace_integral` and `nfold_trace_integral`
run on one BLAS thread (`_blas` module notes).  The kernel products of
`_kernel_rows` and the chain products of `nfold_trace_integral` get the
thread count the caller had from `_blas.PRODUCT_SIZE` = 300 on the
smaller side of the product; the circle's pair trace, whose kernel meets
one column, stays on one thread.  The zherk and zgemm updates of a dense
T stay on one thread at every size.  Alone, zherk pays a second thread
from smaller T; ms per update of T by C^H C, C of nodes x dim, 1 / 2
threads (scipy's OpenBLAS, median of 7): 0.28 / 0.35 at 512 x 64,
0.61 / 0.79 at 4096 x 32, 1.9 / 1.3 at 256 x 256, 9.6 / 5.8 at
4096 x 128, 2.9 / 1.9 at 128 x 512, 65 / 32 at 2048 x 512.  But end to
end, a threaded zherk before a threaded dense solve loses at every dim
measured, 561 to 1225 rows: scipy's pool then spins on the core numpy's
second thread needs (the `_blas` tables).

Cost budget: a dense T, the dense blocks of a sector operator together,
and the n node-coupling matrices of `nfold_trace_integral` may take at
most _DENSE_BUDGET = 4 GB at 16 bytes an entry.  Past it CostLimitError
is raised before any of them is allocated: the real circle (cos t, 0,
sin t, 0) in C^2 at k = 80 and M = 320 would be one dense T of dim
51,681, 43 GB.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from ._blas import PRODUCT_SIZE, single_threaded, threaded
from .fock import FockTruncation, eval_basis_matrix
from .manifold import ChartedSubmanifold, Quadrature, amp_values

__all__ = [
    "BlockLayout",
    "HermitianOperator",
    "TruncationWarning",
    "CostLimitError",
    "assemble_T",
    "exact_trace",
    "trace_product",
    "pair_trace_integral",
    "nfold_trace_integral",
]

_CHUNK_BYTES = 64 << 20  # target working-set size for node chunks
_FLUSH = float(np.finfo(np.float64).tiny) ** 0.25  # see the module notes
_FILL_ROWS = 256  # row block for mirroring and for the sector sum
_EPS = float(np.finfo(np.float64).eps)
_SECTOR_NODES = 16  # rotation nodes per explicit node for the sector sum
_BAND_ROOT = 1.5  # band solvers pay to this width over sqrt(rows)
_DENSE_BUDGET = 4e9  # bytes of a dense T, or of nfold's n kernel matrices


class TruncationWarning(UserWarning):
    pass


class CostLimitError(RuntimeError):
    pass


def _within_budget(nbytes: float, what: str) -> None:
    """Raise CostLimitError, before anything is allocated, when `what`
    would take more than _DENSE_BUDGET bytes."""
    if nbytes > _DENSE_BUDGET:
        raise CostLimitError(f"{what} would take {nbytes / 1e9:.3g} GB, "
                             f"over the {_DENSE_BUDGET / 1e9:g} GB budget")


@dataclass(frozen=True)
class BlockLayout:
    """An operator matrix as diagonal blocks along a permutation.

    Position p holds basis function perm[p]; block i holds positions
    bounds[i]:bounds[i + 1].  The banded blocks come first, by bandwidth
    widths[i] = max |i - j| over their entries (1x1 blocks have width 0),
    and the dense blocks last.  `band` holds every banded block in general
    band form, band[w + i - j, j] = B at positions (i, j) with
    w = band.shape[0] // 2, and is zero between blocks and on the dense
    blocks; `dense` holds the full matrix of each dense block, in order.
    The operator is T = G B G^H, G = diag(phase) a unit phase per
    position, or T = B when `phase` is None; a gauged B is real (module
    notes).  `densify`, `apply`, `entries`, `diagonal` and `trace` give T.
    """

    perm: np.ndarray
    bounds: np.ndarray
    widths: np.ndarray
    band: np.ndarray
    dense: tuple = ()
    phase: Optional[np.ndarray] = None

    @classmethod
    def of_matrix(cls, matrix: np.ndarray) -> "BlockLayout":
        """One dense block holding the whole matrix, in basis order."""
        dim = matrix.shape[0]
        return cls(perm=np.arange(dim), bounds=np.array([0, dim]),
                   widths=np.zeros(0, dtype=np.int64),
                   band=np.zeros((1, dim), dtype=matrix.dtype),
                   dense=(matrix,))

    @property
    def half_width(self) -> int:
        return self.band.shape[0] // 2

    def dense_blocks(self):
        """(lo, hi, matrix) of each dense block."""
        b = self.bounds[len(self.widths):]
        for i, D in enumerate(self.dense):
            yield int(b[i]), int(b[i + 1]), D

    def _to_basis(self, values: np.ndarray) -> np.ndarray:
        out = np.empty_like(values)
        out[self.perm] = values
        return out

    def diagonal(self) -> np.ndarray:
        """Diagonal entries in basis order; the phases cancel on it."""
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
        if self.phase is not None:
            xp = self.phase.conj() * xp
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
        if self.phase is not None:
            y *= self.phase
        return self._to_basis(y)

    def entries(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(rows, columns, values) of T in basis indices, each entry once."""
        d, j = np.nonzero(self.band)
        rows, cols, vals = [j + d - self.half_width], [j], [self.band[d, j]]
        for lo, hi, D in self.dense_blocks():
            idx = np.arange(lo, hi)
            rows.append(np.repeat(idx, idx.size))
            cols.append(np.tile(idx, idx.size))
            vals.append(D.reshape(-1))
        rows, cols, vals = (np.concatenate(x) for x in (rows, cols, vals))
        if self.phase is not None:
            vals = vals * (self.phase[rows] * self.phase[cols].conj())
        return self.perm[rows], self.perm[cols], vals

    def densify(self) -> np.ndarray:
        """T as a dim x dim complex matrix in basis order.

        One dense block in basis order, as `of_matrix` makes, is returned
        itself, uncopied when it is complex already.
        """
        dim = self.perm.size
        if (len(self.dense) == 1 and self.dense[0].shape[0] == dim
                and self.phase is None
                and np.array_equal(self.perm, np.arange(dim))):
            return self.dense[0].astype(complex, copy=False)
        B = np.zeros((dim, dim), dtype=self.band.dtype)
        d, j = np.nonzero(self.band)
        B[self.perm[j + d - self.half_width], self.perm[j]] = self.band[d, j]
        for lo, hi, D in self.dense_blocks():
            idx = self.perm[lo:hi]
            B[np.ix_(idx, idx)] = D
        if self.phase is None:
            return B.astype(complex, copy=False)
        # B_nm g_n conj(g_m) from real products, so that a symmetric B
        # gives a T equal to its conjugate transpose bit for bit
        g = self._to_basis(self.phase)
        re = np.multiply.outer(g.real, g.real)
        re += np.multiply.outer(g.imag, g.imag)
        im = np.multiply.outer(g.imag, g.real)
        im = im - im.T
        T = np.empty((dim, dim), dtype=complex)
        np.multiply(B, re, out=T.real)
        np.multiply(B, im, out=T.imag)
        return T


class HermitianOperator:
    """T_{a dsigma} in charge blocks, tagged with its truncation.

    `layout` holds the blocks (see `BlockLayout`); every spectral function
    reads them block by block.  `matrix` builds the dense dim x dim matrix
    on first request and keeps it; a node-by-node T, one block in basis
    order, is its own matrix.  The `hermitian` flag is cleared for
    complex amplitudes, whose T is not Hermitian.  Rescalings such as the
    Szego operator S = s T act on spectra, not here (`asymptotics`).
    """

    def __init__(self, layout: BlockLayout,
                 trunc: Optional[FockTruncation] = None,
                 hermitian: bool = True,
                 symbol_mass: Optional[complex] = None,  # integral of a dsigma
                 flush_bound: float = 0.0,  # bound on ||T - T_unflushed||_2
                 offblock_bound: float = 0.0):  # zeroed charges and gauge
        self.layout = layout
        self._matrix = None
        self.trunc = trunc
        self.hermitian = hermitian
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


def _row_blocks(n: int, rows: int = _FILL_ROWS):
    for lo in range(0, n, rows):
        yield lo, min(n, lo + rows)


def _mirror_lower(T: np.ndarray) -> None:
    """Set the strict upper triangle of T to the conjugate of the lower."""
    for lo, hi in _row_blocks(T.shape[0]):
        T[lo:hi, hi:] = T[hi:, lo:hi].T.conj()
        diag = T[lo:hi, lo:hi]
        upper = np.triu_indices(hi - lo, 1)
        diag[upper] = diag.T[upper].conj()


def _sector_axes(quad: Quadrature):
    """The rotation axes `quadrature` recorded and their charges, as
    (axes, charges), or None when the grid has fewer than _SECTOR_NODES
    rotation nodes per explicit node, also when it has no rotation axis
    (module notes)."""
    if math.prod(quad.shape[a] for a in quad.rotation_axes) < _SECTOR_NODES:
        return None
    return quad.rotation_axes, quad.charges


def _by_sector(grid: np.ndarray, axes: tuple) -> np.ndarray:
    """Values on the grid, extent 1 allowed along any axis, as
    (explicit node theta, rotation multi-index phi): the explicit nodes in
    C order, so that the base points are those of `Quadrature.base_points`.
    """
    explicit = [a for a in range(grid.ndim) if a not in axes]
    return grid.transpose(explicit + list(axes)).reshape(
        (-1,) + tuple(grid.shape[a] for a in axes))


def _basis_charges(trunc: FockTruncation, charges: np.ndarray,
                   rot_shape: tuple) -> np.ndarray:
    """q[n], the charge of basis function n on each rotation axis, so that
    u_n at rotation index phi is omega^{phi . q_n} times u_n at the base
    point."""
    return trunc.exponent_matrix @ charges % np.array(rot_shape)


@dataclass
class _Sector:
    """Fourier-sector data of a rotation grid (module notes)."""

    # (explicit node theta, charge of the support): coefficients / S_theta
    F: np.ndarray
    V: np.ndarray  # sqrt(S_theta) U at the base points, flushed (Y if gauged)
    q: np.ndarray  # (dim, rotation axes) charge of each basis function
    shape: tuple  # nodes per rotation axis
    mult: int  # most basis functions sharing one charge
    peak: np.ndarray  # mult max|V_theta|^2 per explicit node
    norm2: float  # ||C'||^2
    dropped2: float  # bound on ||Delta C||^2
    keep: np.ndarray  # charges with a coefficient above the rounding floor
    # the charge of each column of F, ascending: those that are 0 along
    # every rotation axis where w a is invariant; F is zero at the others
    support: np.ndarray
    turn: Optional[np.ndarray] = None  # charge phase of the gauge, per axis
    spread: Optional[np.ndarray] = None  # widest charge difference, per axis
    phase: Optional[np.ndarray] = None  # gauge phase g_n, None if all 1
    gauge_drop: Optional[np.ndarray] = None  # what the turn drops (`_turned`)

    @property
    def flat_q(self) -> np.ndarray:
        return np.ravel_multi_index(self.q.T, self.shape)

    @property
    def gauged(self) -> bool:
        return self.turn is not None

    def at(self, charges: np.ndarray) -> np.ndarray:
        """The columns of F at the given charges of the support."""
        return self.F[:, np.searchsorted(self.support, charges)]

    def gauge_and_flush(self, outside: bool) -> tuple[float, float]:
        """Make F real if gauged, and flush it, in place.

        `outside` says whether the stored pattern leaves entries out.
        Returns the bounds on what the flush changes, and on what the
        pattern leaves out together with what the gauge drops.
        """
        cols = self.support  # F is zero at every other charge
        F, noise = self.F, ~self.keep[cols]
        # a noise charge's entries are off by |F| outside the pattern and
        # exact inside it; gauged, by at most |F| inside it when a charge
        # difference has one integer value, else by |F| + |real part|
        off = np.zeros(F.shape[0])
        if self.gauged:
            L = np.array(self.shape)
            d = _signed(np.array(np.unravel_index(cols, self.shape)).T, L)
            real = (F * np.exp(1j * (d @ self.turn))).real
            size = np.abs(F)
            if np.any(2 * self.spread >= L):
                size += np.abs(real)
            off = size @ noise + self.gauge_drop
            F = self.F = real
        elif outside:
            off = np.abs(F) @ noise
        parts = F.view(np.float64)
        small = (parts > -_FLUSH) & (parts < _FLUSH)
        flushed = np.abs(np.where(small, parts, 0.0)).sum(axis=1)
        parts[small] = 0.0
        # ||diag(conj v) G diag(v)|| <= mult max|v|^2 sum|G coefficients|
        return float(self.peak @ flushed), float(self.peak @ off)

    def pairs(self) -> tuple[np.ndarray, np.ndarray]:
        """Every (n, m) with q_m - q_n mod L a kept charge."""
        dim = self.q.shape[0]
        flat = self.flat_q
        members = np.argsort(flat, kind="stable")
        counts = np.bincount(flat, minlength=math.prod(self.shape))
        starts = np.cumsum(counts) - counts
        rows, cols = [], []
        for c in np.flatnonzero(self.keep):
            shift = np.array(np.unravel_index(c, self.shape))
            partner = np.ravel_multi_index(((self.q + shift) % self.shape).T,
                                           self.shape)
            n = counts[partner]
            offset = np.arange(n.sum()) - np.repeat(np.cumsum(n) - n, n)
            rows.append(np.repeat(np.arange(dim), n))
            cols.append(members[np.repeat(starts[partner], n) + offset])
        return np.concatenate(rows), np.concatenate(cols)


def _sector(trunc: FockTruncation, quad: Quadrature, wa: np.ndarray,
            axes: tuple, charges: np.ndarray,
            is_real: bool) -> Optional[_Sector]:
    """Fourier coefficients and base-point basis values of the grid, and
    the gauge that makes them real when there is one.

    None when w a vanishes on every node.  Along a rotation axis where w a
    takes the same value on every node, compared exactly, F is a delta
    at charge 0; the gather and the FFT run only along the other axes.
    """
    rot_shape = tuple(quad.shape[a] for a in axes)
    q = _basis_charges(trunc, charges, rot_shape)
    grid = wa.reshape(quad.shape)
    varying = []
    for a in axes:
        base = grid[(slice(None),) * a + (slice(0, 1),)]
        if np.array_equal(grid, np.broadcast_to(base, grid.shape)):
            grid = base
        else:
            varying.append(a)
    wa_grid = _by_sector(grid, axes)
    scale = np.abs(wa_grid).reshape(wa_grid.shape[0], -1).sum(axis=1)
    live = scale > 0
    wa_grid, scale = wa_grid[live], scale[live]
    if not scale.size:
        return None
    rot = math.prod(rot_shape)
    # F[theta, q] = sum_phi w a e^{2 pi i phi . q / L}, relative to scale
    from numpy.fft import ifftn
    fft_axes = tuple(1 + i for i, a in enumerate(axes) if a in varying)
    F = (ifftn(wa_grid, axes=fft_axes) if fft_axes
         else wa_grid.astype(complex))
    F *= (wa_grid[0].size / scale).reshape((-1,) + (1,) * len(axes))
    F = np.ascontiguousarray(F.reshape(F.shape[0], -1))
    if is_real:
        F[:, 0] = F[:, 0].real  # exact for real w a; keeps diag(T) real
    # charges whose coefficients all lie within the FFT's rounding floor
    floor = max(1, math.ceil(math.log2(rot))) * _EPS
    # sum_phi over an invariant axis is L times the base value: F is zero
    # off charge 0 there, and the L cancels against the scale
    support = np.arange(rot).reshape(rot_shape)[
        tuple(slice(None) if a in varying else slice(0, 1)
              for a in axes)].reshape(-1)
    scale *= rot // wa_grid[0].size
    keep = np.zeros(rot, dtype=bool)
    keep[support] = np.abs(F).max(axis=0) > floor
    keep[0] = True
    if is_real:  # F[-q] = conj F[q] up to rounding: keep both or neither
        grid = np.arange(rot).reshape(rot_shape)
        minus = np.roll(np.flip(grid), 1, axis=tuple(range(grid.ndim)))
        keep |= keep[minus.reshape(-1)]
    mult = int(np.bincount(np.ravel_multi_index(q.T, rot_shape)).max())
    # V = sqrt(sum_phi |w a|) U at the base points phi = 0
    V = eval_basis_matrix(trunc, quad.base_points[live])
    V *= np.sqrt(scale)[:, None]
    norm2, dropped2 = _flush(V)
    sector = _Sector(F=F, V=V, q=q, shape=rot_shape, mult=mult,
                     peak=mult * np.abs(V).max(axis=1) ** 2, norm2=norm2,
                     dropped2=dropped2, keep=keep, support=support)
    # the integer charges, from coordinate charges in (-L/2, L/2]
    Q = trunc.exponent_matrix @ _signed(charges, np.array(rot_shape))
    spread = Q.max(axis=0) - Q.min(axis=0)
    split = _split_phases(V, floor)
    if split is None:
        return sector

    kept = np.flatnonzero(keep)

    def real_to_floor(turn):
        _, total, worst = _turned(sector.at(kept), kept, rot_shape, turn,
                                  spread)
        sector.gauge_drop = total.sum(axis=1)
        return worst.max(initial=0.0) <= floor

    # no turn at all where F is real already, else the one its charges ask
    turn = np.zeros(len(axes))
    if not real_to_floor(turn):
        turn = _charge_turn(sector.at(kept[1:]), kept[1:], rot_shape)
        if not real_to_floor(turn):
            return sector
    Y, p, imag2 = split
    phase = p.conj() * np.exp(1j * (Q @ turn))
    sector.V, sector.turn, sector.spread = Y, turn, spread
    sector.phase = None if np.all(phase == 1) else phase
    sector.dropped2 += imag2
    return sector


def _signed(c: np.ndarray, L: np.ndarray) -> np.ndarray:
    """The representatives of c mod L in (-L/2, L/2]."""
    return (c + (L - 1) // 2) % L - (L - 1) // 2


def _unit(z: np.ndarray) -> np.ndarray:
    """z / |z|, and 1 where z is 0."""
    size = np.abs(z)
    safe = np.where(size > 0, size, 1.0)
    unit = z.real / safe + 1j * (z.imag / safe)  # exact 1 on positive reals
    unit[size == 0] = 1.0
    return unit


def _split_phases(V: np.ndarray, floor: float):
    """V as Y_theta,n a_theta p_n with Y real and |a| = |p| = 1, or None.

    A real V is its own Y.  Otherwise p_n is the unit phase of column n
    at its largest entry and a_theta that of row theta at its largest
    entry once p is divided out.  Returns
    (Y, p, ||Im||^2 of what is dropped), or None when an imaginary part
    left exceeds `floor` times its row's largest |V|.
    """
    if not V.imag.any():
        return V.real.copy(), np.ones(V.shape[1]), 0.0
    mag = np.abs(V)
    p = _unit(V[mag.argmax(axis=0), np.arange(V.shape[1])])
    X = V * p.conj()
    a = _unit(X[np.arange(V.shape[0]), mag.argmax(axis=1)])
    X *= a.conj()[:, None]
    if np.any(np.abs(X.imag) > floor * mag.max(axis=1, keepdims=True)):
        return None
    return X.real.copy(), p, float(np.vdot(X.imag, X.imag))


def _charge_turn(F: np.ndarray, cols: np.ndarray, shape: tuple) -> np.ndarray:
    """The turn c, one angle per rotation axis, that the kept charges
    `cols` other than 0, with coefficients F (theta, len(cols)), ask for:
    F_theta[q] e^{i c . q} real means 2 c . q = -2 arg F_theta[q]
    mod 2 pi.  The charges, strongest first, are brought to integer
    echelon form by Euclid's algorithm down each axis, with the angles
    following the row operations, and the echelon rows are solved for c.
    Whether c makes F real is checked by `_turned`.
    """
    strength = np.abs(F)
    by_strength = np.argsort(-strength.max(axis=0), kind="stable")
    cols = cols[by_strength]
    at = strength[:, by_strength].argmax(axis=0)
    L = np.array(shape)
    charge = _signed(np.array(np.unravel_index(cols, shape)).T, L)
    coef = F[at, by_strength]
    A, angle = charge.copy(), -2.0 * np.angle(coef)
    row = 0
    for axis in range(len(shape)):
        while True:
            nonzero = row + np.flatnonzero(A[row:, axis])
            if not nonzero.size:
                break
            pivot = nonzero[np.argmin(np.abs(A[nonzero, axis]))]
            swap = [pivot, row]
            A[[row, pivot]], angle[[row, pivot]] = A[swap], angle[swap]
            rest = row + 1 + np.flatnonzero(A[row + 1:, axis])
            if not rest.size:
                row += 1
                break
            m = A[rest, axis] // A[row, axis]
            A[rest] -= m[:, None] * A[row]
            angle[rest] -= m * angle[row]
    if not row:
        return np.zeros(len(shape))
    turn = np.linalg.lstsq(A[:row].astype(float), angle[:row] / 2.0,
                           rcond=None)[0]
    # c and c + pi e_j make the same coefficients real
    turn = (turn + 0.5 * math.pi) % math.pi - 0.5 * math.pi
    # one least-squares step on the angles left over, weighted by |F|,
    # takes the rounding of the steps above out of the imaginary parts
    left = np.angle(coef * np.exp(1j * (charge @ turn)))
    left = (left + 0.5 * math.pi) % math.pi - 0.5 * math.pi
    size = np.abs(coef)[:, None]
    return turn - np.linalg.lstsq(charge * size, left * size[:, 0],
                                  rcond=None)[0]


def _turned(Fc: np.ndarray, cols: np.ndarray, shape: tuple,
            turn: np.ndarray, spread: np.ndarray):
    """The gauged coefficients Fc (theta, len(cols)) of the charges `cols`
    and what they drop.

    Returns R = Re(F e^{i c . d}) at the representative d in (-L/2, L/2]
    of each charge, and the sum and the largest of
    |F e^{i c . d'} - R| over every integer charge difference d' = d
    mod L with |d'| <= spread, each (theta, len(cols)).
    """
    L = np.array(shape)
    d = _signed(np.array(np.unravel_index(cols, shape)).T, L)
    real = (Fc * np.exp(1j * (d @ turn))).real
    total, worst = np.zeros(Fc.shape), np.zeros(Fc.shape)
    # |d| <= L/2, so d + wrap L is within the spread only for these wraps
    wraps = np.array(list(itertools.product(
        *(range(-r, r + 1) for r in (spread + L // 2) // L)))) * L
    reached = np.all(np.abs(d + wraps[:, None, :]) <= spread, axis=2)
    for wrap, hit in zip(wraps, reached):
        if not hit.any():
            continue
        dw = d[hit] + wrap
        err = np.abs(Fc[:, hit] * np.exp(1j * (dw @ turn)) - real[:, hit])
        total[:, hit] += err
        worst[:, hit] = np.maximum(worst[:, hit], err)
    return real, total, worst


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


def _band_pays(width, rows):
    """Whether a band solver of this width beats the dense solver on a
    block of this many rows: width <= _BAND_ROOT sqrt(rows) (module
    notes)."""
    return width <= _BAND_ROOT * np.sqrt(rows)


def _extents(order: np.ndarray, comp: np.ndarray, rows: np.ndarray,
             cols: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Lower and upper bandwidth of each component, its nodes placed in
    `order`: the widest link below and above the diagonal."""
    pos = np.empty_like(order)
    pos[order] = np.arange(order.size)
    step = pos[rows] - pos[cols]
    lower = np.zeros(comp.max() + 1, dtype=np.int64)
    upper = np.zeros_like(lower)
    np.maximum.at(lower, comp[rows], step)
    np.maximum.at(upper, comp[rows], -step)
    return lower, upper


def _level_order(a: np.ndarray, b: np.ndarray, comp: np.ndarray,
                 charge: np.ndarray, wide: np.ndarray) -> np.ndarray:
    """A Cuthill-McKee key for the nodes of the components `wide`.

    (a, b) are the links, each once.  Each component is searched breadth
    first from a pseudo-peripheral node; the nodes of each level follow
    the least-ranked neighbour they have in the level before, ties broken
    by least charge.  The start is found as George and Liu do: from the
    least charge, the end of the last level with fewest links (then least
    charge), while that lengthens the search.  Returns, per node, a key
    that sorts each wide component into that order.
    """
    n = comp.size
    link = wide[comp[a]]
    src = np.concatenate([a[link], b[link]])
    dst = np.concatenate([b[link], a[link]])
    # the neighbours of each node in a row, least charge first: a level
    # then lists each child first under its least-ranked parent
    by_src = np.lexsort((dst, charge[dst], src))
    src, dst = src[by_src], dst[by_src]
    degree = np.bincount(src, minlength=n)
    first = np.cumsum(degree) - degree

    def search(start):
        level = np.full(n, -1, dtype=np.int64)
        level[start] = 0
        fronts = [start]
        seen = np.empty(n, dtype=np.int64)
        while fronts[-1].size:
            front = fronts[-1]
            count = degree[front]
            at = (np.repeat(first[front] - np.cumsum(count) + count, count)
                  + np.arange(count.sum()))
            child = dst[at]
            child = child[level[child] < 0]
            # each child once, at its first occurrence: scattered in
            # reverse, the first position of a child is written last
            place = np.arange(child.size)
            seen[child[::-1]] = place[::-1]
            child = child[seen[child] == place]
            level[child] = len(fronts)
            fronts.append(child)
        rank = np.full(n, -1, dtype=np.int64)
        order = np.concatenate(fronts)
        rank[order] = np.arange(order.size)
        return level, rank

    def least(mask, *keys):
        """Per component, the node of `mask` least in `keys`, then index."""
        nodes = np.flatnonzero(mask)
        nodes = nodes[np.lexsort(tuple(k[nodes] for k in keys[::-1]))]
        return nodes[np.unique(comp[nodes], return_index=True)[1]]

    members = wide[comp]
    start = least(members, charge)
    level, rank = search(start)
    ecc = np.zeros(wide.size, dtype=np.int64)
    np.maximum.at(ecc, comp[members], level[members])
    while True:
        last = members & (level == ecc[comp])
        level2, rank2 = search(least(last, degree, charge))
        ecc2 = np.zeros_like(ecc)
        np.maximum.at(ecc2, comp[members], level2[members])
        longer = ecc2 > ecc
        if not longer.any():
            return rank
        take = longer[comp]
        level[take], rank[take] = level2[take], rank2[take]
        ecc[longer] = ecc2[longer]


def _charge_blocks(sector: _Sector, dim: int, is_real: bool):
    """The stored pattern: blocks of the charge graph and their extents.

    Basis functions n and m are linked when q_m - q_n mod L is a kept
    charge.  Each component is ordered by charge, or by levels when they
    give a narrower band that a band solver pays for; a block is dense
    when no band solver pays for its width (`_band_pays`), and so is the
    one block of a support too wide to link.  Returns perm, bounds and
    widths in `BlockLayout` order, and the lower and upper bandwidths of
    the banded blocks.
    """
    none = np.zeros(0, dtype=np.int64)
    # a row links to at most (kept charges) * mult others: past a quarter
    # of dim the support is too wide for blocks to pay
    if np.count_nonzero(sector.keep) * sector.mult > dim / 4:
        return np.arange(dim), np.array([0, dim]), none, none, none
    rows, cols = sector.pairs()
    _, comp = np.unique(_components(dim, rows, cols), return_inverse=True)
    size = np.bincount(comp)

    def solver_width(lower, upper):
        # eig_banded takes the block's own band, ?gbbrd both extents
        return np.maximum(lower, upper) if is_real else lower + upper

    key = sector.flat_q
    order = np.lexsort((key, comp))  # by component, then charge
    lower, upper = _extents(order, comp, rows, cols)
    # each link once; no order narrows a band below half the most links
    # of one node, so a level order is tried only on blocks wider than
    # twice that, where it can save more than it costs
    other = rows != cols
    edge = np.unique(np.minimum(rows, cols)[other] * dim
                     + np.maximum(rows, cols)[other])
    a, b = edge // dim, edge % dim
    most = np.zeros_like(lower)
    np.maximum.at(most, comp, np.bincount(a, minlength=dim)
                  + np.bincount(b, minlength=dim))
    wide = solver_width(lower, upper) > most
    if wide.any():
        levels = np.where(wide[comp], _level_order(a, b, comp, key, wide),
                          key)
        lower2, upper2 = _extents(np.lexsort((levels, comp)), comp, rows,
                                  cols)
        level_width = solver_width(lower2, upper2)
        # a block that stays dense keeps its charge order
        narrower = (wide & (level_width < solver_width(lower, upper))
                    & _band_pays(level_width, size))
        if narrower.any():
            key = np.where(narrower[comp], levels, key)
            order = np.lexsort((key, comp))
            lower = np.where(narrower, lower2, lower)
            upper = np.where(narrower, upper2, upper)
    width = np.maximum(lower, upper)
    dense = ~_band_pays(solver_width(lower, upper), size)
    # banded blocks by bandwidth, then dense blocks; each keeps its order
    rank = np.empty_like(width)
    rank[np.lexsort((width, dense))] = np.arange(width.size)
    perm = order[np.argsort(rank[comp[order]], kind="stable")]
    sizes = np.bincount(rank[comp], minlength=width.size)
    bounds = np.concatenate([[0], np.cumsum(sizes)])
    banded = np.argsort(rank)[:np.count_nonzero(~dense)]
    return perm, bounds, width[banded], lower[banded], upper[banded]


def _fill(sector: _Sector, perm: np.ndarray, bounds: np.ndarray,
          widths: np.ndarray, lower: np.ndarray, upper: np.ndarray,
          is_real: bool) -> BlockLayout:
    """Sum the sector into the stored pattern: every entry of each dense
    block, and each banded block between its own lower and upper extents;
    for real amplitudes the lower triangle, mirrored."""
    sizes = np.diff(bounds[widths.size:])
    _within_budget(16.0 * float(np.sum(sizes.astype(float) ** 2)),
                   f"dense blocks up to {sizes.max(initial=0)} rows")
    F, L = sector.F, np.array(sector.shape)
    dim, nband = perm.size, int(bounds[len(widths)])
    # the column of F of each charge; off the support, a zero column
    column = np.full(L.prod(), F.shape[1])
    column[sector.support] = np.arange(F.shape[1])
    F = np.concatenate([F, np.zeros((F.shape[0], 1), F.dtype)], axis=1)
    # the charges tiled twice along each rotation axis, where (q_m - q_n)
    # mod L sits at the flat index col_m - row_n: one subtraction, no
    # remainder, and one lookup per entry for every explicit node
    tiled = np.tile(column.reshape(sector.shape), (2,) * L.size).ravel()
    q = sector.q[perm].T
    row, col = (np.ravel_multi_index(x, 2 * L) for x in (q, q + L[:, None]))
    V = sector.V[:, perm]
    Vr = V.conj()
    dtype = np.result_type(V, F)  # float64 when gauged
    # entries times explicit nodes per gather: one row block of a dense T
    budget = _FILL_ROWS * dim

    def gather(i, j):
        """T at positions (i, j), broadcast:
        sum_theta conj(V_theta,i) V_theta,j F_theta[q_j - q_i]."""
        terms = np.take(F, tiled[col[j] - row[i]], axis=1)
        terms *= Vr[:, i]
        terms *= V[:, j]
        return terms.sum(axis=0)

    # banded blocks: diagonal d = i - j from -upper to lower of each block
    w = int(widths.max(initial=0))
    band = np.zeros((2 * w + 1, dim), dtype=dtype)
    block = np.repeat(np.arange(widths.size), np.diff(bounds[:widths.size + 1]))
    i, j = [], []
    for d in range(0 if is_real else -w, w + 1):
        at = np.arange(max(0, -d), min(nband, nband - d))
        b = block[at]
        at = at[(block[at + d] == b) & (d <= lower[b]) & (-d <= upper[b])]
        i.append(at + d)
        j.append(at)
    i, j = np.concatenate(i), np.concatenate(j)
    for lo, hi in _row_blocks(i.size, max(1, budget // F.shape[0])):
        band[w + i[lo:hi] - j[lo:hi], j[lo:hi]] = gather(i[lo:hi], j[lo:hi])
    if is_real:
        band[w] = band[w].real
        for d in range(1, w + 1):
            band[w - d, d:] = band[w + d, :dim - d].conj()
    dense = []
    for lo, hi in zip(bounds[widths.size:-1], bounds[widths.size + 1:]):
        n = hi - lo
        D = np.empty((n, n), dtype=dtype)
        for top, end in _row_blocks(n, max(1, budget // (F.shape[0] * n))):
            cols = end if is_real else n
            D[top:end, :cols] = gather(np.arange(lo + top, lo + end)[:, None],
                                       np.arange(lo, lo + cols)[None, :])
        if is_real:
            _mirror_lower(D)
            D[np.diag_indices(n)] = D.diagonal().real
        dense.append(D)
    return BlockLayout(perm=perm, bounds=bounds, widths=widths, band=band,
                       dense=tuple(dense),
                       phase=None if sector.phase is None
                       else sector.phase[perm])


@single_threaded()
def assemble_T(trunc: FockTruncation, sub: ChartedSubmanifold, a,
               quad: Quadrature) -> HermitianOperator:
    """Assemble T_{a dsigma} as a Gram matrix over the quadrature.

    a: None (constant 1), a scalar, or a callable on (m, d) chart nodes.
    Real amplitudes give an exactly Hermitian operator; complex ones are
    assembled as-is with the hermitian flag cleared.  When the periodic
    axes of the grid rotate the points, T is summed by Fourier sectors
    straight into its charge blocks; otherwise it is one dense block
    summed node by node (module notes).
    """
    wa = quad.weights * amp_values(a, quad)
    mass = complex(np.sum(wa))
    is_real = not (np.iscomplexobj(wa) and np.abs(wa.imag).max() > 0)
    if is_real:
        wa = wa.real
    axes = _sector_axes(quad)
    sector = None if axes is None else _sector(trunc, quad, wa, *axes, is_real)
    if sector is None:
        T, norm2, dropped2 = _assemble_dense(trunc, quad, wa, is_real)
        layout, flushed, offblock = BlockLayout.of_matrix(T), 0.0, 0.0
    else:
        blocks = _charge_blocks(sector, trunc.dim, is_real)
        _, bounds, widths, _, _ = blocks
        # only one dense block of the whole basis leaves no entry out
        flushed, offblock = sector.gauge_and_flush(
            outside=len(bounds) > 2 or widths.size > 0)
        layout = _fill(sector, *blocks, is_real=is_real)
        norm2, dropped2 = sector.norm2, sector.dropped2
    dC = math.sqrt(dropped2)
    op = HermitianOperator(layout, trunc=trunc, hermitian=is_real,
                           symbol_mass=mass,
                           flush_bound=dC * (2.0 * math.sqrt(norm2) + dC)
                           + flushed,
                           offblock_bound=offblock)
    _warn_if_truncated(op)
    return op


def _assemble_dense(trunc: FockTruncation, quad: Quadrature, wa: np.ndarray,
                    is_real: bool):
    """T as one dense matrix, by zherk or zgemm node by node.

    Returns T, ||C'||^2 and the bound on ||Delta C||^2.
    """
    # scipy.linalg costs more to import than the whole package, so it is
    # loaded on first assembly rather than with the module
    from scipy.linalg.blas import zgemm, zherk

    dim = trunc.dim
    _within_budget(16.0 * dim * dim, f"a dense {dim} x {dim} T")
    # basis values come in Fortran order, so C and C^T pass to BLAS uncopied
    # and X accumulates in Fortran order: T^T for zgemm, the upper triangle
    # of T for zherk
    X = np.zeros((dim, dim), dtype=complex, order="F")
    norm2 = dropped2 = 0.0
    if is_real:
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
    return T, norm2, dropped2


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
        # past this function, assemble_T and its single_threaded wrapper,
        # so that the warning names the line that called assemble_T
        warnings.warn(
            f"top-degree basis functions carry {share:.2e} of the trace; "
            f"increase max_degree beyond {trunc.max_degree}",
            TruncationWarning, stacklevel=4)


def exact_trace(op: HermitianOperator) -> tuple[float, float, float]:
    """(matrix trace, prediction (k/pi)^N * integral a dsigma, relative gap)."""
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
        with threaded(min(hi - lo, Y.shape[1]), PRODUCT_SIZE):
            KY = (K @ Y.real + 1j * (K @ Y.imag) if np.iscomplexobj(Y)
                  else K @ Y)
        yield lo, hi, KY


@single_threaded()
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


@single_threaded()
def nfold_trace_integral(sub: ChartedSubmanifold, amplitudes: Sequence, quad: Quadrature,
                         k: float) -> complex:
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
    _within_budget(16.0 * m * m * n, f"{n} kernels on {m} nodes")
    x = pts.view(np.float64)  # interleaved reals (x1, y1, ...)
    d2 = _sq_dists(x, x)
    om = np.imag(pts @ pts.conj().T)  # omega(w_u, w_v) = Im(w_u . conj(w_v))
    kernel = np.exp(-0.5 * k * d2 + 1j * k * om)
    factors = (((quad.weights * amp_values(a, quad))[:, None] * kernel)
               for a in amplitudes)
    chain = next(factors)
    for _ in range(n - 2):
        factor = next(factors)
        with threaded(m, PRODUCT_SIZE):
            chain = chain @ factor
    N = sub.ambient_dim
    trace = np.einsum("ij,ji->", chain, next(factors))
    return (k / math.pi) ** (N * n) * complex(trace)
