"""Parametrized submanifolds of R^{2N} = C^N.

A ChartedSubmanifold is one parametrization: a map gamma from a box of
R^d into interleaved real coordinates (x1, y1, ..., xN, yN), its jacobian
and periodicity flags.  From the jacobian columns we form the induced
metric G, the pulled-back symplectic form H, the endomorphism W = G^{-1}H
whose eigenvalues +-i lambda_ell classify the submanifold, and the Hessian
factor Delta_n that drives all trace asymptotics.  `frame_at` is the one
place that computes the W spectrum of a chart: it takes a stack of
parameter points and returns a GeometryFrame of arrays, which `classify`,
`delta_n` and `Quadrature.frame` read.

Quadrature by axis: a quadrature is a tensor grid whose weights are the
cell volumes times the surface density sqrt(det G).  The chart is never
called node by node.  `quadrature()` passes it the d axis vectors of the
grid, shaped to broadcast (n_j along axis j, 1 elsewhere), and the chart
returns each real coordinate and each jacobian entry at the shape of the
axes it reads: on sphere3, z1 = r sqrt(1 - s) e^{ia} comes back as an
(n_s, n_a, 1) array, and a constant entry may be 0-d.  The N complex
coordinates are kept at those shapes in `Quadrature.coords`, which the
rotation check and `max_radius` read; `points` is filled from them by
broadcasting on first use, and `base_points` reads them without it.

Rotation axes: a periodic axis with L nodes is a rotation axis when, for
every coordinate j, z_j at the next node along it (wrapping around)
equals omega^{c_j} z_j on every node, omega = e^{2 pi i / L} and c_j an
integer mod L, to _ROTATION_TOL = 64 eps max|z|.  The check reads only
the coordinates, so DSL charts qualify as the built-in ones do, and each
z_j at the shape of the axes it varies along: on sphere3 at k=10 that is
23 x 45 values a coordinate instead of 46,575.  A coordinate of extent 1
along an axis is constant along it and has charge 0 exactly.  The others
are read in blocks of slabs along the axis, each block a view of about
_SLAB_BYTES paired with the view one slab further on, the last slab with
the first: no shifted copy is made.  `quadrature()` records the axes and
the charges c_j, which `assembly` and `states` read.

Weights: that an axis rotates the points at the nodes does not make the
chart equivariant, so the weights are shared along a rotation axis only
where the jacobian proves it: the complex tangents dz_j/dt_i at the next
node must be omega^{c_j} times those at the node, to _ROTATION_TOL of
the largest |dz_j/dt_i| of the block checked.  Then G, and with it
sqrt(det G), is the same along the axis, and it is formed once per base
node, at index 0 along the axis, and broadcast: the weights are exactly
invariant there, and a base node's weight has the bits of a node-by-node
pass.  The DSL chart (cos(t + 0.01 sin 32t), sin(t + 0.01 sin 32t)) at
64 nodes puts every node on the unit circle one step of 2 pi / 64 apart,
yet |gamma'| alternates between 1.32 and 0.68: its tangents do not turn,
and its weights, 0.130 and 0.067, stay per node.

Blocks: the jacobian is evaluated block by block, each block a C-order
run of the grid whose jacobian and metric take at most _CHUNK_BYTES,
on the block's axis vectors, so each chart expression is evaluated once
a block.  The blocks of one run along the axis the blocks cut are joined
while their jacobian values fit in _CHUNK_BYTES, and each joined run is
settled at once: the tangent check along the rotation axes it holds
whole, then sqrt(det G) on the nodes left, in blocks.  On sphere3 the
jacobian entries read two of the three axes, so at k = 10 the whole grid
is one run, and at k = 40 each s node is one run of five blocks; a chart
whose entries read every axis fills the budget block by block, and an
axis its blocks cut keeps per-node weights.  sqrt(det G) comes from a
Cholesky elimination of G written as O(d^2) broadcast operations
(`_sqrt_det_metric`), for any d; a pivot that is not positive raises
SingularMetricError.  So memory holds the nodes and weights of the
grid, its coordinates at their own shapes, and the jacobian and metric
of one run, never the (m, 2N, d) jacobians or (m, d, d) metrics of all
m nodes.  Every metric value is the same operation on the same operands
as node by node, and each entry of G sums its 2N products in row order,
as numpy's einsum does over the strided rows of an (m, 2N, d) stack when
d > 1, so the weights of base nodes, and of every node where no weight
is shared, keep the bits of a node-by-node pass.  A curve (d = 1) has
contiguous rows, which einsum sums in SIMD lanes, so with N >= 2 its
weights can differ from an einsum pass by one ulp.

Stacks of parameter points, (m, d), reach the chart as their d columns
through `chart_rows`, which puts the values back as (m, 2N) coordinates
or (m, 2N, d) jacobians.  `frame_at`, and with it `Quadrature.frame`,
computes the W spectrum that way over blocks of the same size, runs of
its m points.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Optional, Sequence

import numpy as np

from . import dsl
from ._blas import single_threaded

__all__ = [
    "ChartedSubmanifold",
    "GeometryFrame",
    "Classification",
    "Quadrature",
    "frame_at",
    "classify",
    "d_prime",
    "delta_n",
    "quadrature",
    "chart_rows",
    "real_to_complex",
    "circle",
    "torus_product",
    "parabola_patch",
    "plane_patch",
    "sphere3",
    "custom_chart",
    "manifold_from_spec",
    "amp_values",
    "amplitude_from_dsl",
    "default_max_degree",
    "default_periodic_nodes",
]

LAMBDA_TOL = 1e-8
_CHUNK_BYTES = 1 << 20  # jacobian and metric working set of a node block
_ROTATION_TOL = 64 * float(np.finfo(np.float64).eps)  # relative, module notes
_SLAB_BYTES = 1 << 20  # points compared per operation in the rotation check


def real_to_complex(x: np.ndarray) -> np.ndarray:
    """(m, 2N) interleaved reals -> (m, N) complex, z_j = x_j + i y_j."""
    x = np.asarray(x, dtype=float)
    return x[..., 0::2] + 1j * x[..., 1::2]


@dataclass(frozen=True)
class ChartedSubmanifold:
    """Submanifold given by one parametrization t in a box of R^d -> R^{2N}.

    gamma and jacobian take the parameters as d columns t_1..t_d, arrays
    that broadcast together: the axis vectors of a tensor grid, or the
    columns of a stack of points (module notes).  gamma returns the 2N real
    coordinates (x1, y1, ..., xN, yN) and jacobian the 2N rows of d entries
    d(gamma_a)/dt_j, each value at the broadcast shape of the columns it
    reads; a constant may be a 0-d value.
    """

    dim: int
    ambient_dim: int
    domain: tuple[tuple[float, float], ...]
    periodic: tuple[bool, ...]
    gamma: Callable[[list], list]
    jacobian: Callable[[list], list]
    label: str = "manifold"

    def __post_init__(self):
        if len(self.domain) != self.dim or len(self.periodic) != self.dim:
            raise ValueError("domain and periodic must have one entry per axis")
        if not 1 <= self.dim <= 2 * self.ambient_dim:
            raise ValueError("manifold dimension must lie in [1, 2N]")


@dataclass(frozen=True)
class GeometryFrame:
    """The W-spectrum at m stacked parameter points, as `_geometry` gives
    it: lam (m, d) ascending, each +-i lambda pair showing twice, and
    is_lambda (m, d) marking one entry of each pair."""

    lam: np.ndarray
    is_lambda: np.ndarray

    @property
    def dim(self) -> int:
        return self.lam.shape[1]

    @property
    def half_rank(self) -> np.ndarray:
        """r, the number of positive lambdas, at each point."""
        return self.is_lambda.sum(axis=1)


class SingularMetricError(ValueError):
    pass


class ClassificationError(ValueError):
    pass


def _block_nodes(sub: ChartedSubmanifold) -> int:
    """Nodes whose jacobian and metric take about _CHUNK_BYTES."""
    d = sub.dim
    return max(1, _CHUNK_BYTES // (8 * d * (2 * sub.ambient_dim + d)))


def _grid_blocks(shape: tuple, nodes: int):
    """Blocks of a grid of `shape` as tuples of slices over its leading
    axes, each a C-order run of at most `nodes` nodes, one at least."""
    # the first axis whose trailing grid fits is cut into runs of rows;
    # the axes before it are walked one index at a time
    lead = next(a for a in range(len(shape))
                if math.prod(shape[a + 1:]) <= nodes)
    rows = max(1, nodes // math.prod(shape[lead + 1:]))
    for index in itertools.product(*map(range, shape[:lead])):
        for lo in range(0, shape[lead], rows):
            yield (tuple(slice(i, i + 1) for i in index)
                   + (slice(lo, lo + rows),))


def _axis_columns(xs: Sequence[np.ndarray], block: tuple = ()) -> list:
    """The axis vectors xs, restricted to a block, shaped to broadcast:
    n_j along axis j and 1 along the others."""
    d = len(xs)
    return [(x[block[j]] if j < len(block) else x).reshape(
        (1,) * j + (-1,) + (1,) * (d - j - 1)) for j, x in enumerate(xs)]


def _on_grid(values, shape: tuple):
    """Chart values, a (nested) sequence, as float arrays that broadcast
    to a grid of `shape`."""
    if isinstance(values, (list, tuple)):
        return [_on_grid(v, shape) for v in values]
    v = np.asarray(values, dtype=float)
    if v.ndim and (v.ndim != len(shape) or any(
            n not in (1, L) for n, L in zip(v.shape, shape))):
        raise ValueError(f"chart value of shape {v.shape} does not "
                         f"broadcast to the grid {shape}")
    return v


def chart_rows(f: Callable, t) -> np.ndarray:
    """A chart callable f (`gamma` or `jacobian`) at the rows of t, (m, d):
    (m, 2N) coordinates or (m, 2N, d) jacobians."""
    t = np.asarray(t, dtype=float)

    def stack(values):
        if isinstance(values, (list, tuple)):
            return np.stack([stack(v) for v in values], axis=1)
        return np.broadcast_to(np.asarray(values, dtype=float), t.shape[:1])

    return stack(f(list(t.T)))


def _sqrt_det_metric(J) -> np.ndarray:
    """sqrt(det G), G = J^T J, for a jacobian given as 2N rows J[a] of d
    entries J[a][j] that broadcast together.

    A stacked (m, 2N, d) array passes as np.moveaxis(J, 0, -1).  G = L D
    L^T is factored by Cholesky elimination with the nodes as the vector
    dimension: each entry of G sums the products of two columns over the
    rows in order, and each elimination step is one Schur-complement
    update, O(d^2) vector operations in all for any d.  det G is the
    product of the pivots D; a pivot that is not positive means a
    singular metric.
    """
    d = len(J[0])
    G = [[None] * d for _ in range(d)]
    for i in range(d):
        for j in range(i + 1):
            g = J[0][i] * J[0][j]
            for row in J[1:]:
                g = g + row[i] * row[j]
            G[i][j] = G[j][i] = g
    det = 1.0
    for j in range(d):
        pivot = G[j][j]
        if not np.all(pivot > 0):
            raise SingularMetricError("non-positive metric pivot at a node")
        det = det * pivot
        for a in range(j + 1, d):
            for b in range(j + 1, d):
                G[a][b] = G[a][b] - G[a][j] * (G[j][b] / pivot)
    return np.sqrt(det)


def _geometry(J: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """W-spectrum of stacked jacobians J, (m, 2N, d).

    Returns lam (m, d), the square roots of the eigenvalues of -A^2,
    A = G^{-1/2} H G^{-1/2}, ascending, and is_lambda (m, d); each
    +-i lambda pair of W shows twice, and is_lambda marks one entry of
    each pair.
    """
    cols = J[:, 0::2, :] + 1j * J[:, 1::2, :]  # (m, N, d) complex tangents
    G = np.swapaxes(J, 1, 2) @ J
    # H_ij = omega(col_i, col_j) = Im(col_i . conj(col_j))
    H = -(np.swapaxes(cols.conj(), 1, 2) @ cols).imag
    gl, gv = np.linalg.eigh(G)
    if not np.all(gl[:, -1] <= 1e12 * gl[:, 0]):
        raise SingularMetricError("induced metric is numerically singular")
    return _lambda_pairs(gl, gv, H)


def _lambda_pairs(gl: np.ndarray, gv: np.ndarray, H: np.ndarray
                  ) -> tuple[np.ndarray, np.ndarray]:
    """lam and is_lambda of `_geometry` from G = gv diag(gl) gv^T and H."""
    # lambda_ell^2 are the (doubled) eigenvalues of the symmetric PSD matrix
    # G^{-1/2} H G^{-1} H^T G^{-1/2}; this avoids a nonsymmetric eigensolve.
    G_mhalf = (gv * gl[:, None, :] ** -0.5) @ np.swapaxes(gv, 1, 2)
    A = G_mhalf @ H @ G_mhalf  # skew and similar to W
    lam2 = np.linalg.eigvalsh(A @ np.swapaxes(A, 1, 2))  # -A^2, ascending
    # threshold on lambda^2 relative to the spectral scale: eigvalsh noise is
    # O(eps * scale) and would exceed LAMBDA_TOL after the square root
    scale = np.maximum(lam2[:, -1], 1.0)
    keep = lam2 > np.maximum(LAMBDA_TOL ** 2, 1e-13 * scale)[:, None]
    count = keep.sum(axis=1)
    if np.any(count % 2 != 0):
        raise ClassificationError("W spectrum failed to pair into +-i lambda")
    # the kept entries are the top `count`; pairs sit side by side
    slot = np.arange(lam2.shape[1]) - (lam2.shape[1] - count)[:, None]
    is_lambda = keep & (slot % 2 == 0)
    return np.sqrt(np.clip(lam2, 0.0, None)), is_lambda


@single_threaded()
def frame_at(sub: ChartedSubmanifold, t) -> GeometryFrame:
    """Geometry frame at the parameter points t, (m, d) or one point,
    computed in node blocks (module notes)."""
    t = np.asarray(t, dtype=float).reshape(-1, sub.dim)
    lam = np.empty(t.shape)
    is_lambda = np.empty(t.shape, dtype=bool)
    for rows, in _grid_blocks(t.shape[:1], _block_nodes(sub)):
        J = chart_rows(sub.jacobian, t[rows])
        lam[rows], is_lambda[rows] = _geometry(J)
    return GeometryFrame(lam=lam, is_lambda=is_lambda)


def delta_n(frame: GeometryFrame, n: int) -> np.ndarray:
    """Hessian factor n^{d/2-r} prod [(1+l)^n - (1-l)^n]/(2l) over the
    lambdas, at every point of the frame."""
    if n < 1:
        raise ValueError("n must be >= 1")
    lam = frame.lam
    flat = lam < 1e-12
    safe = np.where(flat, 1.0, lam)
    factor = np.where(flat, float(n),
                      ((1.0 + safe) ** n - (1.0 - safe) ** n) / (2.0 * safe))
    return float(n) ** (0.5 * frame.dim - frame.half_rank) * np.prod(
        np.where(frame.is_lambda, factor, 1.0), axis=1)


# --- classification ----------------------------------------------------------

@dataclass(frozen=True)
class Classification:
    tag: str  # isotropic | lagrangian | coisotropic | symplectic | generic
    dim: int
    ambient_dim: int
    half_rank: int
    lambda_range: tuple[float, float]  # (min, max) over nodes, 0s if r = 0
    max_unit_deviation: float  # max |lambda - 1| when coisotropic-shaped


SAMPLES_PER_AXIS = 5  # classification grid: nodes per axis


def _sample_nodes(sub: ChartedSubmanifold) -> np.ndarray:
    n = SAMPLES_PER_AXIS
    axes = []
    for (lo, hi), per in zip(sub.domain, sub.periodic):
        if per:
            axes.append(lo + (hi - lo) * (np.arange(n) + 0.5) / n)
        else:
            # keep strictly interior for non-periodic axes
            axes.append(lo + (hi - lo) * (np.arange(1, n + 1)) / (n + 1))
    return np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, sub.dim)


def classify(sub: ChartedSubmanifold) -> Classification:
    """Classify by the K-endomorphism spectrum on a coarse interior grid."""
    frame = frame_at(sub, _sample_nodes(sub))
    ranks = np.unique(frame.half_rank)
    if ranks.size != 1:
        raise ClassificationError(f"half rank varies across nodes: {ranks.tolist()}")
    r = int(ranks[0])
    d, N = sub.dim, sub.ambient_dim
    lam = frame.lam[frame.is_lambda]
    lam_range = (float(lam.min()), float(lam.max())) if lam.size else (0.0, 0.0)
    unit_dev = float(np.abs(lam - 1.0).max(initial=0.0))
    if r == 0:
        tag = "lagrangian" if d == N else "isotropic"
    elif d == N + r and unit_dev <= LAMBDA_TOL:
        tag = "coisotropic"
    elif 2 * r == d:
        tag = "symplectic"
    else:
        tag = "generic"
    return Classification(tag=tag, dim=d, ambient_dim=N, half_rank=r,
                          lambda_range=lam_range, max_unit_deviation=unit_dev)


def d_prime(obj) -> int:
    """Effective Szego dimension: d if isotropic, 2N - d if coisotropic."""
    cls = obj if isinstance(obj, Classification) else classify(obj)
    if cls.tag in ("isotropic", "lagrangian"):
        return cls.dim
    if cls.tag == "coisotropic":
        return 2 * cls.ambient_dim - cls.dim
    raise ValueError(f"d' is undefined for a {cls.tag} submanifold")


# --- quadrature --------------------------------------------------------------

@dataclass(frozen=True)
class Quadrature:
    """Tensor-grid quadrature of a submanifold; nodes run in C order (last
    axis fastest) over a grid of `shape`.

    Every node has a weight, but along a rotation axis on which the chart
    is proven equivariant the nodes share the weight of their base node,
    bit for bit (module notes).  `points` is built from `coords` on first
    use; `base_points` reads them without it.
    """

    sub: ChartedSubmanifold
    nodes: np.ndarray        # (m, d)
    weights: np.ndarray      # (m,) includes sqrt(det G) * cell volume
    shape: tuple[int, ...]   # nodes per axis
    # z_1..z_N on the grid, each of extent 1 along the axes it does not read
    coords: tuple[np.ndarray, ...]
    rotation_axes: tuple[int, ...]  # periodic axes that rotate the points
    # (N, len(rotation_axes)): z_j turns by e^{2 pi i c / L} a node along
    # each rotation axis, c mod L
    charges: np.ndarray

    @property
    def size(self) -> int:
        return self.nodes.shape[0]

    @cached_property
    def points(self) -> np.ndarray:
        """(m, N) complex ambient points, built on first use."""
        points = np.empty(self.shape + (len(self.coords),), dtype=complex)
        for j, z in enumerate(self.coords):
            points[..., j] = z
        return points.reshape(self.size, -1)

    @property
    def base_points(self) -> np.ndarray:
        """(n, N) points at index 0 along every rotation axis, one per
        node of the other axes, in C order."""
        rest = tuple(1 if a in self.rotation_axes else n
                     for a, n in enumerate(self.shape))
        return np.stack([np.broadcast_to(_at_base(z, self.rotation_axes),
                                         rest).reshape(-1)
                         for z in self.coords], axis=1)

    @property
    def total_mass(self) -> float:
        return float(self.weights.sum())

    @cached_property
    def frame(self) -> GeometryFrame:
        """Geometry frame at every node, computed on first use.

        It does not depend on k, so Delta_n at the nodes costs one pass of
        `_geometry`, whatever k and n are asked for.
        """
        return frame_at(self.sub, self.nodes)

    def max_radius(self) -> float:
        return max(float(np.abs(z).max()) for z in self.coords)


@functools.cache
def _gauss_rule(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights of order n on [-1, 1]; read-only,
    since calls share them."""
    rule = np.polynomial.legendre.leggauss(n)
    for a in rule:
        a.flags.writeable = False
    return rule


def _axis_rule(lo: float, hi: float, periodic: bool, n: int):
    if n < 1:
        raise ValueError("quadrature order must be >= 1")
    if periodic:
        x = lo + (hi - lo) * np.arange(n) / n
        w = np.full(n, (hi - lo) / n)
    else:
        x0, w0 = _gauss_rule(n)
        x = 0.5 * (hi - lo) * (x0 + 1.0) + lo
        w = 0.5 * (hi - lo) * w0
    return x, w


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


def _rotation_axes(coords: Sequence[np.ndarray], shape: tuple,
                   periodic: Sequence[bool]) -> tuple[tuple, np.ndarray]:
    """Periodic axes of the grid that act on its points as rotations.

    Returns (axes, charges), charges[j, i] the integer c with
    z_j(next node along axes[i]) = e^{2 pi i c / L} z_j(node) on every
    node to _ROTATION_TOL max|z| (module notes); charges is (N, 0) when
    no axis qualifies.
    """
    tol = _ROTATION_TOL * max(float(np.abs(z).max()) for z in coords)
    axes, charges = [], []
    for axis, (L, per) in enumerate(zip(shape, periodic)):
        if not per:
            continue
        # a coordinate of extent 1 along the axis is constant: charge 0
        moving = [j for j, z in enumerate(coords) if z.shape[axis] > 1]
        # sum of ahead conj(here) over the nodes, one value per coordinate
        turn = np.array([sum(np.vdot(here, ahead)
                             for here, ahead in _slab_pairs(coords[j], axis))
                         for j in moving], dtype=complex)
        c = np.zeros(len(coords), dtype=np.int64)
        c[moving] = np.rint(np.angle(turn) * L / (2.0 * math.pi)).astype(
            np.int64) % L
        phase = np.exp(2j * math.pi * c / L)
        if all(np.abs(ahead - phase[j] * here).max() <= tol
               for j in moving
               for here, ahead in _slab_pairs(coords[j], axis)):
            axes.append(axis)
            charges.append(c)
    return tuple(axes), np.array(charges, dtype=np.int64).reshape(
        len(axes), len(coords)).T


def _tangents_turn(J: list, axes: Sequence[int], phases: Sequence,
                   ahead: Sequence[np.ndarray]) -> list:
    """The axes among `axes`, each held whole by the block of jacobian J,
    along which the complex tangents dz_j/dt_i turn as the points do: at
    the next node, ahead[i] along axes[i], they are phases[i][j] times
    those at the node, to _ROTATION_TOL of the block's largest |dz_j/dt_i|.
    """
    off = dict.fromkeys(axes, 0.0)
    size = 0.0
    for j, (re, im) in enumerate(zip(J[0::2], J[1::2])):
        for x, y in zip(re, im):
            z = x + 1j * y  # dz_j/dt_i at the shape of the axes it reads
            top = float(np.abs(z).max())
            size = max(size, top)
            for a, phase, nxt in zip(axes, phases, ahead):
                if np.ndim(z) and z.shape[a] > 1:
                    step = float(np.abs(z.take(nxt, axis=a)
                                        - phase[j] * z).max())
                else:  # constant along the axis: the turn must fix it
                    step = abs(phase[j] - 1.0) * top
                off[a] = max(off[a], step)
    return [a for a in axes if off[a] <= _ROTATION_TOL * size]


def _at_base(v: np.ndarray, axes: Sequence[int]) -> np.ndarray:
    """A chart value at index 0 along `axes`, keeping their extent of 1."""
    if not np.ndim(v):
        return v
    return v[tuple(slice(0, 1) if a in axes else slice(None)
                   for a in range(v.ndim))]


def _restrict(v: np.ndarray, block: tuple) -> np.ndarray:
    """A chart value restricted to a block of the grid it broadcasts to;
    along an axis of extent 1 it is kept whole."""
    if not np.ndim(v):
        return v
    return v[tuple(s if n > 1 else slice(None)
                   for s, n in zip(block, v.shape))]


def _joined(values: list, axis: int, extents: list, d: int) -> np.ndarray:
    """One chart value from runs of blocks along `axis`, each given at its
    block's extent there or at extent 1, joined in order; a value of
    extent 1 that every block gives alike is kept once."""
    first = values[0]
    if all(not v.ndim or v.shape[axis] == 1 for v in values) and all(
            np.array_equal(v, first) for v in values[1:]):
        return first
    parts = []
    for v, n in zip(values, extents):
        if not v.ndim:
            v = v.reshape((1,) * d)
        parts.append(v if v.shape[axis] == n else v.repeat(n, axis))
    return np.concatenate(parts, axis=axis)


def _densities(sub: ChartedSubmanifold, xs: Sequence[np.ndarray],
               weights: np.ndarray, axes: tuple, charges: np.ndarray) -> None:
    """Multiply the cell volumes `weights` by sqrt(det G), in place.

    The jacobian is evaluated block by block (`_grid_blocks`).  The blocks
    of one run along the axis the blocks cut are joined while their
    jacobian values fit in _CHUNK_BYTES, and each joined run is settled at
    once: along each rotation axis it holds whole and on which its
    tangents turn with the points (`_tangents_turn`), its nodes share the
    metric of their base node; the metric is formed in blocks of the
    nodes left.
    """
    shape, d = weights.shape, sub.dim
    nodes = _block_nodes(sub)
    phases = [np.exp(2j * math.pi * c / shape[a])
              for a, c in zip(axes, charges.T)]
    ahead = [(np.arange(shape[a]) + 1) % shape[a] for a in axes]
    run, held = [], 0

    def settle():
        cut = len(run[0][0]) - 1  # the axis the blocks cut into runs
        region = run[0][0][:-1] + (slice(run[0][0][-1].start,
                                         run[-1][0][-1].stop),)
        cells = weights[region]
        J = run[0][1]
        if len(run) > 1:
            extents = [weights[block].shape[cut] for block, _ in run]
            J = [[_joined([J_b[r][i] for _, J_b in run], cut, extents, d)
                  for i in range(d)] for r in range(len(J))]
        whole = [i for i, a in enumerate(axes) if cells.shape[a] == shape[a]]
        shared = whole and _tangents_turn(
            J, *zip(*((axes[i], phases[i], ahead[i]) for i in whole)))
        base = tuple(1 if a in shared else n for a, n in enumerate(cells.shape))
        for block in _grid_blocks(base, nodes):
            part = [[_restrict(_at_base(v, shared), block) for v in row]
                    for row in J]
            cells[tuple(slice(None) if a in shared else s
                        for a, s in enumerate(block))] *= _sqrt_det_metric(part)
        run.clear()

    for block in _grid_blocks(shape, nodes):
        extent = weights[block].shape
        J = _on_grid(sub.jacobian(_axis_columns(xs, block)), extent)
        cut = len(block) - 1
        # bytes of the values once joined along the cut axis
        size = 8 * extent[cut] * sum(v.size // v.shape[cut] if v.ndim else 1
                                     for row in J for v in row)
        if run and (block[:-1] != run[0][0][:-1]
                    or held + size > _CHUNK_BYTES):
            settle()
            held = 0
        run.append((block, J))
        held += size
    settle()


@single_threaded()
def quadrature(sub: ChartedSubmanifold, order) -> Quadrature:
    """Tensor-product quadrature over the parameter box.

    order: nodes per axis, an integer or a sequence with one entry per axis.
    Periodic axes use the trapezoid rule, the rest Gauss-Legendre.  The
    chart is evaluated on the axis vectors of the grid, its jacobian block
    by block (module notes), so neither the jacobians nor the metrics of
    the whole grid are ever held at once.  The periodic axes that rotate
    the points are found from the coordinates and recorded.  Weights
    include the surface density sqrt(det G): along a rotation axis that a
    joined run of blocks holds whole and on which the chart's tangents
    turn with its points, it is formed once per base node and shared;
    elsewhere once per node (module notes).
    """
    if np.isscalar(order):
        per_axis = [int(order)] * sub.dim
    else:
        per_axis = [int(o) for o in order]
        if len(per_axis) != sub.dim:
            raise ValueError("per-axis order list must match chart dimension")
    shape, d = tuple(per_axis), sub.dim
    m = math.prod(shape)
    xs, ws = zip(*(_axis_rule(lo, hi, per, n) for (lo, hi), per, n
                   in zip(sub.domain, sub.periodic, per_axis)))
    nodes = np.empty(shape + (d,))
    weights = np.ones(shape)
    for j, (x, w) in enumerate(zip(_axis_columns(xs), _axis_columns(ws))):
        nodes[..., j] = x
        weights *= w  # the cell volume
    xy = _on_grid(sub.gamma(_axis_columns(xs)), shape)
    coords = []
    for x, y in zip(xy[0::2], xy[1::2]):
        z = np.empty(np.broadcast_shapes(x.shape, y.shape, (1,) * d),
                     dtype=complex)
        z.real, z.imag = x, y
        coords.append(z)
    axes, charges = _rotation_axes(coords, shape, sub.periodic)
    _densities(sub, xs, weights, axes, charges)
    return Quadrature(sub=sub, nodes=nodes.reshape(m, d),
                      weights=weights.reshape(m), shape=shape,
                      coords=tuple(coords), rotation_axes=axes,
                      charges=charges)


def default_periodic_nodes(k: float, radius: float) -> int:
    """Trapezoid nodes per periodic axis resolving the e^{ik omega} phase."""
    return max(64, 8 * math.ceil(math.sqrt(k)) * math.ceil(radius))


def default_max_degree(k: float, quad: Quadrature) -> int:
    """Truncation M = ceil(4 k R^2), R = `quad.max_radius()`.

    R is the largest coordinate modulus |z_j| over the nodes, not the
    largest |z|: on the (1, 0.7) torus it gives M = 4k where |z| would give
    about 6k.  ROADMAP item 3 replaces the rule by a Poisson tail bound on
    the Euclidean radius.
    """
    target = 4.0 * k * quad.max_radius() ** 2
    return math.ceil(target * (1.0 - 1e-12))


# --- built-in catalog --------------------------------------------------------

def circle(radius: float = 1.0) -> ChartedSubmanifold:
    """Circle |z| = r in C^1; Lagrangian."""
    r = float(radius)

    def gamma(t):
        th = t[0]
        return [r * np.cos(th), r * np.sin(th)]

    def jac(t):
        th = t[0]
        return [[-r * np.sin(th)], [r * np.cos(th)]]

    return ChartedSubmanifold(dim=1, ambient_dim=1,
                              domain=((0.0, 2.0 * math.pi),), periodic=(True,),
                              gamma=gamma, jacobian=jac, label=f"circle(r={r})")


def torus_product(radii: Sequence[float], ambient_dim: Optional[int] = None) -> ChartedSubmanifold:
    """Product of d circles, z_j = r_j e^{i t_j}, in C^N (N >= d); isotropic."""
    radii = [float(r) for r in radii]
    d = len(radii)
    N = d if ambient_dim is None else int(ambient_dim)
    if N < d:
        raise ValueError("ambient_dim must be at least the number of circles")

    def gamma(t):
        out = [0.0] * (2 * N)
        for j, r in enumerate(radii):
            out[2 * j] = r * np.cos(t[j])
            out[2 * j + 1] = r * np.sin(t[j])
        return out

    def jac(t):
        out = [[0.0] * d for _ in range(2 * N)]
        for j, r in enumerate(radii):
            out[2 * j][j] = -r * np.sin(t[j])
            out[2 * j + 1][j] = r * np.cos(t[j])
        return out

    return ChartedSubmanifold(dim=d, ambient_dim=N,
                              domain=tuple((0.0, 2.0 * math.pi) for _ in range(d)),
                              periodic=tuple(True for _ in range(d)),
                              gamma=gamma, jacobian=jac,
                              label=f"torus(radii={radii})")


def parabola_patch(x1_range=(-1.0, 1.0), y1_range=(-1.0, 1.0)) -> ChartedSubmanifold:
    """Surface (z1, z2) = (x1 + i y1, x1^2/2) in C^2; symplectic."""

    def gamma(t):
        x1, y1 = t
        return [x1, y1, 0.5 * x1 ** 2, 0.0]

    def jac(t):
        return [[1.0, 0.0], [0.0, 1.0], [t[0], 0.0], [0.0, 0.0]]

    return ChartedSubmanifold(dim=2, ambient_dim=2,
                              domain=(tuple(map(float, x1_range)),
                                      tuple(map(float, y1_range))),
                              periodic=(False, False), gamma=gamma,
                              jacobian=jac, label="parabola_patch")


def plane_patch(ranges: Sequence[Sequence[float]]) -> ChartedSubmanifold:
    """Box patch of C^N itself, d = 2N; coisotropic with all lambdas 1."""
    ranges = [tuple(map(float, r)) for r in ranges]
    if len(ranges) % 2 != 0:
        raise ValueError("plane_patch needs 2N ranges (x1, y1, x2, y2, ...)")
    N = len(ranges) // 2
    d = 2 * N

    def gamma(t):
        return list(t)

    def jac(t):
        return [[float(a == j) for j in range(d)] for a in range(d)]

    return ChartedSubmanifold(dim=d, ambient_dim=N, domain=tuple(ranges),
                              periodic=tuple(False for _ in range(d)),
                              gamma=gamma, jacobian=jac, label="plane_patch")


def sphere3(radius: float = 1.0) -> ChartedSubmanifold:
    """Sphere |z| = r in C^2 (d = 3); coisotropic hypersurface.

    Chart (s, a, b) -> (r sqrt(1-s) e^{ia}, r sqrt(s) e^{ib}) with s in (0, 1)
    and periodic angles.  In this parametrization sqrt(det G) = r^3/2 exactly
    and basis-monomial integrands are polynomials in s, so Gauss-Legendre on
    the s axis is exact at modest order.  The endpoints are degenerate but
    interior quadrature nodes never touch them.
    """
    r = float(radius)

    def gamma(t):
        s, a, b = t
        c1 = r * np.sqrt(1.0 - s)
        c2 = r * np.sqrt(s)
        return [c1 * np.cos(a), c1 * np.sin(a), c2 * np.cos(b), c2 * np.sin(b)]

    def jac(t):
        s, a, b = t
        c1 = r * np.sqrt(1.0 - s)
        c2 = r * np.sqrt(s)
        return [[-0.5 * r * np.cos(a) / np.sqrt(1.0 - s), -c1 * np.sin(a), 0.0],
                [-0.5 * r * np.sin(a) / np.sqrt(1.0 - s), c1 * np.cos(a), 0.0],
                [0.5 * r * np.cos(b) / np.sqrt(s), 0.0, -c2 * np.sin(b)],
                [0.5 * r * np.sin(b) / np.sqrt(s), 0.0, c2 * np.cos(b)]]

    return ChartedSubmanifold(dim=3, ambient_dim=2,
                              domain=((0.0, 1.0), (0.0, 2.0 * math.pi),
                                      (0.0, 2.0 * math.pi)),
                              periodic=(False, True, True), gamma=gamma,
                              jacobian=jac, label=f"sphere3(r={r})")


def custom_chart(dim: int, ambient_dim: int, coords: Sequence[str],
                 periodic: Sequence[bool], domain: Sequence[Sequence[float]],
                 label: str = "custom") -> ChartedSubmanifold:
    """Submanifold from 2N coordinate expressions in t1..td."""
    if len(coords) != 2 * ambient_dim:
        raise ValueError("need 2N coordinate expressions (x1, y1, ...)")
    exprs = [dsl.parse(s, dim) for s in coords]
    derivs = [[dsl.derive(e, j) for j in range(dim)] for e in exprs]

    def gamma(t):
        return [dsl.evaluate_columns(e, t) for e in exprs]

    def jac(t):
        return [[dsl.evaluate_columns(de, t) for de in row] for row in derivs]

    return ChartedSubmanifold(dim=dim, ambient_dim=ambient_dim,
                              domain=tuple(tuple(map(float, r)) for r in domain),
                              periodic=tuple(bool(p) for p in periodic),
                              gamma=gamma, jacobian=jac, label=label)


def manifold_from_spec(spec: dict) -> ChartedSubmanifold:
    """Build a catalog manifold from its JSON description."""
    kind = spec.get("kind")
    if kind == "circle":
        return circle(spec.get("radius", 1.0))
    if kind == "torus_product":
        return torus_product(spec["radii"], spec.get("ambient_dim"))
    if kind == "parabola_patch":
        return parabola_patch(spec.get("x1_range", (-1.0, 1.0)),
                              spec.get("y1_range", (-1.0, 1.0)))
    if kind == "plane_patch":
        return plane_patch(spec["ranges"])
    if kind == "sphere3":
        return sphere3(spec.get("radius", 1.0))
    if kind == "custom":
        return custom_chart(spec["dim"], spec["ambient_dim"], spec["coords"],
                            spec["periodic"], spec["domain"],
                            spec.get("label", "custom"))
    raise ValueError(f"unknown manifold kind {kind!r}")


def amp_values(a, quad: Quadrature) -> np.ndarray:
    """a at the quadrature nodes: None (constant 1), a scalar, or a callable."""
    if a is None:
        return np.ones(quad.size)
    if np.isscalar(a):
        return np.full(quad.size, a)
    return np.asarray(a(quad.nodes))


def amplitude_from_dsl(text: str, dim: int) -> Callable[[np.ndarray], np.ndarray]:
    """Vectorized amplitude t -> a(t) from a DSL expression in t1..td."""
    expr = dsl.parse(text, dim)

    def func(t: np.ndarray) -> np.ndarray:
        return dsl.evaluate(expr, np.atleast_2d(t))

    return func
