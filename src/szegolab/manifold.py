"""Parametrized submanifolds of R^{2N} = C^N.

A ChartedSubmanifold is one parametrization: a map gamma from a box of
R^d into interleaved real coordinates (x1, y1, ..., xN, yN), its jacobian
and periodicity flags.  From the jacobian columns we form the induced
metric G, the pulled-back symplectic form H, the endomorphism W = G^{-1}H
whose eigenvalues +-i lambda_ell classify the submanifold, and the Hessian
factor Delta_n that drives all trace asymptotics.

Quadrature in node chunks: a quadrature is a tensor grid whose weights are
the cell volumes times the surface density sqrt(det G).  The nodes and
cell volumes are broadcast from the per-axis rules into preallocated
arrays; the chart's jacobian and points are then evaluated over chunks of
nodes, each holding about _CHUNK_BYTES of jacobian and metric, and
written into the preallocated weights and points.  So memory holds the
nodes, weights and points of the grid and the jacobian of one chunk, never
the (m, 2N, d) jacobians or (m, d, d) metrics of all m nodes.
sqrt(det G) comes from
a Cholesky elimination of G = J^T J written as O(d^2) operations on
vectors over the nodes of a chunk (`_sqrt_det_metric`), for any d; a
pivot that is not positive raises SingularMetricError.  The W spectrum of
`Quadrature.w_spectrum` is computed over the same chunks.  Each node is
independent, so the chunking changes no value.

The weights stay per node, also along the axes that `assembly` finds to
act on the points as rotations.  That an axis rotates the points at the
nodes does not make the chart equivariant: the tangents, and with them
sqrt(det G), can still vary along it.  The DSL chart
(cos(t + 0.01 sin 32t), sin(t + 0.01 sin 32t)) at 64 nodes puts every
node on the unit circle one step of 2 pi / 64 apart, yet its weights
alternate between 0.130 and 0.067.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Optional, Sequence

import numpy as np

from . import dsl

__all__ = [
    "ChartedSubmanifold",
    "GeometryFrame",
    "Classification",
    "Quadrature",
    "frame_at",
    "classify",
    "d_prime",
    "delta_n",
    "delta_n_at",
    "quadrature",
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
_CHUNK_BYTES = 1 << 20  # jacobian and metric working set of a node chunk


def real_to_complex(x: np.ndarray) -> np.ndarray:
    """(m, 2N) interleaved reals -> (m, N) complex, z_j = x_j + i y_j."""
    x = np.asarray(x, dtype=float)
    return x[..., 0::2] + 1j * x[..., 1::2]


@dataclass(frozen=True)
class ChartedSubmanifold:
    """Submanifold given by one parametrization t in a box of R^d -> R^{2N}.

    gamma and jacobian are vectorized: gamma maps (m, d) -> (m, 2N) and
    jacobian maps (m, d) -> (m, 2N, d) with columns d(gamma)/dt_j.
    """

    dim: int
    ambient_dim: int
    domain: tuple[tuple[float, float], ...]
    periodic: tuple[bool, ...]
    gamma: Callable[[np.ndarray], np.ndarray]
    jacobian: Callable[[np.ndarray], np.ndarray]
    label: str = "manifold"

    def __post_init__(self):
        if len(self.domain) != self.dim or len(self.periodic) != self.dim:
            raise ValueError("domain and periodic must have one entry per axis")
        if not 1 <= self.dim <= 2 * self.ambient_dim:
            raise ValueError("manifold dimension must lie in [1, 2N]")


@dataclass(frozen=True)
class GeometryFrame:
    """Pointwise first-order data: metric, symplectic form, W-spectrum."""

    G: np.ndarray
    H: np.ndarray
    W: np.ndarray
    lambdas: tuple[float, ...]  # positive ones, ascending; r of them
    half_rank: int
    vol_density: float

    @property
    def dim(self) -> int:
        return self.G.shape[0]


class SingularMetricError(ValueError):
    pass


class ClassificationError(ValueError):
    pass


def frame_at(sub: ChartedSubmanifold, t) -> GeometryFrame:
    """Geometry frame at one interior parameter point."""
    t = np.asarray(t, dtype=float).reshape(1, -1)
    J = np.asarray(sub.jacobian(t), dtype=float)  # (1, 2N, d)
    G, H, W, lam, is_lambda, vol = (x[0] for x in _geometry(J))
    lambdas = tuple(float(x) for x in lam[is_lambda])
    return GeometryFrame(G=G, H=H, W=W, lambdas=lambdas,
                         half_rank=len(lambdas), vol_density=float(vol))


def _node_chunks(sub: ChartedSubmanifold, m: int):
    """(lo, hi) ranges over m nodes, each about _CHUNK_BYTES of jacobian
    and metric."""
    d = sub.dim
    rows = max(1, _CHUNK_BYTES // (8 * d * (2 * sub.ambient_dim + d)))
    for lo in range(0, m, rows):
        yield lo, min(m, lo + rows)


def _sqrt_det_metric(J: np.ndarray) -> np.ndarray:
    """sqrt(det G), G = J^T J, of stacked jacobians J (m, 2N, d).

    G = L D L^T is factored by Cholesky elimination with the nodes as the
    vector dimension: each entry of G is one dot product of two columns
    of J, and each elimination step one Schur-complement update over the
    nodes, O(d^2) vector operations in all for any d.  det G is the
    product of the pivots D; a pivot that is not positive means a
    singular metric.
    """
    m, _, d = J.shape
    G = np.empty((d, d, m))
    for i in range(d):
        for j in range(i + 1):
            G[i, j] = G[j, i] = np.einsum("ma,ma->m", J[:, :, i], J[:, :, j])
    det = np.ones(m)
    for j in range(d):
        pivot = G[j, j]
        if not np.all(pivot > 0):
            raise SingularMetricError("non-positive metric pivot at a node")
        det *= pivot
        G[j + 1:, j + 1:] -= G[j + 1:, j, None] * (G[j, j + 1:] / pivot)
    return np.sqrt(det)


def _geometry(J: np.ndarray):
    """First-order data of stacked jacobians J, (m, 2N, d).

    Returns G, H, W (each (m, d, d)), lam (m, d), is_lambda (m, d) and the
    volume densities (m,).  lam holds the square roots of the eigenvalues
    of -A^2, A = G^{-1/2} H G^{-1/2}, ascending; each +-i lambda pair of W
    shows twice, and is_lambda marks one entry of each pair.
    """
    cols = J[:, 0::2, :] + 1j * J[:, 1::2, :]  # (m, N, d) complex tangents
    G = np.swapaxes(J, 1, 2) @ J
    # H_ij = omega(col_i, col_j) = Im(col_i . conj(col_j))
    H = -(np.swapaxes(cols.conj(), 1, 2) @ cols).imag
    gl, gv = np.linalg.eigh(G)
    if not np.all(gl[:, -1] <= 1e12 * gl[:, 0]):
        raise SingularMetricError("induced metric is numerically singular")
    W = np.linalg.solve(G, H)
    lam, is_lambda = _lambda_pairs(gl, gv, H)
    vol = np.sqrt(np.maximum(np.prod(gl, axis=1), 0.0))
    return G, H, W, lam, is_lambda, vol


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


def _delta_values(lam: np.ndarray, is_lambda: np.ndarray, d: int,
                  n: int) -> np.ndarray:
    """Delta_n per row of lam, over the entries that is_lambda marks."""
    if n < 1:
        raise ValueError("n must be >= 1")
    r = is_lambda.sum(axis=1)
    flat = lam < 1e-12
    safe = np.where(flat, 1.0, lam)
    factor = np.where(flat, float(n),
                      ((1.0 + safe) ** n - (1.0 - safe) ** n) / (2.0 * safe))
    return float(n) ** (0.5 * d - r) * np.prod(np.where(is_lambda, factor, 1.0),
                                               axis=1)


def delta_n(frame: GeometryFrame, n: int) -> float:
    """Hessian factor n^{d/2-r} prod [(1+l)^n - (1-l)^n]/(2l) over lambdas."""
    lam = np.array(frame.lambdas, dtype=float).reshape(1, -1)
    return float(_delta_values(lam, np.ones(lam.shape, bool), frame.dim, n)[0])


def _w_spectrum(sub: ChartedSubmanifold, nodes):
    """lam and is_lambda of `_geometry` at every parameter point of nodes,
    computed in node chunks (module notes)."""
    nodes = np.atleast_2d(np.asarray(nodes, dtype=float))
    lam = np.empty(nodes.shape)
    is_lambda = np.empty(nodes.shape, dtype=bool)
    for lo, hi in _node_chunks(sub, nodes.shape[0]):
        J = np.asarray(sub.jacobian(nodes[lo:hi]), dtype=float)
        *_, lam[lo:hi], is_lambda[lo:hi], _ = _geometry(J)
    return lam, is_lambda


def delta_n_at(sub: ChartedSubmanifold, nodes, n: int) -> np.ndarray:
    """delta_n at every parameter point of nodes (m, d), in one stacked pass."""
    return _delta_values(*_w_spectrum(sub, nodes), sub.dim, n)


# --- classification ----------------------------------------------------------

@dataclass(frozen=True)
class Classification:
    tag: str  # isotropic | lagrangian | coisotropic | symplectic | generic
    dim: int
    ambient_dim: int
    half_rank: int
    lambda_range: tuple[float, float]  # (min, max) over nodes, 0s if r = 0
    max_unit_deviation: float  # max |lambda - 1| when coisotropic-shaped

    @property
    def d_prime(self) -> int:
        return d_prime(self)


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
    frames = [frame_at(sub, t) for t in _sample_nodes(sub)]
    ranks = {f.half_rank for f in frames}
    if len(ranks) != 1:
        raise ClassificationError(f"half rank varies across nodes: {sorted(ranks)}")
    r = ranks.pop()
    d, N = sub.dim, sub.ambient_dim
    all_lam = [lam for f in frames for lam in f.lambdas]
    lam_range = (min(all_lam), max(all_lam)) if all_lam else (0.0, 0.0)
    unit_dev = max((abs(lam - 1.0) for lam in all_lam), default=0.0)
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
    axis fastest) over a grid of `shape`.  Every node carries its own
    weight (module notes)."""

    sub: ChartedSubmanifold
    nodes: np.ndarray        # (m, d)
    weights: np.ndarray      # (m,) includes sqrt(det G) * cell volume
    points: np.ndarray       # (m, N) complex ambient points
    shape: tuple[int, ...]   # nodes per axis

    @property
    def size(self) -> int:
        return self.nodes.shape[0]

    @property
    def total_mass(self) -> float:
        return float(self.weights.sum())

    @cached_property
    def w_spectrum(self) -> tuple[np.ndarray, np.ndarray]:
        """(lam, is_lambda) of W at every node, computed on first use.

        It does not depend on k, so Delta_n at the nodes costs one pass of
        `_geometry`, whatever k and n are asked for.
        """
        return _w_spectrum(self.sub, self.nodes)

    def max_radius(self) -> float:
        return float(np.abs(self.points).max())

    def integrate(self, func: Callable[["Quadrature"], np.ndarray]) -> complex:
        """Sum of weights * func(quadrature) over the nodes."""
        total = complex(np.sum(self.weights * np.asarray(func(self))))
        return total if total.imag != 0 else total.real


def _axis_rule(lo: float, hi: float, periodic: bool, n: int):
    if n < 1:
        raise ValueError("quadrature order must be >= 1")
    if periodic:
        x = lo + (hi - lo) * np.arange(n) / n
        w = np.full(n, (hi - lo) / n)
    else:
        x0, w0 = np.polynomial.legendre.leggauss(n)
        x = 0.5 * (hi - lo) * (x0 + 1.0) + lo
        w = 0.5 * (hi - lo) * w0
    return x, w


def quadrature(sub: ChartedSubmanifold, order) -> Quadrature:
    """Tensor-product quadrature over the parameter box.

    order: nodes per axis, an integer or a sequence with one entry per axis.
    Periodic axes use the trapezoid rule, the rest Gauss-Legendre.  Weights
    include the surface density sqrt(det G), one value per node.  The
    chart's jacobian and points are evaluated in node chunks (module
    notes), so neither the jacobians nor the metrics of the whole grid are
    ever held at once.
    """
    if np.isscalar(order):
        per_axis = [int(order)] * sub.dim
    else:
        per_axis = [int(o) for o in order]
        if len(per_axis) != sub.dim:
            raise ValueError("per-axis order list must match chart dimension")
    shape, d = tuple(per_axis), sub.dim
    m = math.prod(shape)
    nodes = np.empty(shape + (d,))
    weights = np.ones(shape)
    for j, ((lo, hi), per, n) in enumerate(zip(sub.domain, sub.periodic,
                                               per_axis)):
        x, w = _axis_rule(lo, hi, per, n)
        along = (1,) * j + (n,) + (1,) * (d - j - 1)
        nodes[..., j] = x.reshape(along)
        weights *= w.reshape(along)  # the cell volume
    nodes, weights = nodes.reshape(m, d), weights.reshape(m)
    coords = np.empty((m, 2 * sub.ambient_dim))  # interleaved (x1, y1, ...)
    for lo, hi in _node_chunks(sub, m):
        t = nodes[lo:hi]
        weights[lo:hi] *= _sqrt_det_metric(
            np.asarray(sub.jacobian(t), dtype=float))
        coords[lo:hi] = sub.gamma(t)
    # (x_j, y_j) pairs are the memory layout of complex z_j = x_j + i y_j
    return Quadrature(sub=sub, nodes=nodes, weights=weights,
                      points=coords.view(complex), shape=shape)


def default_periodic_nodes(k: float, radius: float) -> int:
    """Trapezoid nodes per periodic axis resolving the e^{ik omega} phase."""
    return max(64, 8 * math.ceil(math.sqrt(k)) * math.ceil(radius))


def default_max_degree(k: float, quad: Quadrature) -> int:
    """Truncation M = ceil(4 k R^2) with R the largest node radius."""
    target = 4.0 * k * quad.max_radius() ** 2
    return math.ceil(target * (1.0 - 1e-12))


# --- built-in catalog --------------------------------------------------------

def circle(radius: float = 1.0) -> ChartedSubmanifold:
    """Circle |z| = r in C^1; Lagrangian."""
    r = float(radius)

    def gamma(t):
        th = t[:, 0]
        return np.stack([r * np.cos(th), r * np.sin(th)], axis=1)

    def jac(t):
        th = t[:, 0]
        return np.stack([-r * np.sin(th), r * np.cos(th)], axis=1)[:, :, None]

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
        out = np.zeros((t.shape[0], 2 * N))
        for j, r in enumerate(radii):
            out[:, 2 * j] = r * np.cos(t[:, j])
            out[:, 2 * j + 1] = r * np.sin(t[:, j])
        return out

    def jac(t):
        out = np.zeros((t.shape[0], 2 * N, d))
        for j, r in enumerate(radii):
            out[:, 2 * j, j] = -r * np.sin(t[:, j])
            out[:, 2 * j + 1, j] = r * np.cos(t[:, j])
        return out

    return ChartedSubmanifold(dim=d, ambient_dim=N,
                              domain=tuple((0.0, 2.0 * math.pi) for _ in range(d)),
                              periodic=tuple(True for _ in range(d)),
                              gamma=gamma, jacobian=jac,
                              label=f"torus(radii={radii})")


def parabola_patch(x1_range=(-1.0, 1.0), y1_range=(-1.0, 1.0)) -> ChartedSubmanifold:
    """Surface (z1, z2) = (x1 + i y1, x1^2/2) in C^2; symplectic."""

    def gamma(t):
        x1, y1 = t[:, 0], t[:, 1]
        return np.stack([x1, y1, 0.5 * x1 ** 2, np.zeros_like(x1)], axis=1)

    def jac(t):
        x1 = t[:, 0]
        m = t.shape[0]
        out = np.zeros((m, 4, 2))
        out[:, 0, 0] = 1.0
        out[:, 2, 0] = x1
        out[:, 1, 1] = 1.0
        return out

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
        return np.array(t, dtype=float, copy=True)

    def jac(t):
        return np.broadcast_to(np.eye(d), (t.shape[0], d, d)).copy()

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
        s, a, b = t[:, 0], t[:, 1], t[:, 2]
        c1 = r * np.sqrt(1.0 - s)
        c2 = r * np.sqrt(s)
        return np.stack([c1 * np.cos(a), c1 * np.sin(a),
                         c2 * np.cos(b), c2 * np.sin(b)], axis=1)

    def jac(t):
        s, a, b = t[:, 0], t[:, 1], t[:, 2]
        m = t.shape[0]
        c1 = r * np.sqrt(1.0 - s)
        c2 = r * np.sqrt(s)
        out = np.zeros((m, 4, 3))
        out[:, 0, 0] = -0.5 * r * np.cos(a) / np.sqrt(1.0 - s)
        out[:, 1, 0] = -0.5 * r * np.sin(a) / np.sqrt(1.0 - s)
        out[:, 2, 0] = 0.5 * r * np.cos(b) / np.sqrt(s)
        out[:, 3, 0] = 0.5 * r * np.sin(b) / np.sqrt(s)
        out[:, 0, 1] = -c1 * np.sin(a)
        out[:, 1, 1] = c1 * np.cos(a)
        out[:, 2, 2] = -c2 * np.sin(b)
        out[:, 3, 2] = c2 * np.cos(b)
        return out

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
        return np.stack([dsl.evaluate(e, t) for e in exprs], axis=1)

    def jac(t):
        return np.stack([np.stack([dsl.evaluate(de, t) for de in row], axis=1)
                         for row in derivs], axis=1)

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
