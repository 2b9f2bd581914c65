import dataclasses
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import szegolab.manifold as mfd
from szegolab import dsl
from szegolab.assembly import assemble_T, exact_trace
from szegolab.fock import FockTruncation
from szegolab.spectral import eigensolve


def metric_and_form(sub, t):
    """G = J^T J and H_ij = omega(col_i, col_j) = sum over the complex
    coordinates of y_i x_j - x_i y_j, from the chart's jacobian at t."""
    J = mfd.chart_rows(sub.jacobian, np.asarray(t, dtype=float)[None])[0]
    X, Y = J[0::2], J[1::2]
    return J.T @ J, Y.T @ X - X.T @ Y


def reference_sqrt_det_metric(J):
    """sqrt(det G) of stacked jacobians J (m, 2N, d), each entry of G one
    dot product over the rows, then Cholesky pivots over the nodes."""
    m, _, d = J.shape
    G = np.empty((d, d, m))
    for i in range(d):
        for j in range(i + 1):
            G[i, j] = G[j, i] = np.einsum("ma,ma->m", J[:, :, i], J[:, :, j])
    det = np.ones(m)
    for j in range(d):
        pivot = G[j, j]
        assert np.all(pivot > 0)
        det *= pivot
        G[j + 1:, j + 1:] -= G[j + 1:, j, None] * (G[j, j + 1:] / pivot)
    return np.sqrt(det)


def reference_quadrature(sub, order):
    """Nodes, weights and points of the tensor grid with the chart called
    on stacked (m, d) nodes in chunks of 1000."""
    shape = tuple(order) if np.ndim(order) else (int(order),) * sub.dim
    d, m = sub.dim, math.prod(shape)
    nodes, weights = np.empty(shape + (d,)), np.ones(shape)
    for j, ((lo, hi), per, n) in enumerate(zip(sub.domain, sub.periodic,
                                               shape)):
        if per:
            x = lo + (hi - lo) * np.arange(n) / n
            w = np.full(n, (hi - lo) / n)
        else:
            x0, w0 = np.polynomial.legendre.leggauss(n)
            x = 0.5 * (hi - lo) * (x0 + 1.0) + lo
            w = 0.5 * (hi - lo) * w0
        along = (1,) * j + (n,) + (1,) * (d - j - 1)
        nodes[..., j] = x.reshape(along)
        weights *= w.reshape(along)
    nodes, weights = nodes.reshape(m, d), weights.reshape(m)
    coords = np.empty((m, 2 * sub.ambient_dim))
    for lo in range(0, m, 1000):
        t = nodes[lo:lo + 1000]
        weights[lo:lo + 1000] *= reference_sqrt_det_metric(
            mfd.chart_rows(sub.jacobian, t))
        coords[lo:lo + 1000] = mfd.chart_rows(sub.gamma, t)
    return nodes, weights, coords.view(complex)


def test_circle_frame():
    sub = mfd.circle(1.5)
    frame = mfd.frame_at(sub, (0.7,))
    G, H = metric_and_form(sub, (0.7,))
    assert G[0, 0] == pytest.approx(1.5 ** 2)
    assert H[0, 0] == 0
    assert frame.dim == 1
    assert frame.half_rank.tolist() == [0]
    assert frame.lam.tolist() == [[0.0]]
    assert not frame.is_lambda.any()


def test_parabola_frame_matches_closed_form():
    sub = mfd.parabola_patch()
    x1 = np.array([0.0, 0.5, 1.0])
    frame = mfd.frame_at(sub, np.stack([x1, np.full(3, 0.2)], axis=1))
    assert frame.half_rank.tolist() == [1, 1, 1]
    lam = frame.lam[frame.is_lambda]
    assert lam == pytest.approx((1.0 + x1 ** 2) ** -0.5, rel=1e-14)
    for x, l in zip(x1, lam):
        W = np.linalg.solve(*metric_and_form(sub, (x, 0.2)))
        expect_W = np.array([[0.0, -1.0 / (1.0 + x ** 2)], [1.0, 0.0]])
        assert np.allclose(W, expect_W, atol=1e-12)
        # eig(W) = +-i lambda, by a nonsymmetric eigensolve
        eigs = np.sort_complex(np.linalg.eigvals(W))
        assert eigs == pytest.approx([-1j * l, 1j * l], abs=1e-14)


def test_plane_frame_all_lambdas_one():
    sub = mfd.plane_patch([[-1, 1]] * 6)  # C^3
    frame = mfd.frame_at(sub, np.zeros(6))
    assert frame.half_rank.tolist() == [3]
    assert frame.lam[frame.is_lambda] == pytest.approx([1.0, 1.0, 1.0])


def test_classification_catalog():
    assert mfd.classify(mfd.circle(1.0)).tag == "lagrangian"
    assert mfd.classify(mfd.sphere3(1.0)).tag == "coisotropic"
    assert mfd.classify(mfd.parabola_patch()).tag == "symplectic"
    assert mfd.classify(mfd.torus_product([1.0, 0.7])).tag == "lagrangian"
    assert mfd.classify(mfd.torus_product([1.0], ambient_dim=2)).tag == "isotropic"
    assert mfd.classify(mfd.plane_patch([[-1, 1]] * 4)).tag == "coisotropic"


def test_d_prime_values():
    assert mfd.d_prime(mfd.circle(1.0)) == 1
    assert mfd.d_prime(mfd.sphere3(1.0)) == 1
    assert mfd.d_prime(mfd.plane_patch([[-1, 1]] * 4)) == 0
    with pytest.raises(ValueError):
        mfd.d_prime(mfd.parabola_patch())


def test_delta_n_values():
    circle_frame = mfd.frame_at(mfd.circle(1.0), (0.1,))
    assert mfd.delta_n(circle_frame, 1).tolist() == [1.0]
    assert mfd.delta_n(circle_frame, 2) == pytest.approx([math.sqrt(2)])
    plane = mfd.plane_patch([[-1, 1]] * 4)  # N = 2
    pf = mfd.frame_at(plane, np.zeros(4))
    for n in (1, 2, 3, 4):
        assert mfd.delta_n(pf, n) == pytest.approx([2.0 ** (2 * (n - 1))])
    # lambda = 1, d = 2, r = 1, n = 3 gives 4
    frame = mfd.GeometryFrame(lam=np.array([[1.0, 1.0]]),
                              is_lambda=np.array([[False, True]]))
    assert mfd.delta_n(frame, 3) == pytest.approx([4.0])
    with pytest.raises(ValueError):
        mfd.delta_n(frame, 0)


def test_delta_identity_binomial_sum():
    # (1+l)^n - (1-l)^n = 2l * sum_j binom(n, 2j+1) l^{2j}
    for lam in (0.1, 0.5, 1.0):
        for n in range(1, 13):
            lhs = (1 + lam) ** n - (1 - lam) ** n
            rhs = 2 * lam * sum(math.comb(n, 2 * j + 1) * lam ** (2 * j)
                                for j in range(n // 2 + 1))
            assert lhs == pytest.approx(rhs, rel=1e-12)


def test_stacked_delta_n_matches_per_node_frames():
    sub = mfd.parabola_patch()
    quad = mfd.quadrature(sub, 16)
    frame = mfd.frame_at(sub, quad.nodes)
    for n in (2, 3, 5):
        stacked = mfd.delta_n(frame, n)
        loop = np.array([mfd.delta_n(mfd.frame_at(sub, t), n)[0]
                         for t in quad.nodes])
        assert np.abs(stacked - loop).max() <= 1e-13 * np.abs(loop).max()
        # lambda^2 = 1 / (1 + x1^2) on the parabola
        lam2 = 1.0 / (1.0 + quad.nodes[:, 0] ** 2)
        series = sum(math.comb(n, 2 * j + 1) * lam2 ** j
                     for j in range(n // 2 + 1))
        assert np.abs(stacked / series - 1.0).max() <= 1e-13
    # ranks that differ by manifold: circle r = 0, plane r = 2
    circle = mfd.circle(1.0)
    assert mfd.delta_n(mfd.frame_at(circle, [[0.1], [2.0]]), 2) == \
        pytest.approx([math.sqrt(2)] * 2)
    plane = mfd.plane_patch([[-1, 1]] * 4)
    assert mfd.delta_n(mfd.frame_at(plane, np.zeros((3, 4))), 3) == \
        pytest.approx([16.0] * 3)


def test_quadrature_records_grid_shape():
    quad = mfd.quadrature(mfd.sphere3(1.0), [3, 4, 5])
    assert quad.shape == (3, 4, 5)
    grid = quad.nodes.reshape(3, 4, 5, 3)
    assert np.all(grid[:, 1:, :, 1] > grid[:, :-1, :, 1])  # C order


TWO_PI = 2.0 * math.pi


def dsl_torus():
    return mfd.custom_chart(2, 2, ["cos(t1)", "sin(t1)", "0.7*cos(t2)",
                                   "0.7*sin(t2)"], [True, True],
                            [[0.0, TWO_PI]] * 2, label="torus")


CHARTS = [
    mfd.circle(1.3), mfd.torus_product([1.0, 0.7]),
    mfd.torus_product([1.0, 0.5, 0.8], ambient_dim=4), mfd.parabola_patch(),
    mfd.plane_patch([[-1.0, 2.0], [0.0, 1.0], [-0.5, 0.5], [1.0, 3.0]]),
    mfd.sphere3(0.9), dsl_torus()]


@pytest.mark.parametrize("sub", CHARTS, ids=lambda sub: sub.label)
def test_sqrt_det_metric_matches_lapack_det(sub):
    J = mfd.chart_rows(sub.jacobian, mfd.quadrature(sub, 5).nodes)
    expect = np.sqrt(np.linalg.det(np.swapaxes(J, 1, 2) @ J))
    got = mfd._sqrt_det_metric(np.moveaxis(J, 0, -1))
    assert np.abs(got / expect - 1.0).max() <= 1e-13


def wobbly_circle():
    return mfd.custom_chart(1, 1, ["(1 + 0.1*cos(t1))*cos(t1)",
                                   "(1 + 0.1*cos(t1))*sin(t1)"],
                            [True], [[0.0, TWO_PI]], label="wobbly")


def wiggly_circle():
    """The unit circle traced at a speed 1 + 0.32 cos(32 t): at 64 nodes the
    points turn by one node per step, the tangents do not."""
    return mfd.custom_chart(1, 1, ["cos(t1 + 0.01*sin(32*t1))",
                                   "sin(t1 + 0.01*sin(32*t1))"],
                            [True], [[0.0, TWO_PI]], label="wiggly")


def at_base(grid, axes):
    """The grid at index 0 along `axes`."""
    return grid[tuple(slice(0, 1) if a in axes else slice(None)
                      for a in range(grid.ndim))]


@pytest.mark.parametrize("sub, order", [(sub, 5) for sub in CHARTS] + [
    (wobbly_circle(), 64), (mfd.sphere3(1.0), [23, 45, 45]),
    (mfd.parabola_patch((-1.0, 2.0), (0.5, 1.5)), [7, 9])],
    ids=lambda v: getattr(v, "label", str(v)))
def test_quadrature_by_axis_keeps_every_bit(sub, order):
    quad = mfd.quadrature(sub, order)
    nodes, weights, points = reference_quadrature(sub, order)
    assert quad.nodes.tobytes() == nodes.tobytes()
    # the points, built on first use, are those of a node-by-node pass
    assert "points" not in vars(quad)
    assert quad.points.tobytes() == points.tobytes()
    # every chart here is one block, and equivariant along each of its
    # rotation axes: they share the base node's weight, which keeps its
    # bits; on the other charts every weight keeps its own
    shared = quad.rotation_axes
    got, want = (w.reshape(quad.shape) for w in (quad.weights, weights))
    assert at_base(got, shared).tobytes() == at_base(want, shared).tobytes()
    assert np.array_equal(got, np.broadcast_to(at_base(got, shared),
                                               quad.shape))
    assert np.abs(got / want - 1.0).max() <= 1e-13
    # each coordinate, at its own shape, broadcasts to the points
    grid = points.reshape(quad.shape + (-1,))
    for j, z in enumerate(quad.coords):
        assert z.ndim == sub.dim
        assert all(n in (1, L) for n, L in zip(z.shape, quad.shape))
        assert np.broadcast_to(z, quad.shape).tobytes() == \
            np.ascontiguousarray(grid[..., j]).tobytes()
    assert quad.max_radius() == float(np.abs(points).max())


@pytest.mark.parametrize("sub, order, axes", [
    (mfd.circle(1.3), 40, (0,)), (mfd.sphere3(1.0), [23, 45, 45], (1, 2)),
    (mfd.sphere3(0.9), [12, 12, 12], (1, 2)), (dsl_torus(), 16, (0, 1)),
    (dsl_torus(), [24, 40], (0, 1))], ids=["circle", "sphere3_k10",
                                            "sphere3", "dsl_torus",
                                            "dsl_torus_24x40"])
def test_weights_are_shared_along_equivariant_rotation_axes(sub, order,
                                                           axes):
    quad = mfd.quadrature(sub, order)
    assert quad.rotation_axes == axes
    w = quad.weights.reshape(quad.shape)
    base = at_base(w, axes)
    assert np.array_equal(w, np.broadcast_to(base, quad.shape))
    # within 1e-13 of the metric formed at every node, and the base
    # nodes' weights are those of a node-by-node pass
    _, weights, _ = reference_quadrature(sub, order)
    want = weights.reshape(quad.shape)
    assert np.abs(w / want - 1.0).max() <= 1e-13
    assert base.tobytes() == at_base(want, axes).tobytes()


def test_a_turning_curve_with_unequal_tangents_keeps_per_node_weights():
    quad = mfd.quadrature(wiggly_circle(), 64)
    assert quad.rotation_axes == (0,)  # the points turn
    _, weights, _ = reference_quadrature(wiggly_circle(), 64)
    assert quad.weights.tobytes() == weights.tobytes()
    assert quad.weights[1] < 0.55 * quad.weights[0]


def test_runs_of_small_blocks_are_joined_and_full_blocks_are_not(
        monkeypatch):
    # 100 nodes a block cut the t2 axis of a 6 x 15 x 15 grid into runs of
    # 6 rows; sphere3's jacobian values read few axes, so the blocks of a
    # run are joined, t2 is held whole and shares its weights as t3 does
    monkeypatch.setattr(mfd, "_CHUNK_BYTES", 100 * 8 * 3 * 7)
    sphere = mfd.sphere3(1.0)
    _, weights, _ = reference_quadrature(sphere, [6, 15, 15])
    want = weights.reshape(6, 15, 15)
    w = mfd.quadrature(sphere, [6, 15, 15]).weights.reshape(6, 15, 15)
    assert np.array_equal(w, np.broadcast_to(at_base(w, (1, 2)), w.shape))
    assert at_base(w, (1, 2)).tobytes() == at_base(want, (1, 2)).tobytes()

    # a jacobian whose values read every axis fills the budget block by
    # block: t2 stays cut and keeps per-node weights
    def jacobian(t):
        shape = np.broadcast_shapes(*map(np.shape, t))
        return [[np.broadcast_to(v, shape) for v in row]
                for row in sphere.jacobian(t)]

    chart = dataclasses.replace(sphere, jacobian=jacobian)
    w = mfd.quadrature(chart, [6, 15, 15]).weights.reshape(6, 15, 15)
    assert np.array_equal(w, np.broadcast_to(at_base(w, (2,)), w.shape))
    assert at_base(w, (2,)).tobytes() == at_base(want, (2,)).tobytes()
    assert not np.array_equal(w, np.broadcast_to(at_base(w, (1,)), w.shape))
    assert np.abs(w / want - 1.0).max() <= 1e-13


def test_sphere3_coordinates_keep_the_shape_of_their_axes():
    quad = mfd.quadrature(mfd.sphere3(1.0), [3, 4, 5])
    assert [z.shape for z in quad.coords] == [(3, 4, 1), (3, 1, 5)]


def test_chart_values_must_broadcast_to_the_grid():
    # a 1-d t1 coordinate would broadcast along the t2 axis of the grid
    flat = dataclasses.replace(
        mfd.torus_product([1.0, 0.7]),
        gamma=lambda t: [np.cos(t[0]).ravel(), np.sin(t[0]).ravel(),
                         np.cos(t[1]), np.sin(t[1])])
    with pytest.raises(ValueError, match="broadcast"):
        mfd.quadrature(flat, [4, 5])


def test_gauss_rule_is_cached_read_only():
    for n in (1, 19, 23):
        x, w = mfd._gauss_rule(n)
        x0, w0 = np.polynomial.legendre.leggauss(n)
        assert x.tobytes() == x0.tobytes() and w.tobytes() == w0.tobytes()
        assert not x.flags.writeable and not w.flags.writeable
        assert mfd._gauss_rule(n)[0] is x
        with pytest.raises(ValueError):
            x[0] = 0.0


@pytest.mark.parametrize("rows, d", [(6, 4), (8, 5), (10, 7), (6, 1)])
def test_sqrt_det_metric_any_dimension(rows, d):
    # tall Gaussian jacobians keep G well conditioned (cond below 2e3)
    J = np.random.default_rng(d).normal(size=(40, rows, d))
    expect = np.sqrt(np.linalg.det(np.swapaxes(J, 1, 2) @ J))
    got = mfd._sqrt_det_metric(np.moveaxis(J, 0, -1))
    assert np.abs(got / expect - 1.0).max() <= 1e-13
    # the same bits as einsum's dot product over the rows of the stack,
    # which sums them in row order when they are strided (d > 1); a
    # contiguous row (d = 1) it sums in SIMD lanes
    if d > 1:
        assert got.tobytes() == reference_sqrt_det_metric(J).tobytes()


def test_degenerate_chart_has_a_singular_metric():
    # the t2 column of the jacobian vanishes
    chart = mfd.custom_chart(2, 2, ["cos(t1)", "sin(t1)", "cos(t1)",
                                    "sin(t1)"], [True, True],
                             [[0.0, TWO_PI]] * 2)
    with pytest.raises(mfd.SingularMetricError):
        mfd.quadrature(chart, 8)


def test_quadrature_chunks_bound_the_jacobian(monkeypatch):
    # no periodic axis, so no weight is shared: every node has its metric
    sphere = dataclasses.replace(mfd.sphere3(1.0), periodic=(False,) * 3)
    order = [11, 21, 21]
    monkeypatch.setattr(mfd, "_CHUNK_BYTES", 1 << 40)
    whole = mfd.quadrature(sphere, order)
    blocks, metrics = [], []
    sqrt_det_metric = mfd._sqrt_det_metric

    def jacobian(t):
        blocks.append(math.prod(c.size for c in t))
        return sphere.jacobian(t)

    def recording(J):
        out = sqrt_det_metric(J)
        metrics.append(out.size)
        return out

    monkeypatch.setattr(mfd, "_sqrt_det_metric", recording)
    chart = dataclasses.replace(sphere, jacobian=jacobian)
    # 1500 nodes a block cuts the leading axis into runs of 3 rows of
    # 21 x 21 nodes; 100 cuts each leading row into runs of 4 x 21 nodes
    for nodes in (1500, 100):
        blocks.clear()
        metrics.clear()
        # 8 bytes times d (2N + d) per node of jacobian and metric
        monkeypatch.setattr(mfd, "_CHUNK_BYTES", nodes * 8 * 3 * 7)
        chunked = mfd.quadrature(chart, order)
        assert len(blocks) >= 3 and sum(blocks) == whole.size
        assert max(blocks) <= nodes and metrics == blocks
        for field in ("nodes", "weights", "points"):
            assert getattr(chunked, field).tobytes() == \
                getattr(whole, field).tobytes()
        assert chunked.shape == whole.shape


@pytest.mark.parametrize("sub, order", [(mfd.parabola_patch(), 24),
                                        (mfd.sphere3(1.0), [6, 9, 9])],
                         ids=["parabola", "sphere3"])
def test_w_spectrum_in_chunks_matches_one_geometry_pass(monkeypatch, sub,
                                                        order):
    quad = mfd.quadrature(sub, order)
    lam, is_lambda = mfd._geometry(mfd.chart_rows(sub.jacobian, quad.nodes))
    monkeypatch.setattr(mfd, "_CHUNK_BYTES", 50 * 8 * sub.dim
                        * (2 * sub.ambient_dim + sub.dim))
    chunked = quad.frame  # frame_at over chunks of 50 nodes
    assert np.array_equal(chunked.lam, lam)
    assert np.array_equal(chunked.is_lambda, is_lambda)
    assert quad.frame is chunked


@pytest.mark.parametrize("sub", CHARTS, ids=lambda sub: sub.label)
def test_stacked_frame_equals_per_point_frames(sub):
    nodes = mfd.quadrature(sub, 5).nodes
    stacked = mfd.frame_at(sub, nodes)
    assert stacked.lam.shape == stacked.is_lambda.shape == nodes.shape
    for i, t in enumerate(nodes):
        one = mfd.frame_at(sub, t)
        assert np.array_equal(one.lam, stacked.lam[i:i + 1])
        assert np.array_equal(one.is_lambda, stacked.is_lambda[i:i + 1])


def test_classify_reads_one_stacked_frame(monkeypatch):
    calls = []
    frame_at = mfd.frame_at

    def counting(sub, t):
        calls.append(np.shape(t))
        return frame_at(sub, t)

    monkeypatch.setattr(mfd, "frame_at", counting)
    cls = mfd.classify(mfd.sphere3(1.0))
    assert cls.tag == "coisotropic" and cls.half_rank == 1
    assert calls == [(mfd.SAMPLES_PER_AXIS ** 3, 3)]


def test_sphere3_quadrature_memory_is_bounded():
    # the k = 20 Lab order, 310,675 nodes: the stored nodes and weights
    # take 10 MB, the points are built only when asked for; with full-grid
    # jacobians and metrics the peak grew by 75-104 MB
    code = ("import resource, szegolab.manifold as m\n"
            "peak = lambda: resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
            "before = peak()\n"
            "m.quadrature(m.sphere3(1.0), [43, 85, 85])\n"
            "print((peak() - before) / 1024)")  # ru_maxrss is in KiB
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    out = subprocess.run([sys.executable, "-c", code], check=True, env=env,
                         capture_output=True, text=True)
    assert float(out.stdout) < 50.0


def test_isotropic_has_zero_H():
    sub = mfd.torus_product([1.0, 0.5, 0.8])
    points = [(0.1, 0.2, 0.3), (1.0, 2.0, 3.0)]
    for t in points:
        assert np.abs(metric_and_form(sub, t)[1]).max() <= 1e-12
    frame = mfd.frame_at(sub, points)
    assert frame.half_rank.tolist() == [0, 0]
    assert np.abs(frame.lam).max() <= 1e-12


def test_W_kernel_dimension():
    sub = mfd.sphere3(1.0)
    t = (0.4, 1.0, 2.0)
    frame = mfd.frame_at(sub, t)
    d, r = frame.dim, int(frame.half_rank[0])
    assert r == 1
    eigs = np.linalg.eigvals(np.linalg.solve(*metric_and_form(sub, t)))
    assert np.count_nonzero(np.abs(eigs) < 1e-8) == d - 2 * r
    # the rest are +-i lambda with the frame's lambda
    lam = frame.lam[frame.is_lambda]
    assert np.sort(np.abs(eigs))[d - 2 * r:] == pytest.approx(
        np.repeat(lam, 2), rel=1e-12)


def test_quadrature_masses():
    q = mfd.quadrature(mfd.circle(2.0), 17)
    assert q.total_mass == pytest.approx(2 * math.pi * 2.0, rel=1e-12)
    q2 = mfd.quadrature(mfd.torus_product([1.0, 0.5]), 9)
    assert q2.total_mass == pytest.approx(4 * math.pi ** 2 * 0.5, rel=1e-12)
    q3 = mfd.quadrature(mfd.sphere3(1.3), [9, 8, 8])
    assert q3.total_mass == pytest.approx(2 * math.pi ** 2 * 1.3 ** 3, rel=1e-12)


def test_gauss_legendre_polynomial_exactness():
    sub = mfd.plane_patch([[0, 1], [0, 1]])
    q = mfd.quadrature(sub, 4)  # exact through degree 7
    val = np.sum(q.weights * q.nodes[:, 0] ** 7)
    assert val == pytest.approx(1 / 8, rel=1e-13)


def test_jacobians_match_finite_differences():
    subs = [mfd.circle(1.2), mfd.torus_product([1.0, 0.6]),
            mfd.parabola_patch(), mfd.sphere3(0.9)]
    rng = np.random.default_rng(7)
    h = 1e-5
    for sub in subs:
        for _ in range(3):
            t = np.array([lo + (hi - lo) * rng.uniform(0.2, 0.8)
                          for lo, hi in sub.domain])
            J = mfd.chart_rows(sub.jacobian, t[None])[0]
            for j in range(sub.dim):
                step = np.zeros(sub.dim)
                step[j] = h
                fd = (mfd.chart_rows(sub.gamma, (t + step)[None])[0]
                      - mfd.chart_rows(sub.gamma, (t - step)[None])[0]) / (2 * h)
                assert np.abs(fd - J[:, j]).max() <= 1e-6


def test_manifold_from_spec_kinds():
    assert mfd.manifold_from_spec({"kind": "circle", "radius": 2.0}).dim == 1
    assert mfd.manifold_from_spec(
        {"kind": "torus_product", "radii": [1, 1]}).ambient_dim == 2
    assert mfd.manifold_from_spec({"kind": "sphere3"}).dim == 3
    assert mfd.manifold_from_spec({"kind": "parabola_patch"}).dim == 2
    assert mfd.manifold_from_spec(
        {"kind": "plane_patch", "ranges": [[-1, 1]] * 2}).ambient_dim == 1
    with pytest.raises(ValueError):
        mfd.manifold_from_spec({"kind": "moebius"})


def test_custom_dsl_chart_matches_builtin_circle():
    spec = {
        "kind": "custom", "dim": 1, "ambient_dim": 1,
        "coords": ["1.5*cos(t1)", "1.5*sin(t1)"],
        "periodic": [True], "domain": [[0.0, 2 * math.pi]],
    }
    custom = mfd.manifold_from_spec(spec)
    builtin = mfd.circle(1.5)
    assert mfd.classify(custom).tag == "lagrangian"
    for f, g in zip(metric_and_form(custom, (0.7,)),
                    metric_and_form(builtin, (0.7,))):
        assert np.allclose(f, g, rtol=1e-12, atol=0.0)
    fc = mfd.frame_at(custom, (0.7,))
    fb = mfd.frame_at(builtin, (0.7,))
    assert np.array_equal(fc.lam, fb.lam)
    assert np.array_equal(fc.is_lambda, fb.is_lambda)
    q = mfd.quadrature(custom, 32)
    assert q.total_mass == pytest.approx(2 * math.pi * 1.5, rel=1e-10)


def test_custom_chart_evaluates_each_expression_once(monkeypatch):
    calls = []
    evaluate = dsl.evaluate_columns

    def counting(e, t):
        calls.append([c.shape for c in t])
        return evaluate(e, t)

    monkeypatch.setattr(dsl, "evaluate_columns", counting)
    torus = mfd.custom_chart(2, 2, ["cos(t1)", "sin(t1)", "0.7*cos(t2)",
                                    "0.7*sin(t2)"], [True, True],
                             [[0.0, 2 * math.pi]] * 2)
    for order in (4, 40):
        calls.clear()
        mfd.quadrature(torus, order)
        # 2N coordinates and 2N * d derivatives, each once on the axis
        # vectors of the grid
        assert calls == [[(order, 1), (1, order)]] * (2 * 2 * (1 + 2))


@settings(max_examples=20, deadline=None)
@given(r=st.floats(0.5, 2.0), s=st.floats(0.0, 2 * math.pi))
def test_shifted_dsl_circle_matches_builtin(r, s):
    custom = mfd.custom_chart(1, 1, [f"{r!r}*cos(t1 + {s!r})",
                                     f"{r!r}*sin(t1 + {s!r})"],
                              [True], [[0.0, 2 * math.pi]])
    builtin = mfd.circle(r)
    # M = 80 holds all but ~1e-18 of the Poisson(k r^2) mass at r <= 2
    trunc = FockTruncation(1, 4.0, 80)
    ops = [assemble_T(trunc, sub, None, mfd.quadrature(sub, 192))
           for sub in (custom, builtin)]
    for op in ops:
        assert exact_trace(op)[2] <= 1e-10
    got, want = (eigensolve(op).eigenvalues for op in ops)
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def test_default_max_degree_rule():
    q = mfd.quadrature(mfd.circle(1.0), 16)
    assert mfd.default_max_degree(10.0, q) == 40


def test_amplitude_from_dsl():
    amp = mfd.amplitude_from_dsl("1 + cos(t1)", 1)
    vals = amp(np.array([[0.0], [math.pi]]))
    assert vals == pytest.approx([2.0, 0.0], abs=1e-15)
